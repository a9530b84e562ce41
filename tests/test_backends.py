"""Exact theory evaluation: instrument families, joint probabilities, spans."""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

from causaloid import (
    BackendError,
    Chain,
    ClassicalSpec,
    InstrumentFamily,
    ProcedureSpec,
    QuantumSpec,
    Region,
    TheorySpec,
    build_causaloid,
    build_prob_table,
    complete_effect,
    conditioning_span,
    deterministic_family,
    enumerate_exteriors,
    enumerate_labels,
    fold_to_exterior,
    ic_effects,
    ic_preparations,
    joint_prob,
    kernel_family,
    kraus_family,
    polariser_family,
    probe_reprepare_family,
    probe_reset_family,
    run_pipeline,
    unitary_family,
    validate_exterior_span,
    validate_table_spans,
)
from causaloid import backends, report
from causaloid import operators as ops
from causaloid.backends import (
    _cut_slots,
    _extended_rows,
    _label_order,
    _spanning_vectors,
)
from causaloid.errors import (
    DimensionMismatch,
    SpanDeficient,
    TableTooLarge,
    UnknownProcedure,
    UnknownRegion,
)
from causaloid.scenario import parse_scenario
from causaloid.tables import ExteriorConfiguration, GammaSet, ProbTable, greedy_independent_rows

from conftest import SCENARIO_NAMES, scenario_path
from test_cli_digests import _openblas_core, second_kernel_run


def cos2(deg: float) -> float:
    return math.cos(math.radians(deg)) ** 2


def _polariser_spec(angle_lists):
    locations = tuple(range(1, len(angle_lists) + 1))
    return QuantumSpec(
        chains=(Chain("photon", 2, locations),),
        instruments=tuple(
            polariser_family(x, a) for x, a in zip(locations, angle_lists)
        ),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2) + (complete_effect("quantum", 2),),),
    )


def _loop_total_probability(kind, t, fam):
    """Reference: TheorySpec's total-probability check as one np.allclose
    per action; returns the error message, or None."""
    for a, group in enumerate(fam.actions):
        total = np.zeros_like(group[0])
        for T in group:
            if kind == "classical" and T.min() < -1e-12:
                return (f"classical kernel has negative entries "
                        f"(location {fam.location}, action {a})")
            total = total + T
        if not np.allclose(t @ total, t, atol=1e-10):
            return (f"action {a} at location {fam.location} does not preserve "
                    f"total probability")
    return None


def _spec_verdict(kind, fam, size):
    cls = ClassicalSpec if kind == "classical" else QuantumSpec
    try:
        cls(
            chains=(Chain("wire", size, (fam.location,)),),
            instruments=(fam,),
            preparations=(ic_preparations(kind, size),),
            effects=(ic_effects(kind, size),),
        )
    except BackendError as exc:
        return str(exc)
    return None


def _faulty(fam, faults):
    """``fam`` with ``faults[(action, outcome)]`` added to those maps."""
    maps = [T + faults.get(label, 0) for label, T in zip(fam.labels(), fam.stacked)]
    return InstrumentFamily(fam.location, np.stack(maps), fam.counts)


def test_total_probability_check_matches_the_loop(scenarios):
    rng = np.random.default_rng(11)
    kernels = []
    for n in (2, 3, 2):
        kernel = rng.random((3, 3))
        kernel /= kernel.sum(axis=0)
        split = rng.random((n, 3, 3))
        split /= split.sum(axis=0)
        kernels.append([kernel * part for part in split])
    classical = kernel_family(4, 3, kernels)
    quantum = polariser_family(4, [0, 45, 90])
    shift = np.zeros((3, 3))
    shift[1, 2] = 1.5  # above any kernel entry; moved within an action, sums stay whole
    leak = 0.3 * np.eye(3)
    negative = "classical kernel has negative entries (location 4, action {})"
    lossy = "action {} at location 4 does not preserve total probability"
    cases = [
        ("classical", classical, {}, None),
        ("classical", classical, {(0, 1): leak}, lossy.format(0)),
        ("classical", classical, {(2, 0): leak}, lossy.format(2)),
        ("classical", classical, {(1, 0): -shift, (1, 2): shift}, negative.format(1)),
        ("classical", classical, {(1, 0): -shift}, negative.format(1)),
        ("classical", classical, {(0, 0): leak, (2, 1): -shift}, lossy.format(0)),
        ("classical", classical, {(0, 1): -shift, (2, 1): leak}, negative.format(0)),
        ("quantum", quantum, {}, None),
        ("quantum", quantum, {(0, 0): -0.1 * np.eye(4)}, lossy.format(0)),
        ("quantum", quantum, {(2, 1): 0.1 * np.eye(4)}, lossy.format(2)),
    ]
    for kind, fam, faults, want in cases:
        fam = _faulty(fam, faults)
        size = 3 if kind == "classical" else 2
        t = np.ones(3) if kind == "classical" else ops.trace_covector(2)
        assert _loop_total_probability(kind, t, fam) == want
        assert _spec_verdict(kind, fam, size) == want
    # every bundled family passes both
    for name in SCENARIO_NAMES:
        spec = scenarios(name).spec
        for fam in spec.instruments:
            t = complete_effect(spec.kind, spec.chain_of(fam.location).size)
            assert _loop_total_probability(spec.kind, t, fam) is None


def test_polariser_family_shape():
    fam = polariser_family(1, [0, 30, 60, 90])
    assert fam.n_actions == 4
    assert all(fam.n_outcomes(a) == 2 for a in range(4))
    assert fam.labels() == [(a, s) for a in range(4) for s in range(2)]
    with pytest.raises(UnknownProcedure):
        fam.n_outcomes(4)


def _loop_probe_reprepare(dim):
    """probe_reprepare_family's maps, one np.outer per (probe, state) pair."""
    kets = ops.ic_pure_kets(dim)
    t = ops.trace_covector(dim)
    expected = []
    for mket in kets:
        for jket in kets:
            w = ops.operator_coords(ops.density_from_ket(mket), dim)
            v = ops.operator_coords(ops.density_from_ket(jket), dim)
            expected.append((np.outer(v, t - w), np.outer(v, w)))
    return expected


@pytest.mark.parametrize("dim", [2, 3])
def test_probe_reprepare_matrices_match_the_per_pair_construction(dim):
    expected = _loop_probe_reprepare(dim)
    fam = probe_reprepare_family(1, dim)
    assert len(fam.actions) == len(expected)
    for got, want in zip(fam.actions, expected):
        assert _all_equal(got, want)


def test_probe_families_sizes():
    assert probe_reprepare_family(1, 2).n_actions == 16
    assert probe_reprepare_family(1, 3).n_actions == 81
    fam = probe_reset_family(1, 3)
    assert fam.n_actions == 3 and fam.n_outcomes(0) == 3


def test_classical_kernels_must_be_stochastic():
    bad = kernel_family(1, 2, [[np.array([[0.5, 0.0], [0.0, 0.5]])]])
    with pytest.raises(BackendError):
        ClassicalSpec(
            chains=(Chain("wire", 2, (1,)),),
            instruments=(bad,),
            preparations=(ic_preparations("classical", 2),),
            effects=(ic_effects("classical", 2),),
            )


def test_an_instrument_needs_an_action():
    # numpy would otherwise fail on stacking no transfer matrices
    for build in (
        lambda: InstrumentFamily(1, np.empty((0, 2, 2)), ()),
        lambda: kernel_family(1, 2, []),
        lambda: kraus_family(1, 2, []),
    ):
        with pytest.raises(BackendError, match="^an instrument needs at least one action$"):
            build()


def _probe_reset_tape(size: int, n_locations: int) -> ClassicalSpec:
    locations = tuple(range(1, n_locations + 1))
    return ClassicalSpec(
        chains=(Chain("tape", size, locations),),
        instruments=tuple(probe_reset_family(x, size) for x in locations),
        preparations=(ic_preparations("classical", size),),
        effects=(ic_effects("classical", size),),
    )


@pytest.mark.parametrize(
    "size, call, message",
    [
        (16, enumerate_labels, "region {1,2,3} would have 16777216 labels"),
        (16, lambda spec, region: build_prob_table(spec, [region]), "table would hold"),
        # 262,144 labels fit under the cap, their 16,777,216 entries do not
        (8, lambda spec, region: build_prob_table(spec, [region]),
         "table would hold 16777216 entries"),
    ],
)
def test_an_oversized_region_is_refused_before_its_labels_are_built(size, call, message):
    # size**2 labels per probe_reset location, three locations in one region
    spec = _probe_reset_tape(size, 3)
    started = time.perf_counter()
    with pytest.raises(TableTooLarge, match=message):
        call(spec, Region((1, 2, 3)))
    assert time.perf_counter() - started < 1.0


def test_constant_sets_are_shared_and_read_only():
    # one set per (kind, size) for the whole process: the same objects on
    # every call, no vector writable, and the kind part of the key
    extras = [lambda kind, size, j=j: _spanning_vectors(kind, size)[j] for j in (1, 2)]
    for build in (ic_preparations, ic_effects, *extras):
        first = build("quantum", 3)
        assert build("quantum", 3) is first
        with pytest.raises(ValueError):
            first[0][0] = 1.0
        classical = build("classical", 2)
        assert classical is not build("quantum", 2)
        assert all(item.shape == (2,) for item in classical)
        assert all(item.shape == (4,) for item in build("quantum", 2))


def _one_wire_spec(kind, size, effects):
    """A one-location wire under the identity map, with the IC preparations."""
    if kind == "classical":
        cls, family = ClassicalSpec, kernel_family(1, size, [[np.eye(size)]])
    else:
        cls, family = QuantumSpec, kraus_family(1, size, [[[np.eye(size)]]])
    return cls(
        chains=(Chain("wire", size, (1,)),),
        instruments=(family,),
        preparations=(ic_preparations(kind, size),),
        effects=(tuple(effects),),
    )


WIRES = [("classical", n) for n in range(2, 5)] + [("quantum", d) for d in range(2, 9)]


@pytest.mark.parametrize("kind, size", WIRES)
def test_an_effect_is_complete_exactly_when_it_is_the_total_covector(kind, size):
    total = complete_effect(kind, size)
    # the caller's own copy of the covector counts; one ulp off does not
    own = np.ones(size) if kind == "classical" else ops.trace_covector(size)
    nudged = np.nextafter(total, np.inf)
    ic = ic_effects(kind, size)
    spec = _one_wire_spec(kind, size, ic + (total, nudged, own))
    flags = (False,) * len(ic) + (True, False, True)
    assert enumerate_exteriors(spec, [1]).effects == (flags,)
    table = build_prob_table(spec, [Region((1,))])
    assert table.exteriors.unit_sum_mask().tolist() == list(flags) * len(ic)
    table.validate()


@pytest.mark.parametrize("kind, size", WIRES)
def test_complete_effect_is_the_total_covector(kind, size):
    total = complete_effect(kind, size)
    # the covector this once was: ones, or the coordinates of the identity
    if kind == "classical":
        assert np.array_equal(total, np.ones(size))
    else:
        old = ops.operator_coords(np.eye(size, dtype=complex), size)
        assert np.abs(total - old).max() <= 5e-16


def test_a_callers_vectors_are_read_only_once_the_spec_is_built():
    prep, effect = np.array([0.25, 0.75]), np.ones(2)
    spec = _one_wire_spec("classical", 2, [effect])
    spec = dataclasses.replace(spec, preparations=((prep,),))
    assert spec.preparations[0][0] is prep and spec.effects[0][0] is effect
    for vector in (prep, effect):
        with pytest.raises(ValueError):
            vector[0] = 0.5
    # a vector is an array: a plain list is a typed error, not a traceback
    with pytest.raises(DimensionMismatch, match="effect 0 does not fit"):
        _one_wire_spec("classical", 2, [[1.0, 1.0]])


def test_deterministic_family_maps():
    fam = deterministic_family(1, 3, ["identity", "cycle", "reset:2", "uniform"])
    assert fam.n_actions == 4
    with pytest.raises(BackendError):
        deterministic_family(1, 3, ["spin"])


# -- the per-kind and per-family loops that the shared builders replaced --

def _loop_kets(d):
    """(ic_pure_kets, extra_pure_kets), each from its own loop."""
    ic, extra = [], []
    for j in range(d):
        v = np.zeros(d, complex)
        v[j] = 1
        ic.append(v)
    for j in range(d):
        for k in range(j + 1, d):
            for out, phases in ((ic, (1, 1j)), (extra, (-1, -1j))):
                for c in phases:
                    v = np.zeros(d, complex)
                    v[j] = 1
                    v[k] = c
                    out.append(v / np.sqrt(2))
    return ic, extra


def _loop_spanning_sets(kind, size):
    """The vectors of ic_preparations, ic_effects and the extra preparations
    and effects of _spanning_vectors, each built on its own for its kind."""
    if kind == "classical":
        ic = [np.eye(size)[j].copy() for j in range(size)]
        preps, effs = [np.full(size, 1.0 / size)], [np.full(size, 0.5)]
        for j in range(size):
            for k in range(j + 1, size):
                for out, weight in ((preps, 0.5), (effs, 1.0)):
                    v = np.zeros(size)
                    v[j] = v[k] = weight
                    out.append(v)
        return ic, ic, preps, effs
    ic_kets, extra_kets = _loop_kets(size)
    ic = [ops.operator_coords(ops.density_from_ket(k), size) for k in ic_kets]
    extra = [ops.operator_coords(ops.density_from_ket(k), size) for k in extra_kets]
    eye = np.eye(size, dtype=complex)
    preps = extra + [ops.operator_coords(eye / size, size)]
    effs = extra + [ops.operator_coords(eye / 2, size)]
    return ic, ic, preps, effs


def _same_bytes(got, want):
    # bytes, not np.array_equal, which takes -0.0 for 0.0 where a digest does not
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _all_equal(got, want):
    return len(got) == len(want) and all(_same_bytes(g, w) for g, w in zip(got, want))


def test_pure_kets_match_their_loops():
    for d in range(2, 9):
        ic, extra = _loop_kets(d)
        assert _all_equal(ops.ic_pure_kets(d), ic)
        assert _all_equal(ops.extra_pure_kets(d), extra)


@pytest.mark.parametrize(
    "kind, size",
    [("classical", n) for n in range(2, 7)] + [("quantum", d) for d in range(2, 9)],
)
def test_spanning_sets_match_their_loops(kind, size):
    built = (ic_preparations(kind, size), ic_effects(kind, size), *_spanning_vectors(kind, size)[1:])
    for vectors, want in zip(built, _loop_spanning_sets(kind, size)):
        assert _all_equal(vectors, want)


def _loop_polariser(angles):
    actions = []
    for angle in angles:
        P = ops.projector_at_angle(float(angle))
        Q = np.eye(2) - P
        actions.append((_loop_kraus_to_transfer([P], 2), _loop_kraus_to_transfer([Q], 2)))
    return actions


def _loop_unitary(dim, names):
    return [(_loop_kraus_to_transfer([ops.named_unitary(n, dim)], dim),) for n in names]


def _loop_probe_reset(alphabet):
    actions = []
    for j in range(alphabet):
        group = []
        for s in range(alphabet):
            T = np.zeros((alphabet, alphabet))
            T[j, s] = 1.0
            group.append(T)
        actions.append(tuple(group))
    return actions


def _loop_deterministic(alphabet, maps):
    kernels = {
        "identity": ops.permutation_kernel(alphabet, 0),
        "cycle": ops.permutation_kernel(alphabet, 1),
        "uniform": ops.uniform_kernel(alphabet),
    }
    return [
        (kernels[m] if m in kernels else ops.reset_kernel(alphabet, int(m[6:])),)
        for m in maps
    ]


def test_rerouted_families_match_their_loops():
    cases = []
    for angles in ([0], [0, 30, 60, 90], [12.5, 45.0, 77.7]):
        cases.append((polariser_family(1, angles), _loop_polariser(angles)))
    for dim, names in ((2, ["identity", "hadamard", "phase", "cycle", "fourier"]),
                       (3, ["cycle", "fourier"]), (5, ["fourier", "identity"])):
        cases.append((unitary_family(1, dim, names), _loop_unitary(dim, names)))
    for alphabet in (2, 3, 5):
        maps = ["identity", "cycle", "uniform", "reset:0", f"reset:{alphabet - 1}"]
        cases.append((probe_reset_family(1, alphabet), _loop_probe_reset(alphabet)))
        cases.append((deterministic_family(1, alphabet, maps), _loop_deterministic(alphabet, maps)))
    for fam, want in cases:
        assert len(fam.actions) == len(want)
        for got_group, want_group in zip(fam.actions, want):
            assert _all_equal(got_group, want_group)
        # each action's outcome maps are one slice of the stacked labels
        for a, group in enumerate(fam.actions):
            lo, hi = fam.offsets[a], fam.offsets[a + 1]
            assert _all_equal(fam.stacked[lo:hi], group)
        assert fam.offsets[-1] == len(fam.labels())


def _map_addresses(fam):
    return [T.__array_interface__["data"][0] for group in fam.actions for T in group]


def test_families_hold_their_maps_once():
    # every map is a read-only view of its row of the family's one stack,
    # whichever way the family was built
    rng = np.random.default_rng(5)
    kernels = [[np.full((3, 3), 1 / 3)], [np.eye(3) * 0.5, np.eye(3) * 0.5]]
    loose = [rng.random((2, 2)) for _ in range(4)]
    for fam in (
        probe_reprepare_family(1, 3),
        polariser_family(1, [0, 45]),
        unitary_family(1, 3, ["cycle", "fourier"]),
        probe_reset_family(1, 3),
        deterministic_family(1, 3, ["identity", "uniform"]),
        kernel_family(1, 3, kernels),
        InstrumentFamily(1, np.stack(loose), (1, 3)),
    ):
        stack = fam.stacked
        assert fam.stacked is stack and not stack.flags.writeable
        assert _map_addresses(fam) == [row.__array_interface__["data"][0] for row in stack]
        assert not any(T.flags.writeable for group in fam.actions for T in group)
    # the family keeps the array it is given
    stack = np.stack(loose)
    fam = InstrumentFamily(1, stack, (1, 3))
    assert fam.stacked is stack and [len(group) for group in fam.actions] == [1, 3]
    assert _all_equal([T for g in fam.actions for T in g], loose)


def test_a_family_is_its_stack_and_outcome_counts():
    # the stack must hold sum(counts) square maps; nothing else can
    # disagree with it
    fam = InstrumentFamily(2, np.stack([np.eye(2)] * 3), [2, 1])
    assert fam.counts == (2, 1) and fam.offsets == (0, 2, 3)
    assert (fam.n_actions, fam.n_outcomes(0), fam.n_outcomes(1)) == (2, 2, 1)
    assert fam.labels() == [(0, 0), (0, 1), (1, 0)]
    assert fam.label_digits.tolist() == [[0, 0, 1], [0, 1, 0]]
    assert [field.name for field in dataclasses.fields(InstrumentFamily)] == [
        "location", "stacked", "counts"]
    for stacked, counts in (
        (np.stack([np.eye(2)] * 2) / 2, (1,)),
        (np.stack([np.eye(2)]), (1, 1)),
        (np.ones((2, 2, 3)), (2,)),
        (np.eye(2), (2,)),
        (np.ones((1, 1, 2, 2)), (1,)),
        ([np.eye(2)], (1,)),
    ):
        with pytest.raises(DimensionMismatch, match="^location 1 needs"):
            InstrumentFamily(1, stacked, counts)
    for counts, message in (((), "an instrument needs at least one action"),
                            ((1, 0), "every action needs an outcome")):
        with pytest.raises(BackendError, match=f"^{message}$"):
            InstrumentFamily(1, np.stack([np.eye(2)]), counts)


def test_a_family_allocates_its_maps_once():
    # the builder computes every map into one array, and the family keeps
    # it: no copy, and no per-map objects until ``actions`` is read
    tracemalloc.start()
    try:
        fam = probe_reprepare_family(1, 6)
        fam.stacked, fam.offsets, fam.label_digits
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.stacked.shape == (2 * 36 * 36, 36, 36)
    assert peak < 1.5 * fam.stacked.nbytes, (peak, fam.stacked.nbytes)


def test_label_order_gathers_the_row_major_labels():
    # uneven outcome counts make the sorted order differ from the row-major
    # one; regions span both chains and skip locations
    def family(location, outcomes):
        return kernel_family(location, 2, [[np.full((2, 2), 0.5 / n)] * n for n in outcomes])

    spec = ClassicalSpec(
        chains=(Chain("a", 2, (1, 3)), Chain("b", 2, (2, 4))),
        instruments=(family(1, (3, 1)), family(2, (1, 2)), family(3, (2, 2, 1)), family(4, (1, 2))),
        preparations=(ic_preparations("classical", 2),) * 2,
        effects=(ic_effects("classical", 2),) * 2,
    )
    for locations in ((1, 2), (1, 2, 3), (2, 3), (1, 4), (1, 2, 3, 4)):
        region = Region(locations)
        row_major = [
            (tuple(a for a, _ in combo), tuple(s for _, s in combo))
            for combo in itertools.product(*(spec.family(x).labels() for x in locations))
        ]
        gamma, gather = _label_order(spec, region)
        assert gather.tolist() == sorted(range(len(row_major)), key=row_major.__getitem__)
        assert gather.tolist() != list(range(len(row_major)))
        assert gamma.labels == tuple(sorted(row_major))
        assert enumerate_labels(spec, region) == gamma


def test_label_enumeration_is_sorted():
    spec = _polariser_spec([[0, 30], [0, 45]])
    gamma = enumerate_labels(spec, Region((1, 2)))
    assert gamma.size == 16
    assert list(gamma.labels) == sorted(gamma.labels)
    assert gamma.labels[0] == ((0, 0), (0, 0))
    assert gamma.index_of(((1, 1), (0, 1))) == gamma.labels.index(((1, 1), (0, 1)))


def test_exterior_enumeration_counts():
    spec = _polariser_spec([[0, 30], [0, 45]])
    # probing location 1 folds location 2 into the exterior as conditioning
    exts = enumerate_exteriors(spec, [1])
    n_prep = len(spec.preparations[0])
    n_eff = len(spec.effects[0])
    n_cond = sum(spec.family(2).n_outcomes(a) for a in range(spec.family(2).n_actions))
    assert len(exts) == n_prep * n_eff * n_cond
    assert all(ext.conditioning and ext.conditioning[0][0] == 2 for ext in exts)


def test_malus_chain_joint_probability():
    # pass through 0, 30, 60 degrees from a horizontal photon, then discard
    spec = _polariser_spec([[0, 30, 60, 90], [0, 30, 45, 60], [0, 30, 60, 90]])
    assignment = {
        Region((1,)): ((0,), (0,)),
        Region((2,)): ((1,), (0,)),
        Region((3,)): ((2,), (0,)),
    }
    ext = ExteriorConfiguration((0,), (len(spec.effects[0]) - 1,), (), True)
    p = joint_prob(spec, assignment, ext)
    assert p == pytest.approx(cos2(30) * cos2(30), abs=1e-12)


def _coin_family(location):
    # fair coin: both outcomes equally likely, post-state equals the outcome
    t0 = np.array([[0.5, 0.5], [0.0, 0.0]])
    t1 = np.array([[0.0, 0.0], [0.5, 0.5]])
    return kernel_family(location, 2, [(t0, t1)])


def _one_chain_spec(name, location):
    return ClassicalSpec(
        chains=(Chain(name, 2, (location,)),),
        instruments=(_coin_family(location),),
        preparations=(ic_preparations("classical", 2),),
        effects=(ic_effects("classical", 2),),
    )


def test_joint_prob_factorizes_across_chains():
    both = ClassicalSpec(
        chains=(Chain("left", 2, (1,)), Chain("right", 2, (2,))),
        instruments=(_coin_family(1), _coin_family(2)),
        preparations=(ic_preparations("classical", 2), ic_preparations("classical", 2)),
        effects=(ic_effects("classical", 2), ic_effects("classical", 2)),
    )
    lab0, lab1 = ((0,), (0,)), ((0,), (1,))
    one = ExteriorConfiguration((0,), (0,), (), False)
    left = joint_prob(_one_chain_spec("left", 1), {Region((1,)): lab0}, one)
    right = joint_prob(_one_chain_spec("right", 2), {Region((2,)): lab1}, one)
    assert left == pytest.approx(0.5, abs=1e-12)  # coin 0, then effect read0
    assert right == pytest.approx(0.0, abs=1e-12)  # coin 1 leaves 1, read0 fails
    ext = ExteriorConfiguration((0, 0), (0, 0), (), False)
    joint = joint_prob(both, {Region((1,)): lab0, Region((2,)): lab1}, ext)
    assert joint == pytest.approx(left * right, abs=1e-12)
    right_ok = joint_prob(_one_chain_spec("right", 2),
                          {Region((2,)): lab1},
                          ExteriorConfiguration((0,), (1,), (), False))
    assert right_ok == pytest.approx(0.5, abs=1e-12)
    ext2 = ExteriorConfiguration((0, 0), (0, 1), (), False)
    joint2 = joint_prob(both, {Region((1,)): lab0, Region((2,)): lab1}, ext2)
    assert joint2 == pytest.approx(left * right_ok, abs=1e-12) == 0.25


def test_prob_table_matches_pointwise_oracle(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    rng = np.random.default_rng(404)
    for _ in range(50):
        idx = tuple(rng.integers(0, g.size) for g in table.gammas)
        e = int(rng.integers(0, len(table.exteriors)))
        labels = [g.labels[i] for g, i in zip(table.gammas, idx)]
        direct = joint_prob(
            s.spec, dict(zip(table.regions, labels)), table.exteriors[e]
        )
        assert table.values[idx + (e,)] == pytest.approx(direct, abs=1e-12)


def test_prob_table_refuses_overlapping_regions(scenarios):
    s = scenarios("classical_chain3")
    with pytest.raises(UnknownRegion, match="pairwise disjoint"):
        build_prob_table(s.spec, [Region((1, 2)), Region((2, 3))])


def test_prob_table_over_no_region_is_the_exterior_alone(scenarios):
    # every location is swept: 2 preparations x 4 (action, outcome) cards
    # at each of 3 locations x 2 effects; for each preparation and action
    # choice (2 x 8), the outcomes and effects sum to 1
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, [])
    assert table.regions == () and table.gammas == ()
    assert table.values.shape == (256,) == (len(table.exteriors),)
    assert table.values.sum() == pytest.approx(16.0, abs=1e-12)


def _assert_table_matches_oracle(spec, table):
    exteriors = list(table.exteriors)
    for idx in np.ndindex(table.values.shape):
        labels = [g.labels[i] for g, i in zip(table.gammas, idx[:-1])]
        want = joint_prob(spec, dict(zip(table.regions, labels)), exteriors[idx[-1]])
        assert abs(table.values[idx] - want) <= 1e-12, idx


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_every_region_subset_table_matches_the_oracle(scenarios, name):
    # a proper subset of the regions leaves unprobed locations, swept as
    # conditioning; the full set is the table the pipeline builds
    s = scenarios(name)
    for k in range(1, len(s.regions) + 1):
        for sub in itertools.combinations(s.regions, k):
            _assert_table_matches_oracle(s.spec, build_prob_table(s.spec, sub))


def _reference_exteriors(spec, probed):
    """Exterior columns by nested loops: preparations, cards, effects."""
    cond_locs = [x for x in spec.locations() if x not in probed]
    out = []
    for preps in itertools.product(*(range(len(p)) for p in spec.preparations)):
        for conds in itertools.product(*(spec.family(x).labels() for x in cond_locs)):
            for effs in itertools.product(*(range(len(e)) for e in spec.effects)):
                complete = all(
                    np.array_equal(
                        spec.effects[c][e], complete_effect(spec.kind, spec.chains[c].size)
                    )
                    for c, e in enumerate(effs)
                )
                cond = tuple(zip(cond_locs, conds))
                out.append(ExteriorConfiguration(preps, effs, cond, complete))
    return out


def _reference_fold(table, keep, base):
    """Folded columns by nested loops: folded labels slowest, base fastest."""
    others = [(r, g) for r, g in zip(table.regions, table.gammas) if r not in keep]
    out = []
    for combo in itertools.product(*(g.labels for _, g in others)):
        extra = tuple(
            (x, (a, s))
            for (r, _), (actions, outcomes) in zip(others, combo)
            for x, a, s in zip(r.locations, actions, outcomes)
        )
        for ext in base:
            cond = tuple(sorted(ext.conditioning + extra))
            out.append(
                ExteriorConfiguration(ext.preparations, ext.effects, cond, ext.complete)
            )
    return out


def _check_exterior_axes(spec, regions):
    for k in range(1, len(regions) + 1):
        for sub in itertools.combinations(regions, k):
            table = build_prob_table(spec, sub)
            base = _reference_exteriors(spec, {x for r in sub for x in r})
            axes = [(table.exteriors, base)]
            for j in range(1, k + 1):
                for keep in itertools.combinations(sub, j):
                    folded = fold_to_exterior(table, keep)[1]
                    axes.append((folded, _reference_fold(table, keep, base)))
            for axis, want in axes:
                assert len(axis) == len(want)
                assert list(axis) == want
                assert axis[-1] == want[-1]
                assert axis.unit_sum_mask().tolist() == [
                    e.complete and not e.conditioning for e in want
                ]
                with pytest.raises(IndexError):
                    axis[len(want)]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_exterior_axis_decodes_like_nested_loops(scenarios, name):
    s = scenarios(name)
    _check_exterior_axes(s.spec, s.regions)


def test_exterior_axis_iterates_like_its_indexing(scenarios):
    # a folded axis with conditioning: R2's labels folded, location 3 unprobed
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions[:2])
    axis = fold_to_exterior(table, s.regions[:1])[1]
    assert axis.folded and axis.conditioning
    n = len(axis)
    assert list(axis) == [axis[j] for j in range(n)]
    assert [axis[j - n] for j in range(n)] == list(axis)
    for j in (n, -n - 1):
        with pytest.raises(IndexError):
            axis[j]


def _random_instrument(rng, dim, n_outcomes, kraus_per_outcome=2):
    """Kraus operators, per outcome, cut from one random isometry."""
    m = n_outcomes * kraus_per_outcome
    z = rng.normal(size=(m * dim, dim)) + 1j * rng.normal(size=(m * dim, dim))
    q, _ = np.linalg.qr(z)
    blocks = [q[i * dim:(i + 1) * dim] for i in range(m)]
    return [blocks[o * kraus_per_outcome:(o + 1) * kraus_per_outcome]
            for o in range(n_outcomes)]


def _loop_kraus_to_transfer(kraus, d):
    """Reference: one map of operators.kraus_transfers, with one np.trace
    per entry."""
    basis = ops.hermitian_basis(d)
    n = len(basis)
    T = np.zeros((n, n))
    for q in range(n):
        out = np.zeros((d, d), complex)
        for K in kraus:
            K = np.asarray(K, dtype=complex)
            out += K @ basis[q] @ K.conj().T
        out = (out + out.conj().T) / 2
        for m in range(n):
            T[m, q] = np.trace(basis[m] @ out).real
    return T


def test_kraus_to_transfer_matches_the_loop():
    rng = np.random.default_rng(3)
    cases = []
    for angle in (0, 30, 45, 60, 90, 137.5):
        P = ops.projector_at_angle(angle)
        cases += [([P], 2), ([np.eye(2) - P], 2)]
    for d in (2, 3, 4):
        cases += [([ops.named_unitary(name, d)], d) for name in ("identity", "cycle", "fourier")]
        for n_outcomes in (1, 2, 3):
            cases += [(ks, d) for ks in _random_instrument(rng, d, n_outcomes)]
    cases += [([ops.named_unitary(name, 2)], 2) for name in ("hadamard", "phase")]
    for kraus, d in cases:
        assert _same_bytes(ops.kraus_transfers([kraus], d)[0], _loop_kraus_to_transfer(kraus, d))


def _uneven_instrument(rng, dim, counts):
    """Kraus operators cut from one random isometry, ``counts[o]`` of them
    for outcome ``o``."""
    blocks = _random_instrument(rng, dim, 1, sum(counts))[0]
    starts = itertools.accumulate(counts, initial=0)
    return [blocks[lo:lo + n] for lo, n in zip(starts, counts)]


def _same_actions(got, want):
    return len(got) == len(want) and all(map(_all_equal, got, want))


def _uneven_kraus_family(d):
    """The maps of a kraus_family on dimension ``d`` whose outcomes carry
    1, 2 and 3 Kraus operators in one action and 3 and 1 in another, and
    their loop reference."""
    rng = np.random.default_rng(d)
    actions = [_uneven_instrument(rng, d, (1, 2, 3)), _uneven_instrument(rng, d, (3, 1))]
    want = [[_loop_kraus_to_transfer(ks, d) for ks in outcomes] for outcomes in actions]
    return kraus_family(1, d, actions).actions, want


@pytest.mark.parametrize("d", range(2, 9))
def test_kraus_family_matches_the_loop(d):
    # one contraction builds every outcome map of the family, whatever
    # number of Kraus operators each outcome carries
    got, want = _uneven_kraus_family(d)
    assert [len(group) for group in got] == [3, 2]
    assert _same_actions(got, want)


def _loop_family(item, size):
    """The loop reference of one scenario instrument's maps, per action."""
    family = item["family"]
    if family == "polariser":
        return _loop_polariser(item["angles_deg"])
    if family == "unitaries":
        return _loop_unitary(size, item["names"])
    if family == "probe_reprepare":
        return _loop_probe_reprepare(size)
    if family == "probe_reset":
        return _loop_probe_reset(size)
    return _loop_deterministic(size, item["maps"])


def _bundled_family_mismatches() -> list[str]:
    """Every bundled instrument whose maps differ from its loop reference
    in any byte, as "scenario location"."""
    found = []
    for name in SCENARIO_NAMES:
        theory = json.loads(pathlib.Path(scenario_path(name)).read_text())["theory"]
        spec = parse_scenario(scenario_path(name)).spec
        sizes = {x: chain["size"] for chain in theory["chains"] for x in chain["locations"]}
        for item in theory["instruments"]:
            got = spec.family(item["location"]).actions
            want = _loop_family(item, sizes[item["location"]])
            if not _same_actions(got, want):
                found.append(f"{name} {item['location']}")
    return found


def _kernel_family_check() -> dict:
    """This process's kernel, and every bundled family and every
    ``_uneven_kraus_family`` whose maps differ from their loop."""
    uneven = [f"kraus_family d={d}" for d in range(2, 9) if not _same_actions(*_uneven_kraus_family(d))]
    return {"core": _openblas_core(), "mismatches": _bundled_family_mismatches() + uneven}


# runs _kernel_family_check in a child process (see second_kernel_run)
FAMILY_CHILD = (
    "import json, sys; sys.path[:0] = sys.argv[1:]; "
    "import test_backends; print(json.dumps(test_backends._kernel_family_check()))"
)


def test_bundled_family_maps_match_their_loops():
    assert _bundled_family_mismatches() == []


def test_family_maps_match_their_loops_on_a_second_kernel():
    # the batched contractions and the loops they replaced round alike on
    # another OpenBLAS kernel too, chosen for the child process only
    _, theirs = second_kernel_run(FAMILY_CHILD)
    assert theirs["mismatches"] == []


def test_kraus_chain_tables_match_the_oracle():
    rng = np.random.default_rng(2024)
    spec = QuantumSpec(
        chains=(Chain("qubit", 2, (1, 2)),),
        instruments=(
            kraus_family(1, 2, [_random_instrument(rng, 2, 2),
                                _random_instrument(rng, 2, 3)]),
            kraus_family(2, 2, [_random_instrument(rng, 2, 2),
                                _random_instrument(rng, 2, 1)]),
        ),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2) + (complete_effect("quantum", 2),),),
    )
    r1, r2 = Region((1,)), Region((2,))
    for regions in ([r1], [r2], [r1, r2], [Region((1, 2))]):
        table = build_prob_table(spec, regions)
        table.validate()
        _assert_table_matches_oracle(spec, table)
    # the complete effect makes the unit-sum mask non-empty
    _check_exterior_axes(spec, [r1, r2])


def _action_blocks(table):
    """Per joint action choice, the label indices of every region."""
    return itertools.product(*(
        [g.labels_for_action(a) for a in dict.fromkeys(a for a, _ in g.labels)]
        for g in table.gammas
    ))


def _loop_validate(table, tol=1e-10):
    """ProbTable.validate as one np.ix_ block per joint action choice."""
    v = table.values
    if v.min() < -1e-12 or v.max() > 1 + 1e-12:
        raise ValueError("table entries must lie in [0, 1]")
    unit = table.exteriors.unit_sum_mask()
    for combo in _action_blocks(table):
        block = v[np.ix_(*combo)] if combo else v
        sums = block.sum(axis=tuple(range(len(table.regions))))
        if sums.max() > 1 + tol:
            raise ValueError("outcome sums exceed 1 for a fixed procedure")
        if (np.abs(sums[unit] - 1) > tol).any():
            raise ValueError("complete terminal effects must give unit outcome sums")


def _verdict(check, table):
    try:
        check(table)
    except ValueError as exc:
        return str(exc)
    return None


def _with_values(table, values):
    out = ProbTable(table.gammas, table.exteriors, values)
    assert out.regions == tuple(g.region for g in table.gammas) == table.regions
    return out


def _raise_past_the_sum(table, values):
    """Raise the smallest entry of the largest outcome sum until it passes 1."""
    best = None
    for combo in _action_blocks(table):
        block = values[np.ix_(*combo)]
        sums = block.sum(axis=tuple(range(len(combo))))
        j = int(np.argmax(sums))
        if best is None or sums[j] > best[0]:
            best = (sums[j], combo, block[..., j], j)
    total, combo, column, j = best
    low = np.unravel_index(np.argmin(column), column.shape)
    values[tuple(c[i] for c, i in zip(combo, low)) + (j,)] += 1 - total + 1e-6


def _lower_a_unit_column(table, values):
    j = int(np.argmax(table.exteriors.unit_sum_mask()))
    column = values[..., j]
    values[np.unravel_index(np.argmax(column), column.shape) + (j,)] -= 1e-6


def _validate_cases(scenarios):
    for name in SCENARIO_NAMES:
        s = scenarios(name)
        yield build_prob_table(s.spec, s.regions)
    # a complete effect gives unit-sum columns, which no bundled table has
    spec = _polariser_spec([[0, 30, 60, 90], [0, 45]])
    yield build_prob_table(spec, [Region((1,)), Region((2,))])


def test_table_validate_matches_the_block_loop(scenarios):
    exceed = "outcome sums exceed 1 for a fixed procedure"
    unit = "complete terminal effects must give unit outcome sums"
    n_unit = 0
    for table in _validate_cases(scenarios):
        cases = [((), None), ((_raise_past_the_sum,), exceed)]
        if table.exteriors.unit_sum_mask().any():
            n_unit += 1
            cases += [((_lower_a_unit_column,), unit),
                      ((_lower_a_unit_column, _raise_past_the_sum), exceed)]
        for faults, want in cases:
            values = table.values.copy()
            for fault in faults:
                fault(table, values)
            faulty = _with_values(table, values)
            assert _verdict(ProbTable.validate, faulty) == want
            if len(faults) < 2:  # with both, the block loop may meet either first
                assert _verdict(_loop_validate, faulty) == want
    assert n_unit == 1


def test_span_validation_ranks(scenarios):
    s = scenarios("qubit_channel")
    # a check is returned only where the extended rank equals the rank
    v = validate_exterior_span(s.spec, s.regions[0])
    assert (v.rank, v.n_exteriors, v.n_extended_exteriors) == (16, 16, 49)


def test_span_deficiency_is_loud():
    # a single preparation/effect pair cannot span a qubit channel's exterior
    spec = QuantumSpec(
        chains=(Chain("photon", 2, (1,)),),
        instruments=(probe_reprepare_family(1, 2),),
        preparations=((ic_preparations("quantum", 2)[0],),),
        effects=((complete_effect("quantum", 2),),),
    )
    with pytest.raises(SpanDeficient):
        validate_exterior_span(spec, Region((1,)))


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_table_spans_match_per_region_checks(scenarios, name):
    s = scenarios(name)
    table = build_prob_table(s.spec, s.regions)
    c = build_causaloid(table, (), tol_rank=s.tol_rank, tol_residual=s.tol_residual)
    ranks = [c.omega_of(r).size for r in table.regions]
    joint = validate_table_spans(s.spec, table, ranks, tol_rank=s.tol_rank)
    per_region = tuple(
        validate_exterior_span(s.spec, r, tol_rank=s.tol_rank) for r in s.regions
    )
    assert joint == per_region


def test_table_spans_stop_at_the_first_deficient_region():
    # chain "a" is fully probed; chain "b" has one preparation and one
    # effect, too few to span the exterior of its probe-and-reprepare family
    spec = QuantumSpec(
        chains=(Chain("a", 2, (1,)), Chain("b", 2, (2,))),
        instruments=(probe_reprepare_family(1, 2), probe_reprepare_family(2, 2)),
        preparations=(
            ic_preparations("quantum", 2),
            (ic_preparations("quantum", 2)[0],),
        ),
        effects=(ic_effects("quantum", 2), (complete_effect("quantum", 2),)),
    )
    r1, r2 = Region((1,)), Region((2,))
    assert validate_exterior_span(spec, r1).rank == 16  # returned, so stable
    with pytest.raises(SpanDeficient) as single:
        validate_exterior_span(spec, r2)
    table = build_prob_table(spec, [r1, r2])
    c = build_causaloid(table, ())
    ranks = [c.omega_of(r).size for r in table.regions]
    with pytest.raises(SpanDeficient) as joint:
        validate_table_spans(spec, table, ranks)
    assert str(joint.value) == str(single.value)
    assert str(joint.value).startswith("region {2}:")


# the rank tolerances of the CLI digest grid
TOL_GRID = (1e-9, 1e-7, 1e-3, 0.5, 2.0, 1e308)


def _extended_table(spec, regions):
    """The table the span check once built: the spec with the extra
    preparations and effects added to every chain."""
    wide_spec = type(spec)(
        chains=spec.chains,
        instruments=spec.instruments,
        preparations=tuple(
            base + tuple(_spanning_vectors(spec.kind, chain.size)[1])
            for base, chain in zip(spec.preparations, spec.chains)
        ),
        effects=tuple(
            base + tuple(_spanning_vectors(spec.kind, chain.size)[2])
            for base, chain in zip(spec.effects, spec.chains)
        ),
    )
    return build_prob_table(wide_spec, regions)


def _table_rows(wide, axis):
    return np.moveaxis(wide.values, axis, 0).reshape(wide.values.shape[axis], -1)


def _table_extended_spans(wide, tol):
    """Reference: each region's (extended rank, extended column count) as
    the span check once read them off the extended table."""
    spans = []
    for axis in range(len(wide.regions)):
        rows = _table_rows(wide, axis)
        spans.append((len(greedy_independent_rows(rows, tol)), rows.shape[1]))
    return spans


def assert_cut_spans_match_the_table(spec, regions, tols):
    table = build_prob_table(spec, regions)
    wide = _extended_table(spec, regions)
    slots = [_cut_slots(spec, ci) for ci in range(len(spec.chains))]
    for axis, region in enumerate(regions):
        # the cut rows are the table's rows up to an isometry of the columns
        gram = _table_rows(wide, axis) @ _table_rows(wide, axis).T
        cut = _extended_rows(spec, region, slots)
        bound = 1e-10 * max(1.0, float(np.abs(gram).max()))
        np.testing.assert_allclose(cut @ cut.T, gram, rtol=0, atol=bound)
    for tol in tols:
        # the table's extended ranks go in as the fiducial ranks, so a cut
        # rank that differs from the table's, either way, raises
        want = _table_extended_spans(wide, tol)
        spans = validate_table_spans(spec, table, [rank for rank, _ in want], tol_rank=tol)
        got = [(v.rank, v.n_extended_exteriors) for v in spans]
        assert got == want, f"tol_rank {tol}"


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_cut_spans_match_the_extended_table(scenarios, name):
    s = scenarios(name)
    assert_cut_spans_match_the_table(s.spec, s.regions, TOL_GRID)


def test_cut_spans_follow_the_wire_order():
    # a chain wired 3 -> 1 -> 2: the cut slots follow the wire, the rows
    # the label set's order, and a region with a gap straddles location 1
    rng = np.random.default_rng(7)
    spec = QuantumSpec(
        chains=(Chain("qubit", 2, (3, 1, 2)),),
        instruments=tuple(
            kraus_family(x, 2, [_random_instrument(rng, 2, 2),
                                _random_instrument(rng, 2, 1)])
            for x in (1, 2, 3)
        ),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2),),
    )
    for regions in ([Region((2, 3))], [Region((1,)), Region((2, 3))], [Region((3,))]):
        assert_cut_spans_match_the_table(spec, regions, TOL_GRID)
        # the reference above shares the table's contraction; the oracle does not
        _assert_table_matches_oracle(spec, build_prob_table(spec, regions))


@pytest.mark.parametrize("name,n_chains,n_regions", [("spacelike_bits", 2, 2), ("polariser_chain", 1, 3)])
def test_span_check_builds_each_chains_slots_once(scenarios, monkeypatch, name, n_chains, n_regions):
    # every region reads every chain's slots (an untouched chain through its
    # norm), so a pipeline run builds them once per chain, not per region
    calls = []
    build = backends._cut_slots

    def counted(spec, ci):
        calls.append(ci)
        return build(spec, ci)

    monkeypatch.setattr(backends, "_cut_slots", counted)
    s = scenarios(name)
    assert (len(s.spec.chains), len(s.regions)) == (n_chains, n_regions)
    run_pipeline(s)
    assert calls == list(range(n_chains))


@pytest.mark.parametrize("name,n_chains", [("polariser_chain", 1), ("spacelike_bits", 2)])
def test_a_table_contracts_each_chain_once_through_its_cut_rows(
    scenarios, monkeypatch, name, n_chains
):
    # the table and the span check share one chain contraction: the table
    # reads each chain's cut rows once, over every location
    calls = []
    contract = backends._cut_rows

    def counted(positions, slots):
        calls.append(list(positions))
        return contract(positions, slots)

    monkeypatch.setattr(backends, "_cut_rows", counted)
    s = scenarios(name)
    assert len(s.spec.chains) == n_chains
    build_prob_table(s.spec, s.regions)
    assert calls == [list(range(len(chain.locations))) for chain in s.spec.chains]


def test_parse_runs_one_basis_contraction_per_family(monkeypatch):
    calls = []
    contract = ops.kraus_transfers

    def counted(outcomes, d):
        calls.append(len(outcomes))
        return contract(outcomes, d)

    monkeypatch.setattr(ops, "kraus_transfers", counted)
    spec = parse_scenario(scenario_path("polariser_chain")).spec
    # three polarisers of four angles, two outcome maps per angle
    assert len(spec.instruments) == 3
    assert calls == [8, 8, 8]


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_a_pipeline_builds_each_label_set_once(scenarios, monkeypatch, name):
    # the table builds each region's label set; the span check reads the
    # same label order without building a second one
    s = scenarios(name)
    built, in_span = [], []
    check = GammaSet.__post_init__
    validate = report.validate_table_spans

    def counted(gamma):
        built.append(gamma.region)
        check(gamma)

    def span_check(*args, **kwargs):
        in_span.append(len(built))
        out = validate(*args, **kwargs)
        in_span.append(len(built))
        return out

    monkeypatch.setattr(GammaSet, "__post_init__", counted)
    monkeypatch.setattr(report, "validate_table_spans", span_check)
    run_pipeline(s)
    assert sorted(built) == sorted(s.regions)
    assert in_span[0] == in_span[1] == len(s.regions)


def test_conditioning_restrictions_are_rejected():
    with pytest.raises(BackendError):
        QuantumSpec(
            chains=(Chain("photon", 2, (1,)),),
            instruments=(polariser_family(1, [0, 90]),),
            preparations=(ic_preparations("quantum", 2),),
            effects=(ic_effects("quantum", 2),),
            conditioning_actions=((1, (0,)),),
        )


def test_theory_spec_itself_is_not_a_theory():
    # the base class has no kind of its own to size its wires by
    parts = {
        "chains": (Chain("photon", 2, (1,)),),
        "instruments": (polariser_family(1, [0, 90]),),
        "preparations": (ic_preparations("quantum", 2),),
        "effects": (ic_effects("quantum", 2),),
    }
    with pytest.raises(BackendError, match="ClassicalSpec or a QuantumSpec"):
        TheorySpec(**parts)
    spec = QuantumSpec(**parts)
    assert dataclasses.replace(spec, effects=spec.effects).kind == "quantum"
    classical = ClassicalSpec(
        chains=(Chain("tape", 2, (1,)),),
        instruments=(probe_reset_family(1, 2),),
        preparations=(ic_preparations("classical", 2),),
        effects=(ic_effects("classical", 2),),
    )
    assert dataclasses.replace(classical, effects=classical.effects).kind == "classical"


def test_conditioning_span_flags():
    classical = ClassicalSpec(
        chains=(Chain("tape", 2, (1,)),),
        instruments=(probe_reset_family(1, 2),),
        preparations=(ic_preparations("classical", 2),),
        effects=(ic_effects("classical", 2),),
    )
    dim, full = conditioning_span(classical, 1)
    assert (dim, full) == (4, 4)
    quantum = _polariser_spec([[0, 30, 60, 90]])
    dim, full = conditioning_span(quantum, 1)
    assert full == 16 and dim < full
