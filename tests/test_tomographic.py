"""First-level compression: fiducial sets, expansion matrices, state vectors."""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import causaloid.backends
import causaloid.causaloid
import causaloid.tables
import causaloid.tomographic
from causaloid import (
    CompositionalLambda,
    MeasurementMatrix,
    OmegaSet,
    Region,
    TomographicLambda,
    born_rule,
    build_causaloid,
    build_measurement_matrix,
    build_prob_table,
    clamp_probability,
    find_fiducial_set,
    fold_to_exterior,
    r_vector,
    run_pipeline,
    solve_expansion,
    state_vector,
)
from causaloid.errors import (
    ContextMismatch,
    IncompleteTable,
    ResidualTooLarge,
    UnknownExterior,
)
from causaloid.compositional import product_rows
from causaloid.tables import greedy_independent_rows

from causaloid.scenario import parse_scenario
from conftest import SCENARIO_NAMES, scenario_path
from test_cli_digests import _openblas_core, second_kernel_run


@pytest.fixture(scope="module")
def polariser_table(scenarios):
    s = scenarios("polariser_chain")
    return build_prob_table(s.spec, s.regions)


@pytest.fixture(scope="module")
def polariser_entry(polariser_table):
    m = build_measurement_matrix(polariser_table, Region((2,)))
    lam = build_causaloid(polariser_table, composites=()).tomographic(Region((2,)))
    return m, lam.omega, lam


def test_measurement_matrix_shape(polariser_table):
    m = build_measurement_matrix(polariser_table, Region((2,)))
    assert m.rows.row_kind == "gamma"
    assert m.n_rows == 8
    with pytest.raises(IncompleteTable):
        build_measurement_matrix(polariser_table, Region((9,)))


def test_greedy_scan_prefers_lowest_indices():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n, m, r = 10, 24, int(rng.integers(1, 7))
        rows = rng.normal(size=(r, m))
        mix = rng.normal(size=(n, r))
        a = mix @ rows
        chosen = greedy_independent_rows(a, 1e-9)
        assert len(chosen) == np.linalg.matrix_rank(a, tol=1e-9)
        # every skipped row is already inside the span of the kept rows
        # that precede it, so the scan is the lexicographically least choice
        for j in range(n):
            if j in chosen:
                continue
            before = [i for i in chosen if i < j]
            sub = a[before + [j]]
            assert np.linalg.matrix_rank(sub, tol=1e-9) == len(before)


@st.composite
def _row_matrices(draw):
    """Products of rank at most ``n_cols`` (often taller than wide), or arbitrary arrays."""
    n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        rank = draw(st.integers(1, n_cols))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.normal(size=(n_rows, rank)) @ rng.normal(size=(rank, n_cols))
    return draw(hnp.arrays(
        np.float64, (n_rows, n_cols),
        elements=st.floats(-1e150, 1e150, allow_nan=False),
    ))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    _row_matrices(),
    st.sampled_from([1e-300, 1e-100, 1e-17, 1e-15, 1e-13, 1e-9]) | st.floats(1e-300, 1e3),
)
def test_greedy_scan_keeps_at_most_one_row_per_column(values, tol):
    # below rounding level every residual passes the test, so only the
    # stop at full rank keeps the set independent
    chosen = greedy_independent_rows(values, tol)
    assert len(chosen) <= values.shape[1]
    assert list(chosen) == sorted(set(chosen))


def _reference_greedy(values, tol):
    """The scan with its basis re-stacked on every kept row."""
    rows = np.asarray(values, dtype=float)
    chosen = []
    basis = np.zeros((0, rows.shape[1]))
    for i in range(rows.shape[0]):
        if len(chosen) == rows.shape[1]:
            break
        v = rows[i]
        r = v - basis.T @ (basis @ v)
        r -= basis.T @ (basis @ r)
        norm = math.sqrt(r @ r)
        if norm > tol * max(1.0, math.sqrt(v @ v)):
            chosen.append(i)
            basis = np.vstack([basis, r / norm])
    return tuple(chosen)


@st.composite
def _planted_rank_matrices(draw):
    """Rows drawn from a planted low-rank span, each scaled by 10**k for k
    in -3..3 (so rows below and above unit norm both occur), with exact
    duplicates, scaled copies and rows that tie an earlier row's residual."""
    n_cols, rank = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rank = min(rank, n_cols)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(rank, n_cols))
    n_rows = draw(st.integers(1, 10))
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-3, 3), min_size=n_rows, max_size=n_rows)))
    rows = list(scales[:, None] * (rng.normal(size=(n_rows, rank)) @ base))
    for kind in draw(st.lists(st.sampled_from(["duplicate", "scaled", "tie"]), max_size=8)):
        j = draw(st.integers(0, len(rows) - 1))
        if kind == "duplicate":
            rows.insert(draw(st.integers(j + 1, len(rows))), rows[j].copy())
        elif kind == "scaled":
            rows.append(rows[j] * draw(st.sampled_from([-1.0, 0.5, 2.0, 1e-8, 1e8])))
        else:
            # row j plus row 0: once row 0 is kept, its residual ties row j's
            rows.append(rows[j] + rows[0])
    return np.array(rows)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_planted_rank_matrices(), st.sampled_from([1e-17, 1e-9, 1e-3, 0.5, 2.0]))
def test_greedy_scan_matches_the_restacking_reference(values, tol):
    assert greedy_independent_rows(values, tol) == _reference_greedy(values, tol)


def test_greedy_scan_matches_the_reference_on_every_bundled_scan(scenarios, monkeypatch):
    # every matrix the pipeline scans on the bundled scenarios (regions,
    # composites and span checks), across the tolerance grid, 0.5 included
    scanned = []

    def recorded(values, tol):
        scanned.append(np.array(values, dtype=float))
        return greedy_independent_rows(values, tol)

    for module in (causaloid.backends, causaloid.tomographic):
        monkeypatch.setattr(module, "greedy_independent_rows", recorded)
    for name in SCENARIO_NAMES:
        run_pipeline(scenarios(name))
    assert len(scanned) >= 40
    for m in scanned:
        for tol in (1e-17, 1e-9, 1e-3, 0.5, 2.0):
            assert greedy_independent_rows(m, tol) == _reference_greedy(m, tol), (m.shape, tol)


def test_fiducial_set_is_deterministic(polariser_table):
    m = build_measurement_matrix(polariser_table, Region((1,)))
    o1 = find_fiducial_set(m)
    o2 = find_fiducial_set(m)
    assert o1 == o2
    assert o1.size == 5 and o1.parent_size == 8


def test_expansion_reconstructs_all_rows(polariser_entry):
    m, omega, lam = polariser_entry
    approx = lam.matrix @ m.values[list(omega.indices)]
    assert np.abs(approx - m.values).max() < 1e-8
    # fiducial rows are exact standard basis vectors, not merely close
    fid = lam.matrix[list(omega.indices)]
    assert np.array_equal(fid, np.eye(omega.size))


# two factor fiducial sets of sizes 2 and 1, and their product rows
_A = OmegaSet(Region((1,)), (0, 1), 3)
_B = OmegaSet(Region((3,)), (1,), 2)
_AB = product_rows((_A, _B))

# (constructor of an object whose row set disagrees with its parent rows,
# the ValueError message)
ROW_SET_FAULTS = {
    "tomographic-other-region": (
        lambda m, lam: TomographicLambda(
            lam.gamma, replace(lam.omega, region=Region((9,))), lam.matrix
        ),
        "fiducial set must index the labels of its region",
    ),
    "tomographic-other-label-count": (
        lambda m, lam: TomographicLambda(
            lam.gamma, replace(lam.omega, parent_size=lam.gamma.size + 1), lam.matrix
        ),
        "fiducial set must index the labels of its region",
    ),
    "tomographic-product-rows": (
        lambda m, lam: TomographicLambda(
            lam.gamma,
            replace(lam.omega, row_kind="omega-product", factors=(lam.region,),
                    dims=(lam.gamma.size,)),
            lam.matrix,
        ),
        "fiducial set must index the labels of its region",
    ),
    "compositional-wrong-dims": (
        lambda m, lam: CompositionalLambda((_A, _B), replace(_AB, dims=(1, 2)), np.eye(2)),
        "composite fiducial set must index the product of the factors' fiducial sets",
    ),
    "compositional-wrong-region": (
        lambda m, lam: CompositionalLambda(
            (_A, _B), replace(_AB, region=Region((1,))), np.eye(2)
        ),
        "composite fiducial set must index the product of the factors' fiducial sets",
    ),
    "measurement-matrix-wrong-size": (
        lambda m, lam: MeasurementMatrix(
            replace(m.rows, parent_size=m.n_rows + 1).every_row(), m.exteriors, m.values
        ),
        "the row set size must equal the row count",
    ),
}


@pytest.mark.parametrize("build, message", ROW_SET_FAULTS.values(), ids=ROW_SET_FAULTS)
def test_row_sets_must_match_their_parent_rows(polariser_entry, build, message):
    m, _, lam = polariser_entry
    assert CompositionalLambda((_A, _B), _AB, np.eye(2)).omega == _AB
    with pytest.raises(ValueError) as info:
        build(m, lam)
    assert str(info.value) == message


def test_expansion_rejects_non_spanning_rows():
    a = np.vstack([np.eye(3), np.ones((1, 3))])
    with pytest.raises(ResidualTooLarge):
        solve_expansion(a, (0,), 1e-8)


def test_full_rank_table_compresses_to_identity(scenarios):
    s = scenarios("classical_bit")
    table = build_prob_table(s.spec, s.regions)
    lam = build_causaloid(table).tomographic(s.regions[0])
    omega = lam.omega
    assert omega.indices == tuple(range(4))
    assert np.array_equal(lam.matrix, np.eye(4))


def test_r_vectors_pair_with_states(polariser_table, polariser_entry):
    m, omega, lam = polariser_entry
    for e in range(0, len(m.exteriors), 7):
        p = state_vector(m, omega, e)
        for i, label in enumerate(lam.gamma.labels):
            r = r_vector(label, lam)
            assert born_rule(r, p) == pytest.approx(
                float(m.values[i, e]), abs=1e-9
            )


def test_fiducial_r_vectors_are_basis_vectors(polariser_entry):
    _, omega, lam = polariser_entry
    for pos, row in enumerate(omega.indices):
        r = r_vector(lam.gamma.labels[row], lam)
        assert np.array_equal(r.components, np.eye(omega.size)[pos])


def test_born_rule_refuses_mixed_contexts(scenarios, polariser_entry):
    m, omega, lam = polariser_entry
    s = scenarios("classical_bit")
    table = build_prob_table(s.spec, s.regions)
    mb = build_measurement_matrix(table, s.regions[0])
    ob = find_fiducial_set(mb)
    foreign = state_vector(mb, ob, 0)
    r = r_vector(lam.gamma.labels[0], lam)
    with pytest.raises(ContextMismatch):
        born_rule(r, foreign)


def test_state_vector_bounds(polariser_entry):
    m, omega, _ = polariser_entry
    with pytest.raises(UnknownExterior):
        state_vector(m, omega, len(m.exteriors))


def test_clamp_probability():
    assert clamp_probability(1 + 1e-10) == 1.0
    assert clamp_probability(-1e-10) == 0.0
    assert clamp_probability(0.42) == 0.42
    with pytest.raises(ValueError):
        clamp_probability(1.1)


def test_fold_keeps_joint_weights(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    keep = (s.regions[0],)
    vals, exteriors = fold_to_exterior(table, keep)
    assert vals.shape == (4, table.values.size // 4)
    # folded exteriors against a full sweep: total mass is conserved
    assert vals.sum() == pytest.approx(float(table.values.sum()), abs=1e-9)
    # folded regions reappear as conditioning cards at their locations
    conditioned = {x for ext in exteriors for x, _ in ext.conditioning}
    assert {2, 3} <= conditioned


def test_fold_column_layout(scenarios):
    s = scenarios("spacelike_bits")
    table = build_prob_table(s.spec, s.regions)
    vals, exteriors = fold_to_exterior(table, (s.regions[0],))
    n_ext = len(table.exteriors)
    # original exterior axis varies fastest inside the folded axis
    g2 = table.gammas[1]
    for j in range(g2.size):
        for e in range(n_ext):
            assert vals[0, j * n_ext + e] == pytest.approx(
                float(table.values[0, j, e]), abs=0
            )


def _edge_matrices():
    # (fiducial indices, matrix): each matrix's fiducial rows are the 2 x 2
    # identity with one entry moved to an edge value
    tol_off = 1e-9
    tol_diag = 1e-9 + 1e-5
    edges = [
        (0, 1, math.nan), (0, 0, math.nan), (1, 0, math.inf), (1, 1, -math.inf),
        (0, 1, -0.0), (0, 0, -0.0),
        (0, 1, tol_off), (0, 1, np.nextafter(tol_off, 1.0)),
        (1, 0, -tol_off), (1, 0, np.nextafter(-tol_off, -1.0)),
        (0, 0, 1 + tol_diag), (0, 0, np.nextafter(1 + tol_diag, 2.0)),
        (1, 1, np.nextafter(1 - tol_diag, 1.0)), (1, 1, 1 - tol_diag),
        (1, 1, np.nextafter(1 - tol_diag, 0.0)),
    ]
    for i, j, value in edges:
        m = np.vstack([np.eye(2), [[0.5, 0.5]]])
        m[i, j] = value
        yield (0, 1), m
        # the same rows at non-leading fiducial indices
        yield (1, 2), m[[2, 0, 1]]
    yield (), np.empty((3, 0))


def test_expansion_check_agrees_with_allclose():
    # the check accepts exactly what np.allclose(sub, eye, atol=1e-9) does
    verdicts = set()
    for indices, m in _edge_matrices():
        omega = OmegaSet(Region((1,)), indices, 3)
        want = bool(np.allclose(m[list(indices)], np.eye(len(indices)), atol=1e-9))
        try:
            causaloid.tomographic.check_expansion(omega, m.copy())
            got = True
        except ValueError as exc:
            assert str(exc) == "fiducial rows must form the identity"
            got = False
        assert got == want, (indices, m)
        verdicts.add(got)
    assert verdicts == {True, False}


def test_omega_sets_order_and_hash_as_built():
    # a set built by replace hashes as a freshly built one; fiducial
    # indices must increase strictly
    for o in (_A, _B, _AB):
        for indices in ((), (0,), tuple(range(o.parent_size))):
            moved = replace(o, indices=indices)
            fresh = OmegaSet(o.region, indices, o.parent_size, o.row_kind, o.factors, o.dims)
            assert moved == fresh and hash(moved) == hash(fresh)
    assert len({_A, replace(_A, indices=(0, 1)), _A.every_row()}) == 2
    for bad in ((1, 1), (0, 2, 1), (2, 0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            OmegaSet(Region((1,)), bad, 3)


# tolerances of the rejection-run property: at 1e-15 the screen's rounding
# bound is never below tol, and at 1e-13 only for narrow rows and a small
# basis, so there the rows go to the per-row path
_SCREEN_TOLERANCES = (1e-15, 1e-13, 1e-11, 1e-9, 1e-6, 1e-3, 0.5)


@st.composite
def _rejection_run_matrices(draw):
    """40-200 rows drawn from a planted rank-r span, most of them in long
    rejection runs: all-zero rows, exact repeats of earlier rows, rows
    inside the span, and rows whose residual is planted within a few ulps
    of ``tol * max(1, |row|)`` for one of ``_SCREEN_TOLERANCES``. Rows of
    the span are scaled by 10**k for k in -3..3."""
    n_cols = draw(st.integers(2, 16))
    rank = draw(st.integers(1, n_cols - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # orthonormal rows: the first ``rank`` span the planted rows, the
    # others are directions outside it
    q = np.linalg.qr(rng.normal(size=(n_cols, n_cols)))[0].T
    span = q[:rank]
    n_rows = draw(st.integers(40, 200))
    tol = draw(st.sampled_from(_SCREEN_TOLERANCES))
    kinds = ["span"] * rank + draw(st.lists(
        st.sampled_from(["zero", "repeat", "span", "planted"]),
        min_size=n_rows - rank, max_size=n_rows - rank,
    ))
    rows = []
    for kind in kinds:
        scale = 10.0 ** int(rng.integers(-3, 4))
        if kind == "zero":
            rows.append(np.zeros(n_cols))
        elif kind == "repeat" and rows:
            rows.append(rows[int(rng.integers(len(rows)))].copy())
        elif kind == "planted":
            v = scale * (rng.normal(size=rank) @ span)
            # a few ulps of the bound itself, or of max(1, |v|), which is
            # the size of the projections' rounding error
            unit = max(1.0, float(np.linalg.norm(v))) * np.finfo(float).eps
            step = unit * (tol, 1.0, 8.0)[int(rng.integers(3))]
            target = tol * unit / np.finfo(float).eps + int(rng.integers(-8, 9)) * step
            rows.append(v + target * q[int(rng.integers(rank, n_cols))])
        else:
            rows.append(scale * (rng.normal(size=rank) @ span))
    return np.array(rows), tol


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_rejection_run_matrices())
def test_screened_rejection_runs_match_the_reference(case):
    values, tol = case
    assert greedy_independent_rows(values, tol) == _reference_greedy(values, tol)


# the tolerances of test_greedy_scan_matches_the_reference_on_every_bundled_scan
_BUNDLED_TOLERANCES = (1e-17, 1e-9, 1e-3, 0.5, 2.0)


def _bundled_scan_mismatches() -> list[str]:
    """Every matrix the pipeline scans on the bundled scenarios (regions,
    composites and span checks) on which the scan and ``_reference_greedy``
    disagree at one of ``_BUNDLED_TOLERANCES``, as "shape tol"."""
    scanned = []
    greedy = {m: m.greedy_independent_rows for m in (causaloid.backends, causaloid.tomographic)}

    def recorded(values, tol):
        scanned.append(np.array(values, dtype=float))
        return greedy_independent_rows(values, tol)

    for module in greedy:
        module.greedy_independent_rows = recorded
    try:
        for name in SCENARIO_NAMES:
            run_pipeline(parse_scenario(scenario_path(name)))
    finally:
        for module, scan in greedy.items():
            module.greedy_independent_rows = scan
    assert len(scanned) >= 40
    return [
        f"{m.shape} {tol}"
        for m in scanned
        for tol in _BUNDLED_TOLERANCES
        if greedy_independent_rows(m, tol) != _reference_greedy(m, tol)
    ]


def _kernel_scan_check() -> dict:
    """This process's kernel, and ``_bundled_scan_mismatches``."""
    return {"core": _openblas_core(), "mismatches": _bundled_scan_mismatches()}


# runs _kernel_scan_check in a child process (see second_kernel_run)
SCAN_CHILD = (
    "import json, sys; sys.path[:0] = sys.argv[1:]; "
    "import test_tomographic; print(json.dumps(test_tomographic._kernel_scan_check()))"
)


def test_screened_scan_matches_the_reference_on_a_second_kernel():
    # the block screen decides as the per-row path does on another OpenBLAS
    # kernel too, chosen for the child process only
    _, theirs = second_kernel_run(SCAN_CHILD)
    assert theirs["mismatches"] == []


def _composite_scans(scenario):
    """The composite measurement matrices ``build_causaloid`` scans on one
    parsed scenario, by the number of factors of their keys."""
    found = {}
    find = causaloid.causaloid.find_fiducial_set

    def recorded(matrix, tol):
        if matrix.rows.row_kind == "omega-product":
            found[len(matrix.rows.factors)] = (np.array(matrix.values), tol)
        return find(matrix, tol)

    causaloid.causaloid.find_fiducial_set = recorded
    try:
        build_causaloid(build_prob_table(scenario.spec, scenario.regions),
                        composites=scenario.composites)
    finally:
        causaloid.causaloid.find_fiducial_set = find
    return found


@pytest.mark.parametrize("name, factors, rows_read, per_row, kept", [
    # without the screen, every row read takes the per-row path
    ("adjacent_gates", 2, 200, 35, 16),
    ("polariser_chain", 3, 125, 17, 9),
])
def test_screen_spares_the_per_row_path_in_composite_scans(
    scenarios, monkeypatch, name, factors, rows_read, per_row, kept
):
    # pins how many rows take the per-row projections, so a screen that
    # stops firing fails here
    values, tol = _composite_scans(scenarios(name))[factors]
    calls = []
    residual = causaloid.tables._residual

    def counted(basis, basis_t, v):
        calls.append(v)
        return residual(basis, basis_t, v)

    monkeypatch.setattr(causaloid.tables, "_residual", counted)
    chosen = greedy_independent_rows(values, tol)
    assert chosen == _reference_greedy(values, tol)
    # the scan stops at its full-rank row, or reads every row
    read = chosen[-1] + 1 if len(chosen) == values.shape[1] else len(values)
    assert (len(chosen), read, len(calls)) == (kept, rows_read, per_row)


def _lstsq_expansion(values, indices, tol):
    """``solve_expansion`` as the least-squares solve alone, with no
    shortcut for a full fiducial set."""
    idx = list(indices)
    fid = values[idx]
    coeff, *_ = np.linalg.lstsq(fid.T, values.T, rcond=None)
    lam = coeff.T
    lam[idx] = np.eye(len(idx))
    resid = np.linalg.norm(lam @ fid - values, axis=1)
    if (resid > tol * np.maximum(1.0, np.linalg.norm(values, axis=1))).any():
        raise ResidualTooLarge("the fiducial set does not span")
    return lam


def _layout(a):
    return a.shape, a.strides, a.flags.c_contiguous, a.flags.f_contiguous, a.tobytes()


def test_full_fiducial_sets_skip_the_solve_with_the_same_bytes(scenarios, monkeypatch):
    solves = []
    solve = causaloid.causaloid.solve_expansion

    def recorded(values, indices, tol):
        solves.append((np.array(values), tuple(indices), tol))
        return solve(values, indices, tol)

    monkeypatch.setattr(causaloid.causaloid, "solve_expansion", recorded)
    for name in SCENARIO_NAMES:
        run_pipeline(scenarios(name))
    full = [s for s in solves if s[1] == tuple(range(len(s[0])))]
    assert len(solves) == 23 and len(full) == 10
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    for values, indices, tol in full:
        want = _lstsq_expansion(values, indices, tol)
        assert len(calls) == 1
        assert _layout(solve_expansion(values, indices, tol)) == _layout(want)
        assert len(calls) == 1
        calls.clear()


def test_other_fiducial_sets_still_solve(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    a = np.random.default_rng(3).random((3, 5))
    nan, inf = a.copy(), a.copy()
    nan[1, 2], inf[2, 0] = math.nan, math.inf
    cases = [(a, (2, 0, 1), 1e-8), (a, (1, 0, 2), 1e-8), (a, (0, 1), 1.0),
             (nan, (0, 1, 2), 1e-8), (inf, (0, 1, 2), 1e-8), (a, (0, 1, 2), -1.0)]
    for values, indices, tol in cases:
        outcomes = []
        for solve in (solve_expansion, _lstsq_expansion):
            try:
                outcomes.append(_layout(solve(values, indices, tol)))
            except (np.linalg.LinAlgError, ResidualTooLarge) as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], (indices, tol)
        assert len(calls) == 2, (indices, tol)
        calls.clear()
