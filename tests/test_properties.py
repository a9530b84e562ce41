"""Property tests on generated classical chains and mutated scenario documents.

The chains carry random stochastic kernels (``kernel_family``) on one or two
chains of one to three locations, split into random regions; each generated
arrangement is compressed and checked against the exact oracle
``joint_prob``, every well-defined herald on it against the table's
direct conditionals, and its expansions for order symmetry and basis-change
invariance. The span check's cut ranks are checked against the
extended-exterior table on those chains and on two-location qubit chains of
random Kraus instruments (``kraus_family``), which the reconstruction check
draws as well. The documents are the bundled
scenarios with random edits; parsing one either succeeds or raises a
``CausaloidError``. Examples are derandomized, so every run checks the same
cases.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from causaloid import (
    Chain,
    ClassicalSpec,
    HeraldQuery,
    QuantumSpec,
    Region,
    adjacency_graph,
    build_causaloid,
    build_measurement_matrix,
    build_prob_table,
    causaloid_product,
    change_omega_basis,
    complete_effect,
    conditional_from_table,
    conditional_sweep,
    fold_to_exterior,
    herald,
    ic_effects,
    ic_preparations,
    joint_fiducial_matrix,
    joint_prob,
    kernel_family,
    kraus_family,
    r_vector,
)
from causaloid.errors import CausaloidError, SingularTransform, ZeroDenominatorVector
from causaloid.tables import greedy_independent_rows
from causaloid.scenario import parse_scenario_dict

from conftest import SCENARIO_NAMES, scenario_path
from test_backends import _random_instrument, assert_cut_spans_match_the_table


def _settings(examples: int):
    return settings(
        max_examples=examples,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )


# -- generated classical chains ----------------------------------------------

def _family(rng, location: int, size: int, outcomes_per_action, resets=False):
    """Per action a random column-stochastic kernel split into outcomes.

    With ``resets``, about half the actions instead read the input with a
    random outcome split and emit one random state whatever they read, so
    the chain's past and future decouple there.
    """
    actions = []
    for n in outcomes_per_action:
        if resets and rng.random() < 0.5:
            read = rng.random((n, size))
            read /= read.sum(axis=0)
            state = rng.random(size)
            state /= state.sum()
            actions.append([np.outer(state, row) for row in read])
            continue
        kernel = rng.random((size, size))
        kernel /= kernel.sum(axis=0)
        split = rng.random((n, size, size))
        split /= split.sum(axis=0)
        actions.append([kernel * part for part in split])
    return kernel_family(location, size, actions)


@st.composite
def arrangements(
    draw, n_chains=st.integers(1, 2), straddle=True, resets=False, labels=2
):
    """A classical spec with random kernels, each chain wired in a drawn
    order (not only sorted), and a random region partition.

    With ``straddle`` false every region stays on one chain; ``resets`` is
    passed to ``_family``. Each location has up to ``labels`` actions of up
    to ``labels`` outcomes each.
    """
    lengths = [draw(st.integers(1, 3)) for _ in range(draw(n_chains))]
    owners = draw(st.permutations([c for c, n in enumerate(lengths) for _ in range(n)]))
    sizes = [draw(st.integers(2, 3)) for _ in lengths]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wires = [
        draw(st.permutations([x + 1 for x, o in enumerate(owners) if o == c]))
        for c in range(len(lengths))
    ]
    chains = tuple(Chain(f"c{c}", sizes[c], tuple(w)) for c, w in enumerate(wires))
    instruments = tuple(
        _family(
            rng,
            x + 1,
            sizes[owner],
            draw(st.lists(st.integers(1, labels), min_size=1, max_size=labels)),
            resets,
        )
        for x, owner in enumerate(owners)
    )
    spec = ClassicalSpec(
        chains=chains,
        instruments=instruments,
        preparations=tuple(ic_preparations("classical", d) for d in sizes),
        effects=tuple(ic_effects("classical", d) for d in sizes),
    )
    # region ids per location; ids are namespaced by chain unless regions
    # may straddle chains
    ids = [
        draw(st.integers(0, 2)) if straddle else (owner, draw(st.integers(0, 2)))
        for owner in owners
    ]
    regions = tuple(
        sorted(
            (
                Region(tuple(x + 1 for x, i in enumerate(ids) if i == rid))
                for rid in set(ids)
            ),
            key=lambda r: r.locations,
        )
    )
    return spec, regions, int(rng.integers(2**32))


@st.composite
def kraus_chains(draw, actions=2):
    """A two-location qubit chain of random Kraus instruments (up to
    ``actions`` actions of up to three outcomes each per location), probed
    on one location, on both as two regions, or as one region, with a seed
    as ``arrangements`` draws one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instruments = tuple(
        kraus_family(x, 2, [
            _random_instrument(rng, 2, n)
            for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=actions))
        ])
        for x in (1, 2)
    )
    complete = (complete_effect("quantum", 2),) if draw(st.booleans()) else ()
    spec = QuantumSpec(
        chains=(Chain("qubit", 2, (1, 2)),),
        instruments=instruments,
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2) + complete,),
    )
    regions = draw(st.sampled_from([
        [Region((1,))], [Region((2,))], [Region((1,)), Region((2,))], [Region((1, 2))],
    ]))
    return spec, regions, int(rng.integers(2**32))


def _compressed(arrangement):
    spec, regions, seed = arrangement
    table = build_prob_table(spec, regions)
    return spec, table, build_causaloid(table), np.random.default_rng(seed)


@_settings(35)
@given(st.one_of(arrangements(labels=3), kraus_chains(actions=4)))
def test_reconstruction_matches_the_oracle(arrangement):
    # classical chains with up to nine labels per location, and qubit
    # chains with up to twelve, whose two locations together exceed the
    # rank of 16; some entry must compress, since identity expansions
    # would reconstruct trivially
    spec, table, c, rng = _compressed(arrangement)
    omegas = [c.omega_of(r) for r in c.regions] + [e.omega for _, e in c.composites]
    assume(any(omega.size < omega.parent_size for omega in omegas))
    for region in c.regions:
        entry = c.tomographic(region)
        m = build_measurement_matrix(table, region)
        rebuilt = entry.matrix @ m.values[list(entry.omega.indices)]
        assert np.abs(rebuilt - m.values).max() <= 1e-8
        for _ in range(20):
            i = int(rng.integers(rebuilt.shape[0]))
            j = int(rng.integers(rebuilt.shape[1]))
            want = joint_prob(spec, {region: entry.gamma.labels[i]}, m.exteriors[j])
            assert abs(rebuilt[i, j] - want) <= 1e-8
    # every pair entry expands its fiducial rows back to the whole product
    for key, entry in c.composites:
        joint = joint_fiducial_matrix(table, [c.omega_of(r) for r in key])
        rebuilt = entry.matrix @ joint.values[list(entry.omega.indices)]
        assert np.abs(rebuilt - joint.values).max() <= 1e-8


def _chains_of(spec, region):
    return {spec.chain_of(x).name for x in region.locations}


@_settings(15)
@given(arrangements(n_chains=st.just(2), straddle=False))
def test_different_chain_pairs_are_never_adjacent(arrangement):
    spec, table, c, _ = _compressed(arrangement)
    for pair in adjacency_graph(c, table).pairs:
        if not _chains_of(spec, pair.first) & _chains_of(spec, pair.second):
            assert not pair.adjacent
            assert pair.composite_size == pair.product_size


@_settings(15)
@given(arrangements(n_chains=st.just(2), straddle=False))
def test_full_composite_product_is_the_outer_product(arrangement):
    _, _, c, _ = _compressed(arrangement)
    for (ra, rb), entry in c.composites:
        if entry.omega.size != entry.omega.parent_size:
            continue
        la, lb = c.tomographic(ra), c.tomographic(rb)
        for i, j in itertools.product(range(la.gamma.size), range(lb.gamma.size)):
            a = r_vector(la.gamma.labels[i], la)
            b = r_vector(lb.gamma.labels[j], lb)
            outer = np.multiply.outer(a.components, b.components).reshape(-1)
            for product in (causaloid_product(a, b, c), causaloid_product(b, a, c)):
                assert np.abs(product.components - outer).max() <= 1e-12


@_settings(40)
@given(arrangements(resets=True))
def test_well_defined_heralds_match_the_table_conditional(arrangement):
    # a well-defined herald's p is the direct conditional at every exterior
    # where the conditioning event has weight, and an ill-defined one has
    # a witness pair of exteriors whose conditionals differ; queries name
    # one region or an ordered pair, which the default registry covers
    _, table, c, rng = _compressed(arrangement)
    named = [(r,) for r in c.regions] + list(itertools.permutations(c.regions, 2))
    for regions in named:
        for _ in range(3):
            picks = []
            for r in regions:
                labels = c.tomographic(r).gamma.labels
                picks.append((r, labels[int(rng.integers(len(labels)))]))
            query = HeraldQuery.from_labels(picks[0], picks[1:])
            try:
                result = herald(c, query, table=table)
            except ZeroDenominatorVector:
                continue
            if not result.well_defined:
                (_, high), (_, low) = result.witness
                assert high - low > 1e-8
                continue
            for j, (_, p) in enumerate(conditional_sweep(table, query)):
                if p is not None:
                    assert abs(conditional_from_table(table, query, j) - result.p) <= 1e-8


@_settings(25)
@given(arrangements(n_chains=st.just(1), labels=3))
def test_expansion_order_symmetry(arrangement):
    # expanding the fiducial block P of two regions first over one region
    # and then over the other gives the same table either way: the folded
    # table, which neither expansion saw as a whole. Up to nine labels per
    # location make some regions compress; identity expansions would make
    # the check hold trivially
    _, table, c, _ = _compressed(arrangement)
    lams = [c.tomographic(r) for r in c.regions]
    assume(len(lams) > 1 and any(lam.omega.size < lam.gamma.size for lam in lams))
    for a, b in itertools.permutations(c.regions, 2):
        la, lb = c.tomographic(a), c.tomographic(b)
        folded, _ = fold_to_exterior(table, [a, b])
        p = folded[np.ix_(la.omega.indices, lb.omega.indices)]
        a_first = np.einsum("jb,ibe->ije", lb.matrix, np.einsum("ia,abe->ibe", la.matrix, p))
        b_first = np.einsum("ia,aje->ije", la.matrix, np.einsum("jb,abe->aje", lb.matrix, p))
        assert np.abs(a_first - b_first).max() <= 1e-9
        assert np.abs(a_first - folded).max() <= 1e-9


def _changes_basis(arrangement) -> bool:
    """Re-express every entry over the fiducial rows a reverse scan picks.

    Returns whether some entry's basis actually changed; arrangements
    where no entry has a second basis are not counted.
    """
    _, table, c, rng = _compressed(arrangement)
    # only an entry with fewer fiducial rows than rows has another basis
    assume(any(c.omega_of(k).size < c.omega_of(k).parent_size for k in c.keys()))
    changed = False
    for key in c.keys():
        entry = c.entry(key)
        if isinstance(key, Region):
            values = build_measurement_matrix(table, key).values
        else:
            values = joint_fiducial_matrix(table, [c.omega_of(r) for r in key]).values
        n = values.shape[0]
        reverse = greedy_independent_rows(values[::-1], 1e-9)
        new_omega = dataclasses.replace(
            entry.omega, indices=tuple(sorted(n - 1 - i for i in reverse))
        )
        try:
            moved = change_omega_basis(entry, new_omega)
        except SingularTransform:
            continue
        # the round trip is exact up to float error relative to the matrix:
        # expansion coefficients reach the thousands on near-dependent rows
        back = change_omega_basis(moved, entry.omega)
        scale = max(1.0, float(np.abs(entry.matrix).max()))
        assert np.abs(back.matrix - entry.matrix).max() <= 1e-9 * scale
        cols = rng.integers(values.shape[1], size=20)
        old = entry.matrix @ values[np.ix_(entry.omega.indices, cols)]
        new = moved.matrix @ values[np.ix_(new_omega.indices, cols)]
        assert np.abs(old - new).max() <= 1e-9
        changed |= new_omega != entry.omega
    return changed


def test_basis_change_invariance():
    # a prediction does not depend on which fiducial rows carry it; the
    # alternative set comes from scanning the rows in reverse, and most
    # arrangements that admit another basis must really move to one
    changed = []

    @_settings(25)
    @given(arrangements())
    def check(arrangement):
        changed.append(_changes_basis(arrangement))

    check()
    assert sum(changed) > len(changed) / 2


@_settings(40)
@given(arrangements(), st.data())
def test_cut_spans_match_the_extended_table(arrangement, data):
    # regions may straddle chains and skip locations; a subset of them
    # leaves the other locations unprobed
    spec, regions, _ = arrangement
    probed = data.draw(st.lists(st.sampled_from(regions), min_size=1, unique=True))
    assert_cut_spans_match_the_table(spec, probed, (1e-9, 0.5))


@_settings(20)
@given(kraus_chains(actions=4))
def test_cut_spans_match_the_extended_table_on_kraus_chains(chain):
    spec, regions, _ = chain
    assert_cut_spans_match_the_table(spec, regions, (1e-9, 0.5))


# -- mutated scenario documents ----------------------------------------------

BUNDLED = {
    name: json.loads(Path(scenario_path(name)).read_text()) for name in SCENARIO_NAMES
}
# small values only: a document may legally ask for a large chain, and
# building one is slow rather than wrong
ODD_VALUES = (
    None, True, 0, -1, 1, 3, 99, 1.5, "", "R1", "polariser", [], {}, [1, 1], [-1],
    [[1]], ["R1", "R1"], {"x": 1},
)


def _paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    doc = copy.deepcopy(BUNDLED[draw(st.sampled_from(SCENARIO_NAMES))])
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([p for p in _paths(doc) if p]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(("replace", "delete", "add")))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if edit == "replace":
            parent[path[-1]] = value
        elif edit == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
    return doc


@_settings(300)
@given(mutated_documents())
def test_mutated_documents_fail_only_with_schema_errors(doc):
    try:
        parse_scenario_dict(doc)
    except CausaloidError:
        pass
