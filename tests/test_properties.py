"""Property tests on generated classical chains and mutated scenario documents.

The chains carry random stochastic kernels (``kernel_family``) on one or two
chains of one to three locations, split into random regions; each generated
arrangement is compressed and checked against the exact oracle
``joint_prob``, and every well-defined herald on it against the table's
direct conditionals. The span check's cut ranks are checked against the
extended-exterior table on those chains and on two-location qubit chains of
random Kraus instruments (``kraus_family``). The documents are the bundled
scenarios with random edits; parsing one either succeeds or raises a
``CausaloidError``. Examples are derandomized, so every run checks the same
cases.
"""
from __future__ import annotations

import copy
import itertools
import json
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
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
    complete_effect,
    conditional_from_table,
    conditional_sweep,
    herald,
    ic_effects,
    ic_preparations,
    joint_prob,
    kernel_family,
    kraus_family,
    r_vector,
)
from causaloid.errors import CausaloidError, ZeroDenominatorVector
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
def arrangements(draw, n_chains=st.integers(1, 2), straddle=True, resets=False):
    """A classical spec with random kernels and a random region partition.

    With ``straddle`` false every region stays on one chain; ``resets`` is
    passed to ``_family``.
    """
    lengths = [draw(st.integers(1, 3)) for _ in range(draw(n_chains))]
    owners = draw(st.permutations([c for c, n in enumerate(lengths) for _ in range(n)]))
    sizes = [draw(st.integers(2, 3)) for _ in lengths]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chains = tuple(
        Chain(f"c{c}", sizes[c], tuple(x + 1 for x, o in enumerate(owners) if o == c))
        for c in range(len(lengths))
    )
    instruments = tuple(
        _family(
            rng,
            x + 1,
            sizes[owner],
            draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)),
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


def _compressed(arrangement):
    spec, regions, seed = arrangement
    table = build_prob_table(spec, regions)
    return spec, table, build_causaloid(table), np.random.default_rng(seed)


@_settings(25)
@given(arrangements())
def test_reconstruction_matches_the_oracle(arrangement):
    spec, table, c, rng = _compressed(arrangement)
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


@st.composite
def kraus_chains(draw):
    """A two-location qubit chain of random Kraus instruments, probed on
    one location, on both as two regions, or as one region."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    instruments = tuple(
        kraus_family(x, 2, [
            _random_instrument(rng, 2, n)
            for n in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
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
    return spec, regions


@_settings(40)
@given(arrangements(), st.data())
def test_cut_spans_match_the_extended_table(arrangement, data):
    # regions may straddle chains and skip locations; a subset of them
    # leaves the other locations unprobed
    spec, regions, _ = arrangement
    probed = data.draw(st.lists(st.sampled_from(regions), min_size=1, unique=True))
    assert_cut_spans_match_the_table(spec, probed, (1e-9, 0.5))


@_settings(20)
@given(kraus_chains())
def test_cut_spans_match_the_extended_table_on_kraus_chains(chain):
    spec, regions = chain
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
