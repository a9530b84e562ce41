"""Second-level compression: composite fiducial sets and causal adjacency."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from causaloid import (
    CompositionalLambda,
    OmegaSet,
    Region,
    adjacency_graph,
    build_causaloid,
    build_measurement_matrix,
    build_prob_table,
    causaloid_from_dict,
    causaloid_to_dict,
    find_fiducial_set,
    fold_to_exterior,
    joint_fiducial_matrix,
)
from causaloid import compositional, tomographic
from causaloid.causaloid import _leaf_rows
from causaloid.compositional import fiducial_rows_matrix, product_leaf_rows, product_rows
from causaloid.errors import DegenerateExterior, SchemaError
from causaloid.tables import ExteriorAxis, GammaSet, ProbTable

from conftest import SCENARIO_NAMES


def _omegas(table, regions):
    return [
        find_fiducial_set(build_measurement_matrix(table, r)) for r in regions
    ]


def _full_product_entry(*factor_omegas):
    """The identity entry over the full product of ``factor_omegas``."""
    dims = tuple(o.size for o in factor_omegas)
    n = int(np.prod(dims))
    omega = OmegaSet(
        region=Region(itertools.chain(*(o.region for o in factor_omegas))),
        indices=tuple(range(n)),
        parent_size=n,
        row_kind="omega-product",
        factors=tuple(o.region for o in factor_omegas),
        dims=dims,
    )
    return CompositionalLambda(factor_omegas, omega, np.eye(n))


# (edit of one entry's factor fiducial sets in a registry document, the
# message of the ValueError it raises)
FACTOR_FAULTS = (
    (lambda fs: fs[::-1], "ordered by least location"),
    (lambda fs: [fs[0], dict(fs[1], region=fs[0]["region"])], "pairwise disjoint"),
    (lambda fs: fs[:1], "at least two constituents"),
)


def test_composite_region_validation(scenarios):
    a = OmegaSet(Region((1,)), (0, 1), 2)
    b = OmegaSet(Region((3,)), (0,), 1)
    entry = _full_product_entry(a, b)
    assert entry.region == Region((1, 3))
    assert entry.product_size == 2
    overlapping = OmegaSet(Region((1, 2)), (0,), 1)
    for factors, message in (
        ((b, a), "ordered by least location"),
        ((a, overlapping), "pairwise disjoint"),
        ((a,), "at least two constituents"),
    ):
        with pytest.raises(ValueError, match=message):
            _full_product_entry(*factors)
    # the same faults in a loaded registry file are schema errors
    s = scenarios("spacelike_bits")
    doc = causaloid_to_dict(build_causaloid(build_prob_table(s.spec, s.regions)))
    for edit, message in FACTOR_FAULTS:
        item = doc["composites"][0]
        bad = dict(doc, composites=[dict(item, factor_omegas=edit(item["factor_omegas"]))])
        with pytest.raises(SchemaError, match=message):
            causaloid_from_dict(bad)
    omega = dict(item["omega"], region=item["factor_omegas"][0]["region"])
    with pytest.raises(SchemaError, match="product of the factors' fiducial sets"):
        causaloid_from_dict(dict(doc, composites=[dict(item, omega=omega)]))


def test_joint_rows_last_factor_fastest(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    o1, o2, _ = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    assert joint.rows.row_kind == "omega-product"
    assert joint.rows.dims == (o1.size, o2.size)
    assert joint.values.shape[0] == o1.size * o2.size
    # row (i, j) sits at flat position i * |omega2| + j
    folded, _ = fold_to_exterior(table, [o1.region, o2.region])
    rows = itertools.product(range(o1.size), range(o2.size))
    for flat, (i, j) in enumerate(rows):
        want = folded[o1.indices[i], o2.indices[j]]
        assert np.array_equal(joint.values[flat], want)


def test_joint_rows_match_folded_table(scenarios):
    s = scenarios("spacelike_bits")
    table = build_prob_table(s.spec, s.regions)
    o1, o2 = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    rows = itertools.product(range(o1.size), range(o2.size))
    for flat, (i, j) in enumerate(rows):
        g1_row, g2_row = o1.indices[i], o2.indices[j]
        expect = table.values[g1_row, g2_row, :]
        assert np.array_equal(joint.values[flat], expect)


def test_composite_omega_is_a_product_subset(scenarios):
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    o1, o2, o3 = _omegas(table, s.regions)
    for pair in ([o1, o2], [o1, o3], [o2, o3]):
        joint = joint_fiducial_matrix(table, pair)
        comp = find_fiducial_set(joint)
        assert comp.parent_size == pair[0].size * pair[1].size
        assert set(comp.indices) <= set(range(comp.parent_size))
        assert comp.size <= comp.parent_size


def test_composite_expansion_reconstructs(scenarios):
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    r1, r2, _ = s.regions
    o1, o2, _ = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    entry = build_causaloid(table).entry((r1, r2))
    comp = entry.omega
    assert comp == find_fiducial_set(joint)
    approx = entry.matrix @ joint.values[list(comp.indices)]
    assert np.abs(approx - joint.values).max() < 1e-8
    assert np.array_equal(
        entry.matrix[list(comp.indices)], np.eye(comp.size)
    )
    assert entry.factor_omegas == (o1, o2)
    assert entry.region == Region((1, 2))
    with pytest.raises(ValueError, match="ordered by least location"):
        CompositionalLambda(factor_omegas=(o2, o1), omega=comp, matrix=entry.matrix)


def test_adjacency_strictness(scenarios):
    s = scenarios("spacelike_bits")
    table = build_prob_table(s.spec, s.regions)
    o1, o2 = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    comp = find_fiducial_set(joint)
    assert comp.size == comp.parent_size  # equality, not shrinkage


def test_adjacency_graph_chain(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    # an empty registry: every pair is compressed by adjacency_graph itself
    graph = adjacency_graph(build_causaloid(table, composites=()), table)
    by_pair = {
        (str(p.first), str(p.second)): (p.composite_size, p.product_size, p.adjacent)
        for p in graph.pairs
    }
    assert by_pair[("{1}", "{2}")] == (4, 16, True)
    assert by_pair[("{1}", "{3}")] == (16, 16, False)
    assert by_pair[("{2}", "{3}")] == (4, 16, True)
    r1, r2, r3 = s.regions
    assert graph.edges == ((r1, r2), (r2, r3))


def test_adjacency_graph_polariser(scenarios, pipelines):
    p = pipelines("polariser_chain").payload
    sizes = {
        tuple(c["key"]): (c["omega_size"], c["product_size"])
        for c in p["composites"]
    }
    assert sizes[("R1", "R2")] == (9, 25)
    assert sizes[("R1", "R3")] == (25, 25)
    assert sizes[("R2", "R3")] == (9, 25)
    assert sizes[("R1", "R2", "R3")] == (9, 125)
    assert p["adjacency"]["edges"] == [["R1", "R2"], ["R2", "R3"]]


def test_single_exterior_is_degenerate():
    r1, r2 = Region((1,)), Region((2,))
    g1 = GammaSet(r1, (((0,), (0,)), ((0,), (1,))))
    g2 = GammaSet(r2, (((0,), (0,)), ((0,), (1,))))
    table = ProbTable(
        gammas=(g1, g2),
        exteriors=ExteriorAxis(
            folded=(), preparations=(1,), conditioning=(), effects=((True,),)
        ),
        values=np.array([[[0.25], [0.25]], [[0.25], [0.25]]]),
    )
    assert table.regions == (r1, r2)  # derived from the gamma sets
    o1 = find_fiducial_set(build_measurement_matrix(table, r1))
    o2 = find_fiducial_set(build_measurement_matrix(table, r2))
    with pytest.raises(DegenerateExterior):
        joint_fiducial_matrix(table, [o1, o2])


def test_adjacency_compresses_only_pairs_missing_from_the_registry(
    scenarios, monkeypatch
):
    import causaloid.compositional as comp

    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    r1, r2, r3 = s.regions
    calls = []
    original = comp.find_fiducial_set

    def counted(*args, **kwargs):
        calls.append(args[0].rows.factors)
        return original(*args, **kwargs)

    monkeypatch.setattr(comp, "find_fiducial_set", counted)
    full = adjacency_graph(build_causaloid(table), table)
    assert calls == []
    partial = adjacency_graph(build_causaloid(table, composites=[(r1, r2)]), table)
    assert calls == [(r1, r3), (r2, r3)]
    assert partial.pairs == full.pairs
    assert partial.edges == ((r1, r2), (r2, r3))


def test_composite_rows_fold_no_table(scenarios, monkeypatch):
    # composite rows are gathered from the table's folded view: with every
    # whole-table fold refused, each bundled composite and flat pair gets
    # the C-ordered bytes a fold followed by a gather gives
    cases = []
    for name in SCENARIO_NAMES:
        s = scenarios(name)
        table = build_prob_table(s.spec, s.regions)
        c = build_causaloid(table, s.composites or None)
        entries = {**dict(zip(c.regions, c.elementary)), **dict(c.composites)}
        for key, entry in c.composites:
            parts = [_leaf_rows(entries, child) for child in key]
            leaves, rows = product_leaf_rows(parts, product_rows(entry.factor_omegas))
            vals, exteriors = fold_to_exterior(table, leaves)
            want = np.ascontiguousarray(vals[tuple(rows.T)])
            cases.append((fiducial_rows_matrix, (table, parts, entry.factor_omegas),
                          want, exteriors))
        for a, b in itertools.combinations(c.regions, 2):
            oa, ob = c.omega_of(a), c.omega_of(b)
            vals, exteriors = fold_to_exterior(table, (a, b))
            want = np.ascontiguousarray(
                vals[np.ix_(oa.indices, ob.indices)].reshape(oa.size * ob.size, -1)
            )
            cases.append((joint_fiducial_matrix, (table, [oa, ob]), want, exteriors))

    def refuse(*args, **kwargs):
        raise AssertionError("composite rows folded the whole table")

    for module in (tomographic, compositional):
        monkeypatch.setattr(module, "fold_to_exterior", refuse, raising=False)
    assert len(cases) > 9
    for build, args, want, exteriors in cases:
        if len(exteriors) < 2:
            with pytest.raises(DegenerateExterior):
                build(*args)
            continue
        got = build(*args)
        assert got.exteriors == exteriors
        assert got.values.flags.c_contiguous
        assert got.values.shape == want.shape and got.values.tobytes() == want.tobytes()
