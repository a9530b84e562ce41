"""Second-level compression: composite fiducial sets and causal adjacency."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from causaloid import (
    CompositeRegion,
    CompositionalLambda,
    Region,
    adjacency_graph,
    build_causaloid,
    build_measurement_matrix,
    build_prob_table,
    compute_compositional_lambda,
    find_composite_omega,
    find_fiducial_set,
    joint_fiducial_matrix,
)
from causaloid.errors import DegenerateExterior
from causaloid.tables import ExteriorAxis, GammaSet, ProbTable


def _omegas(table, regions):
    return [
        find_fiducial_set(build_measurement_matrix(table, r)) for r in regions
    ]


def test_composite_region_validation():
    a, b = Region((1,)), Region((3,))
    comp = CompositeRegion((a, b))
    assert comp.union == Region((1, 3))
    assert str(comp) == "{1}+{3}"
    with pytest.raises(ValueError):
        CompositeRegion((b, a))  # out of order
    with pytest.raises(ValueError):
        CompositeRegion((a, Region((1, 2))))  # overlap
    with pytest.raises(ValueError):
        CompositeRegion((a,))


def test_joint_rows_last_factor_fastest(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    o1, o2, _ = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    assert joint.row_kind == "omega-product"
    assert joint.dims == (o1.size, o2.size)
    rows = list(itertools.product(range(o1.size), range(o2.size)))
    assert list(joint.row_keys) == rows
    # row (i, j) sits at flat position i * |omega2| + j
    for flat, (i, j) in enumerate(rows):
        assert joint.row_keys[flat] == (i, j)


def test_joint_rows_match_folded_table(scenarios):
    s = scenarios("spacelike_bits")
    table = build_prob_table(s.spec, s.regions)
    o1, o2 = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    for flat, (i, j) in enumerate(joint.row_keys):
        g1_row, g2_row = o1.indices[i], o2.indices[j]
        expect = table.values[g1_row, g2_row, :]
        assert np.array_equal(joint.values[flat], expect)


def test_composite_omega_is_a_product_subset(scenarios):
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    o1, o2, o3 = _omegas(table, s.regions)
    for pair in ([o1, o2], [o1, o3], [o2, o3]):
        joint = joint_fiducial_matrix(table, pair)
        comp = find_composite_omega(joint)
        assert comp.parent_size == pair[0].size * pair[1].size
        assert set(comp.indices) <= set(range(comp.parent_size))
        assert comp.size <= comp.parent_size


def test_composite_expansion_reconstructs(scenarios):
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    o1, o2, _ = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    comp = find_composite_omega(joint)
    entry = compute_compositional_lambda(joint, comp, [o1, o2])
    approx = entry.matrix @ joint.values[list(comp.indices)]
    assert np.abs(approx - joint.values).max() < 1e-8
    assert np.array_equal(
        entry.matrix[list(comp.indices)], np.eye(comp.size)
    )
    # the composite is derived from the factors, and its checks still run
    assert entry.composite == CompositeRegion((o1.region, o2.region))
    with pytest.raises(ValueError, match="ordered by least location"):
        CompositionalLambda(factor_omegas=(o2, o1), omega=comp, matrix=entry.matrix)


def test_adjacency_strictness(scenarios):
    s = scenarios("spacelike_bits")
    table = build_prob_table(s.spec, s.regions)
    o1, o2 = _omegas(table, s.regions)
    joint = joint_fiducial_matrix(table, [o1, o2])
    comp = find_composite_omega(joint)
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
    assert graph.edges == ((0, 1), (1, 2))
    assert graph.adjacent(s.regions[0], s.regions[1])
    assert not graph.adjacent(s.regions[0], s.regions[2])


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
        regions=(r1, r2),
        gammas=(g1, g2),
        exteriors=ExteriorAxis(
            folded=(), preparations=(1,), conditioning=(), effects=((True,),)
        ),
        values=np.array([[[0.25], [0.25]], [[0.25], [0.25]]]),
    )
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
    original = comp.find_composite_omega

    def counted(*args, **kwargs):
        calls.append(args[0].factors)
        return original(*args, **kwargs)

    monkeypatch.setattr(comp, "find_composite_omega", counted)
    full = adjacency_graph(build_causaloid(table), table)
    assert calls == []
    partial = adjacency_graph(build_causaloid(table, composites=[(r1, r2)]), table)
    assert calls == [(r1, r3), (r2, r3)]
    assert partial.pairs == full.pairs
    assert partial.edges == ((0, 1), (1, 2))
