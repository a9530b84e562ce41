"""Conditional-probability heralding: queries, the parallelism test, witnesses."""
from __future__ import annotations

import math

import pytest

from causaloid import (
    HeraldQuery,
    HeraldResult,
    Region,
    build_causaloid,
    build_prob_table,
    conditional_from_table,
    conditional_sweep,
    herald,
)
from causaloid.errors import (
    UnknownExterior,
    UnknownProcedure,
    ZeroDenominator,
    ZeroDenominatorVector,
)


def cos2(deg):
    return math.cos(math.radians(deg)) ** 2


def sin2(deg):
    return math.sin(math.radians(deg)) ** 2


@pytest.fixture(scope="module")
def polariser(pipelines):
    run = pipelines("polariser_chain")
    return run.scenario, run.table, run.causaloid


def _labels(scenario, table, name):
    axis = table.region_axis(scenario.region_named(name))
    return scenario.region_named(name), table.gammas[axis].labels


def test_query_validation(polariser):
    s, table, _ = polariser
    r1, labs1 = _labels(s, table, "R1")
    r2, labs2 = _labels(s, table, "R2")
    with pytest.raises(ValueError):
        HeraldQuery.from_labels((r1, labs1[0]), [(r1, labs1[1])])
    with pytest.raises(ValueError):  # overlapping, not equal, regions
        HeraldQuery.from_labels((Region((1, 2)), ((0, 0), (0, 0))), [(r2, labs2[0])])
    q = HeraldQuery.from_labels((r2, labs2[2]), [(r1, labs1[0])])
    assert q == HeraldQuery((r2, labs2[2]), ((r1, labs1[0]),))
    assert q.named_regions == (r1, r2)


def test_herald_rejects_a_target_action_no_label_has(polariser):
    s, table, c = polariser
    r1, labs1 = _labels(s, table, "R1")
    q = HeraldQuery.from_labels((s.region_named("R2"), ((9,), (0,))), [(r1, labs1[0])])
    with pytest.raises(UnknownProcedure, match=r"no label of \{2\} has action part \(9,\)"):
        herald(c, q, table=table)


def test_well_defined_herald_matches_closed_form(polariser):
    s, table, c = polariser
    r1, labs1 = _labels(s, table, "R1")
    r2, labs2 = _labels(s, table, "R2")
    r3, labs3 = _labels(s, table, "R3")
    # pass at 30 between crossed 0/60 passes: both routes go through 30
    q = HeraldQuery.from_labels(
        (r2, labs2[2]), [(r1, labs1[0]), (r3, labs3[4])]
    )
    res = herald(c, q, tol=s.tol_herald)
    want = (cos2(30) * cos2(30)) / (cos2(30) * cos2(30) + sin2(30) * sin2(30))
    assert res.well_defined
    assert res.residual < 1e-12
    assert res.p == pytest.approx(want, abs=1e-9)
    assert res.p == pytest.approx(0.9, abs=1e-9)
    assert res.witness is None
    # the direct per-exterior conditionals agree wherever they exist
    for ext, value in conditional_sweep(table, q):
        if value is not None:
            assert value == pytest.approx(want, abs=1e-9)


def test_ill_defined_herald_and_witness(polariser):
    s, table, c = polariser
    r1, labs1 = _labels(s, table, "R1")
    r3, labs3 = _labels(s, table, "R3")
    q = HeraldQuery.from_labels((r3, labs3[6]), [(r1, labs1[0])])
    bare = herald(c, q, tol=s.tol_herald)
    assert not bare.well_defined
    assert bare.p is None
    assert bare.residual == pytest.approx(0.5, abs=1e-9)
    assert bare.witness is None  # no table, no witness
    rich = herald(c, q, tol=s.tol_herald, table=table)
    assert rich.witness is not None
    (ext_hi, hi), (ext_lo, lo) = rich.witness
    assert hi == pytest.approx(1.0, abs=1e-9)
    assert lo == pytest.approx(0.0, abs=1e-9)
    assert ext_hi.describe() != ext_lo.describe()


def test_single_region_query_needs_no_product(polariser):
    s, table, c = polariser
    r1, labs1 = _labels(s, table, "R1")
    q = HeraldQuery.from_labels((r1, labs1[0]))
    res = herald(c, q, tol=s.tol_herald, table=table)
    assert not res.well_defined  # pass rate at 0 degrees depends on the input
    assert res.witness is not None


def test_vanishing_condition_vector(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    r1, r2, r3 = s.regions
    c = build_causaloid(table, [(r1, r2, r3)])
    labs = [table.gammas[i].labels for i in range(3)]
    # reset-to-0 at the first cell makes "saw 1" at the second impossible
    q = HeraldQuery.from_labels(
        (r3, labs[2][0]), [(r1, labs[0][1]), (r2, labs[1][3])]
    )
    with pytest.raises(ZeroDenominatorVector):
        herald(c, q, tol=s.tol_herald)


def test_direct_conditional_routes(polariser):
    s, table, _ = polariser
    r1, labs1 = _labels(s, table, "R1")
    r2, labs2 = _labels(s, table, "R2")
    r3, labs3 = _labels(s, table, "R3")
    q = HeraldQuery.from_labels(
        (r2, labs2[2]), [(r1, labs1[0]), (r3, labs3[4])]
    )
    sweep = conditional_sweep(table, q)
    assert len(sweep) > 2
    assert any(p is None for _, p in sweep)  # vertical input kills the 0-pass arm
    defined = [(j, p) for j, (_, p) in enumerate(sweep) if p is not None]
    assert defined
    j, p = defined[0]
    assert conditional_from_table(table, q, j) == pytest.approx(p, abs=1e-15)
    undefined = [j for j, (_, p) in enumerate(sweep) if p is None]
    with pytest.raises(ZeroDenominator):
        conditional_from_table(table, q, undefined[0])
    with pytest.raises(UnknownExterior):
        conditional_from_table(table, q, len(sweep))


def test_result_invariants():
    with pytest.raises(ValueError):
        HeraldResult(well_defined=True, p=None, residual=0.0, witness=None)
    with pytest.raises(ValueError):
        HeraldResult(well_defined=False, p=0.5, residual=1.0, witness=None)
