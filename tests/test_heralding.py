"""Conditional-probability heralding: queries, the parallelism test, witnesses."""
from __future__ import annotations

import itertools
import json
import math

import numpy as np
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
    joint_prob,
    parse_scenario_dict,
)
from causaloid.heralding import MIN_DENOMINATOR, _conditional_parts
from causaloid.tomographic import fold_to_exterior
from causaloid.errors import (
    UnknownExterior,
    UnknownProcedure,
    ZeroDenominator,
    ZeroDenominatorVector,
)

from conftest import scenario_path


def cos2(deg):
    return math.cos(math.radians(deg)) ** 2


def sin2(deg):
    return math.sin(math.radians(deg)) ** 2


@pytest.fixture(scope="module")
def polariser(pipelines):
    run = pipelines("polariser_chain")
    return run.scenario, run.table, run.causaloid


def _region(scenario, name):
    return scenario.regions[scenario.region_names.index(name)]


def _labels(scenario, table, name):
    region = _region(scenario, name)
    return region, table.gammas[table.region_axis(region)].labels


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
    q = HeraldQuery.from_labels((_region(s, "R2"), ((9,), (0,))), [(r1, labs1[0])])
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


def _folded_parts(table, query):
    """Reference: the conditional's parts from a fold of the whole table."""
    named = query.named_regions
    vals, exteriors = fold_to_exterior(table, named)
    fixed = dict(query.conditions)
    fixed[query.target[0]] = query.target[1]
    sel = [table.gammas[table.region_axis(r)].index_of(fixed[r]) for r in named]
    t_axis = named.index(query.target[0])
    t_gamma = table.gammas[table.region_axis(query.target[0])]
    num = vals[tuple(sel)]
    den = np.zeros_like(num)
    for row in t_gamma.labels_for_action(query.target[1][0]):
        sel[t_axis] = row
        den = den + vals[tuple(sel)]
    return num, den, exteriors


def _chain4_tables():
    # a 4-location polariser chain; one table holds every region in a
    # shuffled axis order, one leaves location 2 unprobed
    with open(scenario_path("polariser_chain"), encoding="utf-8") as f:
        doc = json.load(f)
    doc["theory"]["chains"][0]["locations"] = [1, 2, 3, 4]
    doc["theory"]["instruments"] = [
        {"location": x, "family": "polariser", "angles_deg": angles}
        for x, angles in zip((1, 2, 3, 4), ([0, 45], [30, 60], [0, 90], [45, 60]))
    ]
    doc["regions"] = {f"R{x}": [x] for x in (1, 2, 3, 4)}
    doc["composites"], doc["heralds"] = [], []
    s = parse_scenario_dict(doc)
    r1, r2, r3, r4 = s.regions
    return s.spec, [build_prob_table(s.spec, (r3, r1, r4, r2)), build_prob_table(s.spec, (r4, r1, r3))]


def _chain4_queries(table):
    # the target at every axis position, given every subset of the others
    labels = [g.labels for g in table.gammas]
    for t, target in enumerate(table.regions):
        others = [i for i in range(len(table.regions)) if i != t]
        for n in range(len(others) + 1):
            for k, given in enumerate(itertools.combinations(others, n)):
                yield HeraldQuery.from_labels(
                    (target, labels[t][(t + k) % len(labels[t])]),
                    [(table.regions[i], labels[i][(i + k + 1) % len(labels[i])]) for i in given],
                )


def _herald_cases(pipelines):
    run = pipelines("polariser_chain")
    cases = [(run.scenario.spec, run.table, h.query) for h in run.scenario.heralds]
    spec, tables = _chain4_tables()
    cases += [(spec, table, q) for table in tables for q in _chain4_queries(table)]
    return cases


def test_conditional_parts_match_the_full_table_fold(pipelines):
    # table slices give the fold's numerator and denominator bit for bit,
    # over the same exterior axis
    cases = _herald_cases(pipelines)
    assert len(cases) == 2 + 4 * 8 + 3 * 4
    for _, table, query in cases:
        num, den, exteriors = _conditional_parts(table, query)
        want_num, want_den, want_exteriors = _folded_parts(table, query)
        assert num.dtype == want_num.dtype and num.tobytes() == want_num.tobytes()
        assert den.tobytes() == want_den.tobytes()
        assert exteriors == want_exteriors


def test_table_conditional_is_the_ratio_of_joint_probabilities(pipelines):
    checked = 0
    for spec, table, query in _herald_cases(pipelines):
        _, den, exteriors = _conditional_parts(table, query)
        target, (actions, _) = query.target
        consistent = table.gammas[table.region_axis(target)].labels_for_action(actions)
        assignment = dict(query.conditions)
        for j in range(0, len(exteriors), max(1, len(exteriors) // 8)):
            if den[j] <= MIN_DENOMINATOR:
                continue
            ext = exteriors[j]
            want_den = 0.0
            for row in consistent:
                assignment[target] = table.gammas[table.region_axis(target)].labels[row]
                want_den += joint_prob(spec, assignment, ext)
            assignment[target] = query.target[1]
            want = joint_prob(spec, assignment, ext) / want_den
            assert conditional_from_table(table, query, j) == pytest.approx(want, abs=1e-9)
            checked += 1
    assert checked > 100
