"""Acceptance gate: nine pinned end-to-end properties, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines on passing criteria as well).
"""
from __future__ import annotations

import itertools
import math
import time

import numpy as np

from causaloid import (
    Card,
    Chain,
    HeraldQuery,
    ProcedureSpec,
    QuantumSpec,
    build_causaloid,
    build_measurement_matrix,
    build_prob_table,
    causaloid_product,
    conditional_sweep,
    emit_diagram,
    born_scene,
    estimate_prob,
    expansion_scene,
    find_fiducial_set,
    herald,
    ic_effects,
    ic_preparations,
    joint_fiducial_matrix,
    polariser_family,
    product_scene,
    r_vector,
    report_json,
    run_pipeline,
    sample_stacks,
)
from causaloid.tomographic import fold_to_exterior


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _causaloid(scenarios, name):
    s = scenarios(name)
    table = build_prob_table(s.spec, s.regions)
    return s, table, build_causaloid(table, s.composites or None)


def test_criterion_1_tomography_counts(scenarios):
    started = time.perf_counter()
    expected = {
        "classical_bit": 4,
        "classical_trit": 9,
        "qubit_channel": 16,
        "qutrit_channel": 81,
    }
    got = {}
    for name in expected:
        s = scenarios(name)
        table = build_prob_table(s.spec, s.regions)
        (region,) = s.regions
        omega = find_fiducial_set(build_measurement_matrix(table, region))
        got[name] = omega.size
    elapsed = time.perf_counter() - started
    ok = got == expected and elapsed < 10.0
    _verdict(1, ok, f"fiducial counts {got}, {elapsed:.2f}s < 10s")


def test_criterion_2_composite_subset(scenarios):
    started = time.perf_counter()
    checked = 0
    ok = True
    notes = []
    for name in (
        "spacelike_bits",
        "adjacent_gates",
        "polariser_chain",
        "classical_chain3",
    ):
        s, table, c = _causaloid(scenarios, name)
        for key, entry in c.composites:
            product = 1
            for o in entry.factor_omegas:
                product *= o.size
            ok = ok and entry.omega.parent_size == product
            ok = ok and entry.omega.size <= product
            ok = ok and entry.omega.row_kind == "omega-product"
            checked += 1
    s, table, c = _causaloid(scenarios, "spacelike_bits")
    (_, pair), = c.composites
    sizes = tuple(o.size for o in pair.factor_omegas)
    ok = ok and sizes == (4, 4) and pair.omega.size == 16
    notes.append(f"spacelike 16 = 4x4 (got {pair.omega.size})")
    s, table, c = _causaloid(scenarios, "adjacent_gates")
    (_, pair), = c.composites
    sizes = tuple(o.size for o in pair.factor_omegas)
    ok = ok and sizes == (16, 16) and pair.omega.size == 16
    notes.append(f"adjacent 16 < 256 (got {pair.omega.size})")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    _verdict(
        2,
        ok,
        f"{checked} composite runs all subsets; "
        + "; ".join(notes)
        + f"; {elapsed:.2f}s < 30s",
    )


def test_criterion_3_reconstruction_matches_oracle(scenarios):
    started = time.perf_counter()
    names = (
        "classical_bit",
        "classical_trit",
        "qubit_channel",
        "qutrit_channel",
        "adjacent_gates",
        "spacelike_bits",
        "polariser_chain",
        "classical_chain3",
    )
    worst = 0.0
    comparisons = 0
    for name in names:
        s, table, c = _causaloid(scenarios, name)
        for region in c.regions:
            entry = c.tomographic(region)
            m = build_measurement_matrix(table, region)
            rebuilt = entry.matrix @ m.values[list(entry.omega.indices)]
            worst = max(worst, float(np.abs(rebuilt - m.values).max()))
            comparisons += m.values.size
        for key, entry in c.composites:
            joint = joint_fiducial_matrix(
                table, [c.tomographic(r).omega for r in key]
            )
            rebuilt = entry.matrix @ joint.values[list(entry.omega.indices)]
            worst = max(worst, float(np.abs(rebuilt - joint.values).max()))
            comparisons += joint.values.size
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and comparisons <= 10**5 and elapsed < 60.0
    _verdict(
        3,
        ok,
        f"max |rebuilt - oracle| = {worst:.2e} <= 1e-8 over "
        f"{comparisons} comparisons, {elapsed:.2f}s < 60s",
    )


def test_criterion_4_tensor_special_case(scenarios):
    worst = 0.0
    pairs = 0
    for name in ("spacelike_bits", "classical_chain3"):
        s, table, c = _causaloid(scenarios, name)
        for key, entry in c.composites:
            if entry.omega.size != entry.omega.parent_size:
                continue  # only the full-product case reduces to a tensor
            ra, rb = key
            la, lb = c.tomographic(ra), c.tomographic(rb)
            for i, j in itertools.product(
                range(la.gamma.size), range(lb.gamma.size)
            ):
                a = r_vector(la.gamma.labels[i], la)
                b = r_vector(lb.gamma.labels[j], lb)
                via_entry = causaloid_product(a, b, c).components
                outer = np.multiply.outer(a.components, b.components).reshape(-1)
                worst = max(worst, float(np.abs(via_entry - outer).max()))
            pairs += 1
    ok = pairs >= 2 and worst <= 1e-12
    _verdict(
        4,
        ok,
        f"{pairs} full-product entries, max |product - outer| = {worst:.2e}"
        " <= 1e-12",
    )


def test_criterion_5_order_symmetry(scenarios):
    worst_order = 0.0
    worst_oracle = 0.0
    pairs = 0
    for name in (
        "spacelike_bits",
        "adjacent_gates",
        "polariser_chain",
        "classical_chain3",
    ):
        s, table, c = _causaloid(scenarios, name)
        for ra, rb in itertools.combinations(c.regions, 2):
            la, lb = c.tomographic(ra), c.tomographic(rb)
            vals, _ = fold_to_exterior(table, (ra, rb))
            wa = list(la.omega.indices)
            wb = list(lb.omega.indices)
            for e in range(vals.shape[2]):
                m = vals[:, :, e]
                p_block = m[np.ix_(wa, wb)]
                first_then_second = (la.matrix @ p_block) @ lb.matrix.T
                second_then_first = la.matrix @ (p_block @ lb.matrix.T)
                worst_order = max(
                    worst_order,
                    float(np.abs(first_then_second - second_then_first).max()),
                )
                worst_oracle = max(
                    worst_oracle, float(np.abs(first_then_second - m).max())
                )
            pairs += 1
    ok = worst_order <= 1e-9 and worst_oracle <= 1e-9
    _verdict(
        5,
        ok,
        f"{pairs} region pairs, order gap {worst_order:.2e} <= 1e-9, "
        f"oracle gap {worst_oracle:.2e} <= 1e-9",
    )


def test_criterion_6_basis_change(scenarios):
    from causaloid import change_omega_basis
    from causaloid.tomographic import OmegaSet

    s, table, c = _causaloid(scenarios, "polariser_chain")
    entry = c.tomographic(c.regions[0])
    old = entry.omega
    new_idx = None
    for combo in itertools.combinations(range(old.parent_size), old.size):
        if combo != old.indices:
            sub = entry.matrix[list(combo)]
            if np.linalg.cond(sub) < 1e6:
                new_idx = combo
                break
    assert new_idx is not None
    new_omega = OmegaSet(
        region=old.region,
        indices=new_idx,
        parent_size=old.parent_size,
        row_kind=old.row_kind,
    )
    moved = change_omega_basis(entry, new_omega)
    back = change_omega_basis(moved, old)
    round_trip = float(np.abs(back.matrix - entry.matrix).max())
    vals, _ = fold_to_exterior(table, (c.regions[0],))
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        e = int(rng.integers(0, vals.shape[1]))
        p_old = vals[list(old.indices), e]
        p_new = vals[list(new_idx), e]
        predicted_old = entry.matrix @ p_old
        predicted_new = moved.matrix @ p_new
        worst = max(worst, float(np.abs(predicted_old - predicted_new).max()))
    ok = round_trip <= 1e-9 and worst <= 1e-9
    _verdict(
        6,
        ok,
        f"round trip {round_trip:.2e} <= 1e-9, probe invariance {worst:.2e}"
        " <= 1e-9 on 100 probes",
    )


def test_criterion_7_polariser_heralding(scenarios):
    started = time.perf_counter()
    s, table, c = _causaloid(scenarios, "polariser_chain")
    r1, r2, r3 = c.regions
    labels = [table.gammas[i].labels for i in range(3)]
    third_given_first = HeraldQuery.from_labels(
        (r3, labels[2][6]), [(r1, labels[0][0])]
    )
    res_bad = herald(c, third_given_first, tol=s.tol_herald, table=table)
    spread = 0.0
    if res_bad.witness is not None:
        (_, hi), (_, lo) = res_bad.witness
        spread = hi - lo
    second_given_outer = HeraldQuery.from_labels(
        (r2, labels[1][2]), [(r1, labels[0][0]), (r3, labels[2][4])]
    )
    res_good = herald(c, second_given_outer, tol=s.tol_herald)
    c30, s30 = math.cos(math.radians(30)) ** 2, math.sin(math.radians(30)) ** 2
    malus = (c30 * c30) / (c30 * c30 + s30 * s30)
    direct = [
        p for _, p in conditional_sweep(table, second_given_outer) if p is not None
    ]
    elapsed = time.perf_counter() - started
    ok = (
        not res_bad.well_defined
        and spread > 0.1
        and res_good.well_defined
        and res_good.p is not None
        and abs(res_good.p - malus) <= 1e-8
        and all(abs(p - malus) <= 1e-8 for p in direct)
        and elapsed < 5.0
    )
    _verdict(
        7,
        ok,
        f"third|first ill-defined with witness spread {spread:.3f} > 0.1; "
        f"second|outer p = {res_good.p:.12f} vs direct chain {malus:.12f}; "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_8_frequency_convergence():
    spec = QuantumSpec(
        chains=(Chain("photon", 2, (1,)),),
        instruments=(polariser_family(1, (0.0, 30.0, 60.0, 90.0)),),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2),),
    )
    procedure = ProcedureSpec({1: 1})  # the 30 degree setting
    stacks = sample_stacks(spec, procedure, runs=100000, seed=2026)
    result = estimate_prob(stacks, [Card(1, 1, 0)])
    gap = abs(result.probability - 0.75)
    ok = gap <= 0.01
    _verdict(
        8,
        ok,
        f"10^5 runs at 30 degrees: estimate {result.probability:.5f}, "
        f"|estimate - 0.75| = {gap:.5f} <= 0.01",
    )


def test_criterion_9_determinism(scenarios):
    s = scenarios("polariser_chain")
    first = report_json(run_pipeline(s))
    second = report_json(run_pipeline(s))
    reports_equal = first == second

    def render_all():
        _, table, c = _causaloid(scenarios, "polariser_chain")
        r1, r2 = c.regions[0], c.regions[1]
        out = []
        for scene in (
            born_scene(c, r1),
            expansion_scene(c, r1),
            product_scene(c, r1, r2),
        ):
            out.append(emit_diagram(scene, "dot"))
            out.append(emit_diagram(scene, "svg"))
        return out
    diagrams_equal = render_all() == render_all()
    ok = reports_equal and diagrams_equal
    _verdict(
        9,
        ok,
        f"reports byte-identical: {reports_equal}; "
        f"diagram outputs byte-identical: {diagrams_equal}",
    )
