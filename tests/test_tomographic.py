"""First-level compression: fiducial sets, expansion matrices, state vectors."""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

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
