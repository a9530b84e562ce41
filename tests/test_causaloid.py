"""The registry: construction, products, basis changes, meta rules, storage."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from causaloid import (
    Causaloid,
    CompositionalLambda,
    DeducedEntry,
    Region,
    build_causaloid,
    build_prob_table,
    causaloid_from_dict,
    causaloid_product,
    causaloid_to_dict,
    change_omega_basis,
    evaluate_joint,
    expand,
    hybrid_product,
    joint_r_vector,
    load_causaloid,
    meta_compress,
    r_vector,
    save_causaloid,
)
from causaloid.causaloid import key_to_str, key_union, normalize_key
from causaloid.errors import (
    ContextMismatch,
    MissingEntry,
    RuleInapplicable,
    SchemaError,
    SingularTransform,
    UnknownRegion,
)
from causaloid.operational import disjoint_union
from causaloid.report import checked_causaloid
from causaloid.tomographic import OmegaSet, StateVector

from conftest import SCENARIO_NAMES


@pytest.fixture(scope="module")
def chain3(scenarios):
    s = scenarios("classical_chain3")
    table = build_prob_table(s.spec, s.regions)
    return s, table, build_causaloid(table)


@pytest.fixture(scope="module")
def polariser(scenarios):
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    composites = list(itertools.combinations(s.regions, 2)) + [tuple(s.regions)]
    return s, table, build_causaloid(table, composites)


def test_key_helpers():
    a, b, c = Region((1,)), Region((2,)), Region((3,))
    assert key_union(((a, b), c)) == Region((1, 2, 3))
    assert normalize_key((c, a)) == (a, c)
    assert normalize_key(((b, a), c)) == ((a, b), c)
    assert key_to_str(((a, b), c)) == "(({1} x {2}) x {3})"
    with pytest.raises(ValueError):
        normalize_key((a, (a, b)))  # overlapping factors
    assert disjoint_union((c, a)) == Region((1, 3))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        disjoint_union((a, Region((1, 2))))
    with pytest.raises(ValueError, match="pairwise disjoint"):
        key_union(((a, b), (b, c)))


def test_region_order_is_the_canonical_order(scenarios):
    # sorting by Region order, and keys by their unions, is sorting by
    # sorted locations
    for name in SCENARIO_NAMES:
        regions = scenarios(name).regions
        assert sorted(regions) == sorted(regions, key=lambda r: r.locations)
        keys = checked_causaloid(scenarios(name))[2].keys()[::-1]
        assert sorted(keys, key=key_union) == sorted(
            keys, key=lambda k: key_union(k).locations
        )


def test_every_grouped_key_resolves_to_one_entry(scenarios):
    # a stub is deduced once; entry and product_entry give the same object
    stubs = 0
    for name in SCENARIO_NAMES:
        built = checked_causaloid(scenarios(name))[2]
        for c in (built, meta_compress(built, ["tensor-factorization"])):
            stubs += len(c.deduced)
            for key in c.keys():
                entry = c.entry(key)
                assert c.entry(key) is entry
                if isinstance(key, tuple):
                    assert c.product_entry(entry.factor_omegas) is entry
    assert stubs


def test_registry_lookups(chain3):
    s, table, c = chain3
    assert c.regions == s.regions
    r1, r2, r3 = s.regions
    assert c.tomographic(r1).region == r1
    with pytest.raises(UnknownRegion):
        c.tomographic(Region((9,)))
    assert set(c.keys()) == {r1, r2, r3, (r1, r2), (r1, r3), (r2, r3)}
    with pytest.raises(MissingEntry):
        c.entry((r1, (r2, r3)))


def test_registry_rejects_duplicates(chain3):
    _, _, c = chain3
    with pytest.raises(ValueError):
        Causaloid(
            regions=c.regions,
            elementary=c.elementary,
            composites=c.composites + (c.composites[0],),
        )


def test_pair_product_matches_table(chain3):
    # r1 (x) r2 against a state read off fiducial rows reproduces the table
    s, table, c = chain3
    from causaloid.causaloid import _leaf_rows

    r1, r2 = s.regions[0], s.regions[1]
    entry = c.entry((r1, r2))
    entries = {k: c.entry(k) for k in c.keys()}
    leaves, rows = _leaf_rows(entries, (r1, r2))
    assert leaves == (r1, r2)
    lam1, lam2 = c.tomographic(r1), c.tomographic(r2)
    rng = np.random.default_rng(90)
    for _ in range(100):
        i = int(rng.integers(0, table.gammas[0].size))
        j = int(rng.integers(0, table.gammas[1].size))
        k = int(rng.integers(0, table.gammas[2].size))
        e = int(rng.integers(0, len(table.exteriors)))
        rr = causaloid_product(
            r_vector(table.gammas[0].labels[i], lam1),
            r_vector(table.gammas[1].labels[j], lam2),
            c,
        )
        assert rr.context == entry.omega
        swapped = causaloid_product(
            r_vector(table.gammas[1].labels[j], lam2),
            r_vector(table.gammas[0].labels[i], lam1),
            c,
        )
        assert np.array_equal(swapped.components, rr.components)
        # fold region 3 into the exterior by fixing its label
        want = float(table.values[i, j, k, e])
        p = np.array([float(table.values[tuple(row) + (k, e)]) for row in rows])
        assert float(rr.components @ p) == pytest.approx(want, abs=1e-9)


def test_product_and_joint_agree(polariser):
    s, table, c = polariser
    r1, r2, r3 = s.regions
    lam = [c.tomographic(r) for r in (r1, r2, r3)]
    triple = c.entry((r1, r2, r3))
    labels = (lam[0].gamma.labels[3], lam[1].gamma.labels[5], lam[2].gamma.labels[6])
    joint = joint_r_vector(c, labels)
    assert joint.context == triple.omega
    assert joint.components.shape == (triple.omega.size,)
    one = r_vector(labels[0], lam[0])
    assert hybrid_product(c, [one]) is one


def test_evaluate_joint_against_oracle(polariser):
    # states read off the composite fiducial rows of the table itself
    s, table, c = polariser
    r1, r2, r3 = s.regions
    triple = c.entry((r1, r2, r3))
    from causaloid.causaloid import _leaf_rows

    entries = {k: c.entry(k) for k in c.keys()}
    leaves, rows = _leaf_rows(entries, (r1, r2, r3))
    assert leaves == (r1, r2, r3)
    rng = np.random.default_rng(91)
    for _ in range(60):
        e = int(rng.integers(0, len(table.exteriors)))
        p = StateVector(
            context=triple.omega,
            components=np.array([float(table.values[tuple(row) + (e,)]) for row in rows]),
        )
        i, j, k = (int(rng.integers(0, 8)) for _ in range(3))
        labels = (
            table.gammas[0].labels[i],
            table.gammas[1].labels[j],
            table.gammas[2].labels[k],
        )
        got = evaluate_joint(c, labels, p)
        want = float(table.values[i, j, k, e])
        assert got == pytest.approx(want, abs=1e-9)


def test_nested_grouping_agrees_with_flat(scenarios):
    # probability-level associativity: ((1x2)x3) and (1x2x3) predict alike
    s = scenarios("polariser_chain")
    table = build_prob_table(s.spec, s.regions)
    r1, r2, r3 = s.regions
    c = build_causaloid(
        table, [(r1, r2), (r2, r3), (r1, r2, r3), ((r1, r2), r3)]
    )
    flat = c.entry((r1, r2, r3))
    nested = c.entry(((r1, r2), r3))
    from causaloid.causaloid import _leaf_rows

    entries = {k: c.entry(k) for k in c.keys()}
    _, flat_rows = _leaf_rows(entries, (r1, r2, r3))
    _, nested_rows = _leaf_rows(entries, ((r1, r2), r3))
    rng = np.random.default_rng(92)
    lam = [c.tomographic(r) for r in (r1, r2, r3)]
    for _ in range(40):
        e = int(rng.integers(0, len(table.exteriors)))
        p_flat = StateVector(
            flat.omega,
            np.array([float(table.values[tuple(row) + (e,)]) for row in flat_rows]),
        )
        p_nested = StateVector(
            nested.omega,
            np.array([float(table.values[tuple(row) + (e,)]) for row in nested_rows]),
        )
        i, j, k = (int(rng.integers(0, 8)) for _ in range(3))
        labels = [g.labels[x] for g, x in zip(table.gammas, (i, j, k))]
        r12 = causaloid_product(
            r_vector(labels[0], lam[0]), r_vector(labels[1], lam[1]), c
        )
        r123 = causaloid_product(r12, r_vector(labels[2], lam[2]), c)
        via_nested = float(r123.components @ p_nested.components)
        via_flat = float(
            joint_r_vector(c, labels).components @ p_flat.components
        )
        want = float(table.values[i, j, k, e])
        assert via_nested == pytest.approx(want, abs=1e-9)
        assert via_flat == pytest.approx(want, abs=1e-9)


def _reference_leaf_rows(entries, key):
    # one fiducial element at a time: unravel its flat index over the
    # factors' sizes and chain one leaf row per factor
    omega = entries[key].omega
    if isinstance(key, Region):
        return [(i,) for i in omega.indices]
    parts = [_reference_leaf_rows(entries, child) for child in key]
    rows = []
    for flat in omega.indices:
        pos = np.unravel_index(flat, omega.dims)
        rows.append(tuple(itertools.chain(*(p[q] for p, q in zip(parts, pos)))))
    return rows


def test_leaf_rows_match_a_per_element_decode(scenarios):
    from causaloid.causaloid import _leaf_rows

    s = scenarios("polariser_chain")
    r1, r2, r3 = s.regions
    c = build_causaloid(
        build_prob_table(s.spec, s.regions), list(s.composites) + [((r1, r2), r3)]
    )
    entries = {k: c.entry(k) for k in c.keys()}
    grouped = [k for k in c.keys() if isinstance(k, tuple)]
    assert ((r1, r2), r3) in grouped and len(grouped) == len(s.composites) + 1
    for key in grouped:
        leaves, rows = _leaf_rows(entries, key)
        assert leaves == tuple(sorted(leaves)) and disjoint_union(leaves) == key_union(key)
        assert rows.dtype == np.intp
        assert rows.shape == (entries[key].omega.size, len(leaves))
        assert list(map(tuple, rows.tolist())) == _reference_leaf_rows(entries, key)


def test_change_basis_round_trip(polariser):
    s, table, c = polariser
    entry = c.tomographic(s.regions[0])
    old = entry.omega
    # search for a different independent row choice
    new_idx = None
    for combo in itertools.combinations(range(old.parent_size), old.size):
        if combo == old.indices:
            continue
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
    assert np.abs(back.matrix - entry.matrix).max() < 1e-9
    # predictions are basis independent
    m = table.values[:, 0, 0, :].reshape(8, -1)  # region 1 rows, others fixed
    rng = np.random.default_rng(93)
    for _ in range(100):
        e = int(rng.integers(0, m.shape[1]))
        p_old = m[list(old.indices), e]
        p_new = m[list(new_idx), e]
        for row in range(8):
            a = float(entry.matrix[row] @ p_old)
            b = float(moved.matrix[row] @ p_new)
            assert a == pytest.approx(b, abs=1e-9)


def test_change_basis_rejects_singular(polariser):
    s, _, c = polariser
    entry = c.tomographic(s.regions[0])
    old = entry.omega
    # rows 0 and 1 share the first polariser action; together with the rest
    # of the original set they stay dependent on it in at least one choice
    bad = None
    for combo in itertools.combinations(range(old.parent_size), old.size):
        sub = entry.matrix[list(combo)]
        if np.linalg.cond(sub) > 1e12:
            bad = combo
            break
    assert bad is not None
    with pytest.raises(SingularTransform):
        change_omega_basis(
            entry,
            OmegaSet(
                region=old.region,
                indices=bad,
                parent_size=old.parent_size,
                row_kind=old.row_kind,
            ),
        )


def test_meta_rules(chain3):
    s, _, c = chain3
    with pytest.raises(RuleInapplicable):
        meta_compress(c, ["mystery-rule"])
    m = meta_compress(c, ["tensor-factorization"])
    dropped = {d.key for d in m.deduced}
    assert dropped == {(s.regions[0], s.regions[2])}
    assert len(m.composites) == 2
    back = expand(m)
    assert [k for k, _ in back.composites] == [k for k, _ in c.composites]
    for (_, a), (_, b) in zip(back.composites, c.composites):
        assert np.abs(a.matrix - b.matrix).max() < 1e-9


def test_meta_preserves_products(chain3):
    s, _, c = chain3
    m = meta_compress(c, ["tensor-factorization"])
    lam1 = c.tomographic(s.regions[0])
    lam3 = c.tomographic(s.regions[2])
    a = r_vector(lam1.gamma.labels[1], lam1)
    b = r_vector(lam3.gamma.labels[2], lam3)
    full = causaloid_product(a, b, c)
    stub = causaloid_product(a, b, m)
    assert np.abs(full.components - stub.components).max() < 1e-12


def test_a_stub_factor_stays_undeduced_until_first_use(chain3):
    # (R1 x R3) is both a stub and a factor of ((R1 x R3) x R2): checking the
    # outer grouping reads the stub's fiducial set from its rule, not its Λ
    s, table, _ = chain3
    r1, r2, r3 = s.regions
    c = build_causaloid(table, [(r1, r3), ((r1, r3), r2)])
    m = meta_compress(c, ["tensor-factorization"])
    assert [d.key for d in m.deduced] == [(r1, r3)]
    doc = causaloid_to_dict(m)
    loaded = causaloid_from_dict(doc)
    for registry in (m, loaded):
        assert isinstance(registry._index[(r1, r3)], DeducedEntry)
        assert registry.omega_of((r1, r3)) == c.omega_of((r1, r3))
        assert isinstance(registry._index[(r1, r3)], DeducedEntry)
    assert causaloid_to_dict(loaded) == doc
    deduced = loaded.entry((r1, r3))
    assert isinstance(loaded._index[(r1, r3)], CompositionalLambda)
    assert np.array_equal(deduced.matrix, c.entry((r1, r3)).matrix)


def test_save_load_round_trip(tmp_path, chain3):
    _, _, c = chain3
    m = meta_compress(c, ["tensor-factorization"])
    path = tmp_path / "causaloid.json"
    save_causaloid(m, path)
    back = load_causaloid(path)
    assert back.regions == m.regions
    assert back.rules == ("tensor-factorization",)
    for a, b in zip(m.elementary, back.elementary):
        assert np.array_equal(a.matrix, b.matrix)
    for (k1, a), (k2, b) in zip(m.composites, back.composites):
        assert k1 == k2
        assert np.array_equal(a.matrix, b.matrix)
    assert [d.key for d in back.deduced] == [d.key for d in m.deduced]


def test_document_validation(chain3, tmp_path):
    _, _, c = chain3
    doc = causaloid_to_dict(c)
    bad = dict(doc, kind="other")
    with pytest.raises(SchemaError):
        causaloid_from_dict(bad)
    bad = dict(doc, format_version=99)
    with pytest.raises(SchemaError):
        causaloid_from_dict(bad)
    bad = dict(doc)
    # the packed [[1.0]]: a canonical string of the wrong shape
    bad["elementary"] = [dict(doc["elementary"][0], matrix_f64le_b64="AAAAAAAA8D8=")]
    with pytest.raises(SchemaError, match="holds 8 bytes"):
        causaloid_from_dict(bad)
    for top in ([], "causaloid", 1, None):
        with pytest.raises(SchemaError, match="must be a JSON object"):
            causaloid_from_dict(top)
    path = tmp_path / "list.json"
    path.write_text("[]\n")
    with pytest.raises(SchemaError, match="must be a JSON object"):
        load_causaloid(path)
