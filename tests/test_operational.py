"""Cards, stacks, regions, procedures, and frequency estimation."""
from __future__ import annotations

import dataclasses
import io
import itertools
import random

import numpy as np
import pytest

from causaloid import (
    Card,
    Chain,
    ClassicalSpec,
    ProcedureSpec,
    QuantumSpec,
    Region,
    Stack,
    ZeroConditionCount,
    complete_effect,
    dump_stacks,
    estimate_prob,
    ic_effects,
    ic_preparations,
    joint_prob,
    kernel_family,
    kraus_family,
    load_stacks,
    parse_stacks,
    polariser_family,
    sample_stacks,
)
from causaloid.errors import SchemaError, UnknownProcedure, UnknownRegion
from causaloid.operational import _distinct_rows, _write_stacks
from causaloid.tables import ExteriorConfiguration

from conftest import SCENARIO_NAMES


def test_region_is_sorted_and_set_like():
    r = Region((3, 1))
    assert r.locations == (1, 3)
    assert 1 in r and 2 not in r
    assert len(r) == 2
    assert str(r) == "{1,3}"


def test_region_deduplicates_and_rejects_empty():
    assert Region((1, 1)).locations == (1,)
    with pytest.raises(ValueError):
        Region(())
    with pytest.raises(ValueError):
        Region((-1,))


def test_equal_regions_hash_alike():
    a, b = Region((3, 1, 2)), Region([1, 2, 2, 3, 1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, Region((1, 2)), Region((2, 1))}) == 2


def test_procedure_sorts_and_restricts():
    p = ProcedureSpec({3: 0, 1: 2})
    assert p.assignment == ((1, 2), (3, 0))
    assert p.action_at(3) == 0
    with pytest.raises(UnknownRegion):
        p.action_at(7)


def test_stack_consistency():
    tag = ProcedureSpec({1: 0, 2: 1})
    s = Stack([Card(1, 0, 1), Card(2, 1, 0)], tag)
    assert s.card_at(1) == Card(1, 0, 1)
    assert s.sorted_cards() == (Card(1, 0, 1), Card(2, 1, 0))
    with pytest.raises(ValueError):
        Stack([Card(1, 0, 0), Card(1, 0, 1)], tag)  # two cards at one location
    with pytest.raises(ValueError):
        Stack([Card(1, 1, 0)], tag)  # action disagrees with the tag


def _hand_stacks():
    # procedure {1: 0}; outcomes 0,0,1,0 over four runs
    tag = ProcedureSpec({1: 0})
    other = ProcedureSpec({1: 1})
    return [
        Stack([Card(1, 0, 0)], tag),
        Stack([Card(1, 0, 0)], tag),
        Stack([Card(1, 0, 1)], tag),
        Stack([Card(1, 0, 0)], tag),
        Stack([Card(1, 1, 1)], other),  # different procedure, excluded
    ]


def test_estimate_prob_counts_by_procedure():
    stacks = _hand_stacks()
    est = estimate_prob(stacks, target=[Card(1, 0, 0)])
    assert est.denominator_count == 4
    assert est.numerator_count == 3
    assert est.probability == pytest.approx(0.75)


def test_estimate_prob_conditioning_and_empty():
    tag = ProcedureSpec({1: 0, 2: 0})
    stacks = [
        Stack([Card(1, 0, 0), Card(2, 0, 1)], tag),
        Stack([Card(1, 0, 1), Card(2, 0, 1)], tag),
        Stack([Card(1, 0, 0), Card(2, 0, 0)], tag),
    ]
    est = estimate_prob(stacks, target=[Card(1, 0, 0)], condition=[Card(2, 0, 1)])
    assert est.denominator_count == 2 and est.numerator_count == 1
    with pytest.raises(ZeroConditionCount):
        estimate_prob(stacks, target=[Card(1, 1, 0)])


def _tiny_spec():
    return QuantumSpec(
        chains=(Chain("photon", 2, (1,)),),
        instruments=(polariser_family(1, [0, 45]),),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2),),
    )


def test_sample_stacks_deterministic_and_order_free():
    spec = _tiny_spec()
    proc = ProcedureSpec({1: 1})
    a = sample_stacks(spec, proc, 64, seed=7)
    b = sample_stacks(spec, proc, 64, seed=7)
    assert a == b
    c = sample_stacks(spec, proc, 64, seed=8)
    assert a != c
    # run i is seeded independently of how many runs are requested
    d = sample_stacks(spec, proc, 16, seed=7)
    assert a[:16] == d


@pytest.mark.parametrize(
    "shape, high",
    [((0, 3), 2), ((1, 1), 2), ((60, 1), 3), ((1000, 3), 2), ((300, 5), 4), ((40, 2), 1000)],
)
def test_distinct_rows_match_np_unique(shape, high):
    # sample_stacks groups runs by outcome row; np.unique is the reference
    values = np.random.default_rng(sum(shape) + high).integers(0, high, size=shape)
    rows, which = _distinct_rows(values)
    want_rows, want_which = np.unique(values, axis=0, return_inverse=True)
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(which, want_which.reshape(-1))


def test_equal_stacks_hash_alike():
    p = ProcedureSpec({1: 0, 2: 1})
    a = Stack([Card(1, 0, 0), Card(2, 1, 1)], p)
    b = Stack([Card(2, 1, 1), Card(1, 0, 0)], ProcedureSpec({2: 1, 1: 0}))
    c = Stack([Card(1, 0, 1), Card(2, 1, 1)], p)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_stack_round_trip(tmp_path):
    spec = _tiny_spec()
    stacks = sample_stacks(spec, ProcedureSpec({1: 0}), 20, seed=3)
    path = tmp_path / "stacks.txt"
    dump_stacks(stacks, path)
    back = load_stacks(path)
    assert back == stacks


def test_sampled_frequencies_track_the_oracle():
    # pass probability at 45 degrees from the first listed preparation
    spec = _tiny_spec()
    stacks = sample_stacks(spec, ProcedureSpec({1: 1}), 4000, seed=101)
    est = estimate_prob(stacks, target=[Card(1, 1, 0)])
    assert abs(est.probability - 0.5) < 0.05


def _two_chain_kernel_spec():
    # chain order puts location 3 before location 2 in the draw order
    rng = np.random.default_rng(11)

    def family(location, size, outcomes_per_action):
        actions = []
        for a, n in enumerate(outcomes_per_action):
            kernel = rng.random((size, size))
            kernel /= kernel.sum(axis=0)
            split = rng.random((n, size, size))
            if (location, a) == (1, 0):
                split[0, :, 0] = 0.0  # outcome 0 never follows the first preparation
            split /= split.sum(axis=0)
            actions.append([kernel * part for part in split])
        return kernel_family(location, size, actions)

    return ClassicalSpec(
        chains=(Chain("left", 3, (1, 3)), Chain("right", 2, (2,))),
        instruments=(family(1, 3, (3, 2)), family(2, 2, (2,)), family(3, 3, (3,))),
        preparations=(ic_preparations("classical", 3), ic_preparations("classical", 2)),
        effects=(ic_effects("classical", 3), ic_effects("classical", 2)),
    )


def _reference_outcomes(spec, procedure, uniforms):
    """Run by run, location by location inverse-CDF draw; a weight at or
    below 1e-12 of the location's total counts as 0."""
    out = np.empty(uniforms.shape, dtype=int)
    for r, row in enumerate(uniforms):
        col = 0
        for ci, chain in enumerate(spec.chains):
            v = spec.preparations[ci][0]
            t = spec.total_covector(chain)
            for loc in chain.locations:
                mats = spec.family(loc).actions[procedure.action_at(loc)]
                weights = np.array([t @ (T @ v) for T in mats])
                cdf = np.cumsum(np.where(weights <= 1e-12 * weights.sum(), 0.0, weights))
                s = int(np.searchsorted(cdf / cdf[-1], row[col], side="right"))
                out[r, col] = s
                v = mats[s] @ v
                col += 1
    return out


def test_batched_draw_matches_the_per_run_reference():
    spec = _two_chain_kernel_spec()
    proc = ProcedureSpec({1: 0, 2: 0, 3: 0})
    uniforms = np.random.default_rng(5).random((500, 3))
    uniforms[:2] = [[0.0, 0.0, 0.0], [1 - 2**-53] * 3]
    got = spec.sample_cards(proc, uniforms)
    assert got.shape == (500, 3)
    np.testing.assert_array_equal(got, _reference_outcomes(spec, proc, uniforms))


def _two_chain_quantum_spec():
    # a qutrit chain (locations 1 and 3) measured in rotated bases, with a
    # three-outcome projective action, and a polarised qubit at location 2
    helmert = np.array([[1, 1, 1], [1, -1, 0], [1, 1, -2]]).T / np.sqrt([3, 2, 6])

    def basis(degrees):
        c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
        q = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]]) @ helmert
        return [np.outer(q[:, k], q[:, k]) for k in range(3)]

    def binary(c, p):
        # a weak test of the projector p: effects c p and 1 - c p
        return [[np.sqrt(c) * p], [np.eye(3) - p + np.sqrt(1 - c) * p]]

    b = basis(0)
    return QuantumSpec(
        chains=(Chain("qutrit", 3, (1, 3)), Chain("photon", 2, (2,))),
        instruments=(
            kraus_family(1, 3, [binary(0.7, b[0]), [[p] for p in b]]),
            polariser_family(2, [0, 30, 75]),
            kraus_family(3, 3, [[[p] for p in basis(40)], binary(0.4, b[1])]),
        ),
        preparations=(ic_preparations("quantum", 3), ic_preparations("quantum", 2)),
        effects=(ic_effects("quantum", 3), ic_effects("quantum", 2)),
    )


@pytest.mark.parametrize("actions", [(1, 1, 0), (0, 2, 1), (1, 0, 1)])
def test_batched_quantum_draw_matches_the_per_run_reference(actions):
    spec = _two_chain_quantum_spec()
    proc = ProcedureSpec(dict(zip((1, 2, 3), actions)))
    uniforms = np.random.default_rng(6).random((400, 3))
    uniforms[:2] = [[0.0, 0.0, 0.0], [1 - 2**-53] * 3]
    got = spec.sample_cards(proc, uniforms)
    np.testing.assert_array_equal(got, _reference_outcomes(spec, proc, uniforms))
    # columns run qutrit (locations 1, 3), then photon (location 2); every
    # outcome of a three-outcome action is drawn (the polariser at 0 degrees
    # never absorbs the first preparation)
    for col, loc in enumerate((1, 3, 2)):
        if spec.family(loc).n_outcomes(proc.action_at(loc)) == 3:
            assert set(got[:, col]) == {0, 1, 2}


def test_a_zero_uniform_never_draws_an_impossible_outcome(scenarios):
    # a uniform of 0 picks the first outcome whose weight counts; one whose
    # weight is rounding residue (about 1e-16 of the total) must not be it
    for name in SCENARIO_NAMES:
        spec = scenarios(name).spec
        locs = spec.locations()
        procedures = itertools.product(*(range(spec.family(x).n_actions) for x in locs))
        for actions in itertools.islice(procedures, 200):
            proc = ProcedureSpec(dict(zip(locs, actions)))
            drawn = iter(spec.sample_cards(proc, np.zeros((1, len(locs))))[0])
            for ci, chain in enumerate(spec.chains):
                v = spec.preparations[ci][0]
                t = spec.total_covector(chain)
                for loc in chain.locations:
                    mats = spec.family(loc).actions[proc.action_at(loc)]
                    weights = [t @ (T @ v) for T in mats]
                    s = next(drawn)
                    assert weights[s] > 1e-12 * sum(weights), (name, actions, loc)
                    v = mats[s] @ v


@pytest.mark.parametrize("shape", [(5,), (5, 2), (5, 4), (1, 5, 3)])
def test_sample_cards_rejects_wrongly_shaped_uniforms(shape):
    spec = _two_chain_quantum_spec()
    with pytest.raises(ValueError, match=r"uniforms must have shape \(runs, 3\)"):
        spec.sample_cards(ProcedureSpec({1: 0, 2: 0, 3: 0}), np.zeros(shape))


@pytest.mark.parametrize("bad", [-1e-300, 1.0, 1.5, np.nan, -np.inf])
def test_sample_cards_rejects_uniforms_outside_the_unit_interval(bad):
    spec = _two_chain_quantum_spec()
    uniforms = np.full((4, 3), 0.5)
    uniforms[2, 1] = bad
    with pytest.raises(ValueError, match=r"uniforms must lie in \[0, 1\)"):
        spec.sample_cards(ProcedureSpec({1: 0, 2: 0, 3: 0}), uniforms)


def test_sampled_outcome_tuples_track_joint_prob():
    spec = _two_chain_kernel_spec()
    proc = ProcedureSpec({1: 1, 2: 0, 3: 0})
    runs = 20000
    stacks = sample_stacks(spec, proc, runs, seed=17)
    counts: dict[tuple[int, ...], int] = {}
    for stack in stacks:
        key = tuple(stack.card_at(x).outcome for x in (1, 2, 3))
        counts[key] = counts.get(key, 0) + 1
    # the sampler starts from the first preparation and marginalizes the end
    oracle = dataclasses.replace(
        spec, effects=tuple((complete_effect("classical", c.size),) for c in spec.chains)
    )
    ext = ExteriorConfiguration((0, 0), (0, 0), (), True)
    regions = [Region((x,)) for x in (1, 2, 3)]
    total = 0.0
    for key in np.ndindex(2, 2, 3):
        labels = [((proc.action_at(x),), (s,)) for x, s in zip((1, 2, 3), key)]
        p = joint_prob(oracle, dict(zip(regions, labels)), ext)
        total += p
        freq = counts.get(tuple(key), 0) / runs
        assert abs(freq - p) <= 5 * np.sqrt(p * (1 - p) / runs) + 1e-12, key
    assert total == pytest.approx(1.0)
    assert sum(counts.values()) == runs


def test_sample_stacks_prefix_empty_and_bad_action():
    spec = _two_chain_kernel_spec()
    proc = ProcedureSpec({1: 1, 2: 0, 3: 0})
    assert sample_stacks(spec, proc, 64, seed=4)[:16] == sample_stacks(spec, proc, 16, seed=4)
    assert sample_stacks(spec, proc, 0, seed=4) == []
    with pytest.raises(UnknownProcedure):
        sample_stacks(spec, ProcedureSpec({1: 0, 2: 5, 3: 0}), 8, seed=4)


def test_dump_bytes_are_pinned(tmp_path):
    p = ProcedureSpec({1: 0, 2: 1})
    q = ProcedureSpec({1: 1, 2: 1})
    a = Stack([Card(2, 1, 1), Card(1, 0, 0)], p)
    stacks = [
        a,
        a,
        Stack([Card(1, 1, 1), Card(2, 1, 0)], q),
        Stack([Card(1, 0, 0), Card(2, 1, 1)], p),
        Stack([Card(1, 0, 1)], ProcedureSpec({1: 0})),
    ]
    path = tmp_path / "stacks.txt"
    dump_stacks(stacks, path)
    text = path.read_text(encoding="utf-8")
    # stack files outlive the program that wrote them: these bytes are fixed
    assert text == (
        "# stack 0 procedure 1:0 2:1\n1,0,0\n2,1,1\n\n"
        "# stack 1 procedure 1:0 2:1\n1,0,0\n2,1,1\n\n"
        "# stack 2 procedure 1:1 2:1\n1,1,1\n2,1,0\n\n"
        "# stack 3 procedure 1:0 2:1\n1,0,0\n2,1,1\n\n"
        "# stack 4 procedure 1:0\n1,0,1\n\n"
    )
    assert parse_stacks(text) == stacks


@pytest.mark.parametrize(
    "text, line",
    [
        ("1,0,0\n# stack 0 procedure 1:0\n\n", 1),  # before the first header
        ("# stack 0 procedure 1:0\n1,0,0\n\n1,0,1\n# stack 1 procedure 1:0\n", 4),
        ("# stack 0 procedure 1:0\n1,0,0\n\n1,0,1\n", 4),  # trailing
    ],
    ids=["before-first-header", "between-stacks", "trailing"],
)
def test_cards_outside_a_stack_are_rejected(text, line):
    with pytest.raises(SchemaError, match=f"line {line}: cards appear before any stack header"):
        parse_stacks(text)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# stack 0 procedure 1:0\n1,-1,0\n", 2, "bad card record '1,-1,0'"),
        ("# stack 0 procedure 1:0 2:1\n1,0,0\n2,0,1\n", 3,
         "card '2,0,1' disagrees with the procedure tag"),
        ("# stack 0 procedure 1:0\n1,0,0\n\n# stack 1 procedure 1:0\n1,0,1\n1,0,0\n", 6,
         "card '1,0,0' is a second card at its location"),
        ("# stack 0 procedure 1:0\n1,0,0\n2,0,0\n", 3,
         "card '2,0,0' has no action in the procedure tag"),
        ("# stack 0 procedure 1:0 1:1\n1,1,0\n\n", 1,
         "location 1 appears twice in the procedure tag"),
        ("# stack 0 procedure 1:0\n1,0,0\n\n# stack 1 procedure 2:0 3:1 3:1 2:1\n", 4,
         "location 3 appears twice in the procedure tag"),
    ],
    ids=["negative-field", "other-action", "second-card", "unnamed-location",
         "location-twice-in-tag", "first-repeat-is-named"],
)
def test_malformed_cards_name_their_line(text, line, message):
    with pytest.raises(SchemaError) as info:
        parse_stacks(text)
    assert str(info.value) == f"line {line}: {message}"


def test_a_repeated_card_is_rejected():
    # dump_stacks never writes a card twice, so a repeat marks a corrupt file
    for text, line in (
        ("# stack 0 procedure 1:0 2:1\n1,0,1\n2,1,0\n1,0,1\n", 4),
        ("# stack 0 procedure 1:0 2:1\n1,0,1\n1,0,1\n2,1,0\n\n", 3),
    ):
        with pytest.raises(SchemaError) as info:
            parse_stacks(text)
        assert str(info.value) == f"line {line}: card '1,0,1' is a second card at its location"
    with pytest.raises(ValueError, match="at most one card per location"):
        Stack([Card(1, 0, 1), Card(1, 0, 1)], ProcedureSpec({1: 0}))


def _line_parse_stacks(text):
    """Reference: parse_stacks as one Python step per line."""
    stacks = []
    tags, cards, built = {}, {}, {}
    tag_text, lines = None, []

    def flush():
        key = (tag_text, tuple(lines))
        if key not in built:
            built[key] = Stack((cards[c] for c in lines), tags[tag_text])
        stacks.append(built[key])

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            if tag_text is not None:
                flush()
                tag_text = None
            continue
        if line.startswith("#"):
            if tag_text is not None:
                flush()
            parts = line.split("procedure", 1)
            if len(parts) != 2:
                raise SchemaError("stack header lacks a procedure tag", f"line {lineno}")
            tag_text, lines = parts[1], []
            if tag_text not in tags:
                try:
                    pairs = [tuple(int(t) for t in item.split(":")) for item in tag_text.split()]
                    tags[tag_text] = ProcedureSpec(dict((x, a) for x, a in pairs))
                except (ValueError, TypeError) as exc:
                    raise SchemaError(f"bad procedure tag: {exc}", f"line {lineno}") from exc
                seen = set()
                for x, _ in pairs:
                    if x in seen:
                        raise SchemaError(f"location {x} appears twice in the procedure tag",
                                          f"line {lineno}")
                    seen.add(x)
            continue
        if tag_text is None:
            raise SchemaError("cards appear before any stack header", f"line {lineno}")
        if line not in cards:
            try:
                x, a, s = (int(t) for t in line.split(","))
                cards[line] = Card(x, a, s)
            except ValueError as exc:
                raise SchemaError(f"bad card record {line!r}", f"line {lineno}") from exc
        card, actions = cards[line], dict(tags[tag_text].assignment)
        if card.location not in actions:
            raise SchemaError(f"card {line!r} has no action in the procedure tag",
                              f"line {lineno}")
        if card.action != actions[card.location]:
            raise SchemaError(f"card {line!r} disagrees with the procedure tag",
                              f"line {lineno}")
        if any(cards[seen].location == card.location for seen in lines):
            raise SchemaError(f"card {line!r} is a second card at its location",
                              f"line {lineno}")
        lines.append(line)
    if tag_text is not None:
        flush()
    return stacks


def _parse_verdict(parse, text):
    try:
        return parse(text)
    except SchemaError as exc:
        return type(exc), str(exc)


MALFORMED_STACKS = [
    "", "\n\n\n", "#\n", "# stack 0\n1,0,0\n", "# stack 0 procedure 1:x\n1,0,0\n",
    "# stack 0 procedure -1:0\n", "# stack 0 procedure 1:0\n1,0\n",
    "# stack 0 procedure 1:0\n1,1,0\n", "# stack 0 procedure 1:0 1:1\n1,1,0\n",
    "# stack 0 procedure 1:0\n1,0,0\n1,0,1\n", "# stack 0 procedure 1:0\n1,-1,0\n",
    "# stack 0 procedure 1:0\n2,0,0\n",
    "#procedure 1:0\n1,0,0\n# procedure 1:0\n1,0,0",
    "# a procedure 1:0 procedure 2\n1,0,0\n",
    "# stack 0 procedure 1:0\n\n1,0,0\n", "# stack 0 procedure 1:0\n   \n1,0,0\n",
    "# stack 0 procedure 1:0\x0b1,0,0\x0c\n", "# s\x0bprocedure 1:0\n\n1,0,0\n",
    "1,0,0\x0b# stack 0 procedure 1:0\n", "# stack 0 procedure 1:0\r\n1,0,0\r\n\r\n",
    "# stack 0 procedure 1:0\n1,0,0\n# stack 1 procedure\n\n", "x\n#procedure 1:0\n",
    # a valid piece, then a faulty one with the same text from "procedure" on
    "# stack 0 procedure 1:0\n1,0,0\n\n# s\x0bprocedure 1:0\n1,0,0",
    "# stack 0 procedure 1:0\n1,0,0\n\n1,0,0 procedure 1:0\n1,0,0",
    "# s procedure 1:0\n1,0,0\n\n 1:0\n1,0,0",
]


def test_parse_stacks_matches_the_line_parser():
    spec = QuantumSpec(
        chains=(Chain("photon", 2, (1, 2, 3)),),
        instruments=tuple(polariser_family(x, [0, 30, 60, 90]) for x in (1, 2, 3)),
        preparations=(ic_preparations("quantum", 2),),
        effects=(ic_effects("quantum", 2),),
    )
    buf = io.StringIO()
    buf.write(_write_stacks(sample_stacks(spec, ProcedureSpec({1: 0, 2: 1, 3: 2}), 200, 7)))
    dump = buf.getvalue()
    texts = [dump, dump.replace("\n", "\r\n"), " " + dump.replace("\n", " \n\t")]
    texts += MALFORMED_STACKS
    # line-level edits of the dump: dropped, doubled, blanked and spliced lines
    rng = random.Random(1)
    lines = dump.split("\n")[:40]
    scraps = ["", " ", "#", "# stack 9 procedure 1:0 2:1 3:2", "1,0,0", "2,1,1", "x",
              "procedure", ",", ":", "\r", "\t"]
    for _ in range(500):
        edited = list(lines)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(edited))
            j = rng.randrange(len(edited[i]) + 1)
            edit = rng.choice(("replace", "delete", "insert", "splice"))
            if edit == "replace":
                edited[i] = rng.choice(scraps)
            elif edit == "delete":
                del edited[i]
            elif edit == "insert":
                edited.insert(i, rng.choice(scraps))
            else:
                edited[i] = edited[i][:j] + rng.choice(scraps) + edited[i][j:]
        texts.append("\n".join(edited))
    failures = 0
    for text in texts:
        want = _parse_verdict(_line_parse_stacks, text)
        assert _parse_verdict(parse_stacks, text) == want, repr(text)
        failures += isinstance(want, tuple)
    assert 100 < failures < len(texts) - 100  # both outcomes are well covered
