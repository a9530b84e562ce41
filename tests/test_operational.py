"""Cards, stacks, regions, procedures, and frequency estimation."""
from __future__ import annotations

import pytest

from causaloid import (
    Card,
    Chain,
    FullPack,
    ProcedureSpec,
    QuantumSpec,
    Region,
    Stack,
    ZeroConditionCount,
    dump_stacks,
    estimate_prob,
    ic_effects,
    ic_preparations,
    load_stacks,
    polariser_family,
    sample_stacks,
)
from causaloid.errors import UnknownRegion


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


def test_procedure_sorts_and_restricts():
    p = ProcedureSpec({3: 0, 1: 2})
    assert p.assignment == ((1, 2), (3, 0))
    assert p.action_at(3) == 0
    q = p.restricted(Region((1,)))
    assert q.assignment == ((1, 2),)
    with pytest.raises(UnknownRegion):
        p.restricted(Region((1, 2)))
    with pytest.raises(UnknownRegion):
        p.action_at(7)


def test_full_pack_enumerates_and_validates():
    pack = FullPack(locations=(1, 2), outcome_counts=((2, 2), (3,)))
    cards = list(pack.cards())
    assert len(cards) == 2 + 2 + 3
    assert all(pack.card_valid(c) for c in cards)
    assert not pack.card_valid(Card(1, 2, 0))
    assert not pack.card_valid(Card(9, 0, 0))
    pack.validate_procedure(ProcedureSpec({1: 1, 2: 0}))
    with pytest.raises(ValueError):
        pack.validate_procedure(ProcedureSpec({1: 1}))
    with pytest.raises(ValueError):
        pack.validate_procedure(ProcedureSpec({1: 5, 2: 0}))


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
