"""Operational record keeping: cards, stacks, regions, procedures.

A single experimental run is recorded as a stack of cards, one card per
spacetime location. Each card holds the location id, the action chosen
there, and the observed outcome. Relative frequencies over repeated runs
are estimated directly from collections of stacks; everything downstream
(tables, compression) consumes exact backend probabilities instead.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, UnknownRegion, ZeroConditionCount, read_text, write_text

__all__ = [
    "Card",
    "Region",
    "ProcedureSpec",
    "Stack",
    "EstimateResult",
    "estimate_prob",
    "sample_stacks",
    "dump_stacks",
    "load_stacks",
    "parse_stacks",
]


@dataclass(frozen=True, order=True)
class Card:
    """One (location, action, outcome) record."""

    location: int
    action: int
    outcome: int

    def __post_init__(self):
        for name in ("location", "action", "outcome"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"card {name} must be a non-negative int, got {v!r}")


@dataclass(frozen=True, order=True)
class Region:
    """A non-empty set of locations, stored sorted and duplicate-free.

    Regions order by their sorted locations; for pairwise-disjoint regions
    that is least location first, the canonical order of every grouping.
    """

    locations: tuple[int, ...]

    def __init__(self, locations: Iterable[int]):
        locs = tuple(sorted(set(locations)))
        if not locs:
            raise ValueError("a region must contain at least one location")
        for x in locs:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise ValueError(f"region locations must be non-negative ints, got {x!r}")
        object.__setattr__(self, "locations", locs)
        # every registry lookup hashes regions: compute the dataclass hash once
        object.__setattr__(self, "_hash", hash((locs,)))

    def __hash__(self) -> int:
        return self._hash

    def __contains__(self, location: int) -> bool:
        return location in self.locations

    def __iter__(self):
        return iter(self.locations)

    def __len__(self) -> int:
        return len(self.locations)

    def __str__(self) -> str:
        return "{" + ",".join(str(x) for x in self.locations) + "}"


def disjoint_union(regions: Iterable[Region]) -> Region:
    """The union of pairwise-disjoint regions; ``ValueError`` if two overlap."""
    locations = [x for r in regions for x in r.locations]
    union = Region(locations)
    if len(union) != len(locations):
        raise ValueError("regions must be pairwise disjoint")
    return union


@dataclass(frozen=True)
class ProcedureSpec:
    """An action choice for every location in its domain.

    Stored as a sorted tuple of (location, action) pairs so instances are
    hashable and order-insensitive.
    """

    assignment: tuple[tuple[int, int], ...]

    def __init__(self, assignment: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = dict(assignment)
        pairs = tuple(sorted(items.items()))
        for x, a in pairs:
            if x < 0 or a < 0:
                raise ValueError("locations and actions must be non-negative")
        object.__setattr__(self, "assignment", pairs)

    def action_at(self, location: int) -> int:
        for x, a in self.assignment:
            if x == location:
                return a
        raise UnknownRegion(f"procedure assigns no action at location {location}")


@dataclass(frozen=True)
class Stack:
    """The cards of one run, tagged with the procedure that produced them."""

    cards: frozenset[Card]
    tag: ProcedureSpec

    def __init__(self, cards: Iterable[Card], tag: ProcedureSpec):
        cards = tuple(cards)
        locs = [c.location for c in cards]
        if len(set(locs)) != len(locs):
            raise ValueError("a stack holds at most one card per location")
        for c in cards:
            if c.action != tag.action_at(c.location):
                raise ValueError(f"card {c} disagrees with the procedure tag")
        object.__setattr__(self, "cards", frozenset(cards))
        object.__setattr__(self, "tag", tag)
        # runs with equal outcomes share one Stack, which writers and
        # counters then hash once per run: compute the hash once
        object.__setattr__(self, "_hash", hash((self.cards, tag)))

    def __hash__(self) -> int:
        return self._hash

    def sorted_cards(self) -> tuple[Card, ...]:
        return tuple(sorted(self.cards))


@dataclass(frozen=True)
class EstimateResult:
    probability: float
    numerator_count: int
    denominator_count: int


def estimate_prob(
    stacks: Sequence[Stack],
    target: Iterable[Card],
    condition: Iterable[Card] = (),
) -> EstimateResult:
    """Relative-frequency estimate of P(target outcomes | condition, procedures).

    The denominator counts stacks that contain every conditioning card and
    whose procedure tag matches every target card's action; the numerator
    additionally requires the target cards themselves. Conditioning on the
    named procedures is what makes the ratio a conditional probability
    rather than a joint one.
    """
    target = tuple(target)
    condition = tuple(condition)
    n_num = 0
    n_den = 0
    for stack, count in Counter(stacks).items():
        if not all(c in stack.cards for c in condition):
            continue
        try:
            if any(stack.tag.action_at(t.location) != t.action for t in target):
                continue
        except UnknownRegion:
            continue
        n_den += count
        if all(t in stack.cards for t in target):
            n_num += count
    if n_den == 0:
        raise ZeroConditionCount("no stack matches the conditioning event")
    return EstimateResult(n_num / n_den, n_num, n_den)


def sample_stacks(backend, procedure: ProcedureSpec, runs: int, seed: int) -> list[Stack]:
    """Simulate ``runs`` independent runs under one procedure.

    ``backend`` must provide ``chains`` (each with its ``locations``) and
    ``sample_cards(procedure, uniforms)``, which maps a ``(runs,
    n_locations)`` array of uniforms, columns in chain-then-location order,
    to the outcome of every run at every location. The uniforms come from
    one generator seeded by ``seed`` and are drawn row by row, so run i is
    a function of (seed, i) only: results are reproducible and a shorter
    batch is a prefix of a longer one. Runs with equal outcomes share one
    immutable ``Stack``.
    """
    if runs < 0:
        raise ValueError("runs must be non-negative")
    order = [x for chain in backend.chains for x in chain.locations]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    outcomes = backend.sample_cards(procedure, rng.random((runs, len(order))))
    rows, which = _distinct_rows(outcomes)
    actions = [procedure.action_at(x) for x in order]
    distinct = [
        Stack((Card(x, a, s) for x, a, s in zip(order, actions, row)), procedure)
        for row in rows.tolist()
    ]
    return [distinct[j] for j in which.tolist()]


def _distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-d array in lexicographic order, and the
    position of each input row among them: what ``np.unique(values,
    axis=0, return_inverse=True)`` returns, from one ``lexsort``."""
    order = np.lexsort(values.T[::-1])
    ordered = values[order]
    starts = np.ones(len(ordered), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    which = np.empty(len(ordered), dtype=np.intp)
    which[order] = np.cumsum(starts) - 1
    return ordered[starts], which


# ---------------------------------------------------------------------------
# stack persistence: newline-delimited "x,a,s" records grouped per run
# ---------------------------------------------------------------------------

def dump_stacks(stacks: Sequence[Stack], path) -> None:
    write_text(path, _write_stacks(stacks))


def _write_stacks(stacks: Sequence[Stack]) -> str:
    # everything after the run index depends on the stack alone, so each
    # distinct stack is formatted once
    bodies: dict[Stack, str] = {}
    parts = []
    for i, stack in enumerate(stacks):
        body = bodies.get(stack)
        if body is None:
            proc = " ".join(f"{x}:{a}" for x, a in stack.tag.assignment)
            cards = "".join(
                f"{c.location},{c.action},{c.outcome}\n" for c in stack.sorted_cards()
            )
            body = bodies[stack] = f" procedure {proc}\n{cards}\n"
        parts.append(f"# stack {i}{body}")
    return "".join(parts)


def load_stacks(path) -> list[Stack]:
    return parse_stacks(read_text(path))


def parse_stacks(text: str) -> list[Stack]:
    """Read the ``dump_stacks`` format back into stacks.

    A stack is a ``# ... procedure x:a ...`` header line followed by its
    ``x,a,s`` card lines; a blank line or the next header ends it. A card
    line outside a stack is a ``SchemaError`` naming its line, and so is
    one with a negative field, a location or action its tag does not give,
    or another card's location in its stack (a repeated card included), and
    a header whose tag names one location twice.
    The text is cut at its empty lines, and each distinct piece is parsed
    and validated once; equal pieces share their ``Stack`` objects. A piece
    that opens with a header is told apart only by its text from the
    header's procedure tag on, so the run index does not count.
    """
    stacks: list[Stack] = []
    parsed: dict[object, list[Stack]] = {}
    offset = 0
    for piece in text.split("\n\n"):
        head, sep, rest = piece.partition("procedure")
        if sep and head.isprintable() and head.lstrip().startswith("#"):
            key: object = (rest,)  # a tuple never equals a whole-piece key
        else:
            key = piece
        piece_stacks = parsed.get(key)
        if piece_stacks is None:
            piece_stacks = parsed[key] = _parse_piece(piece, text, offset)
        stacks += piece_stacks
        offset += len(piece) + 2
    return stacks


def _parse_piece(piece: str, text: str, offset: int) -> list[Stack]:
    """The stacks of ``piece``, which starts at ``text[offset]`` right
    after an empty line (or at the start)."""

    def where(i: int) -> str:
        return f"line {len(text[:offset].splitlines()) + 1 + i}"

    stacks: list[Stack] = []
    tag: ProcedureSpec | None = None
    cards: dict[int, Card] = {}
    actions: dict[int, int] = {}
    for i, raw in enumerate(piece.splitlines()):
        line = raw.strip()
        if not line or line.startswith("#"):
            if tag is not None:
                stacks.append(Stack(cards.values(), tag))
                tag = None
            if not line:
                continue
            parts = line.split("procedure", 1)
            if len(parts) != 2:
                raise SchemaError("stack header lacks a procedure tag", where(i))
            try:
                pairs = [tuple(int(t) for t in item.split(":")) for item in parts[1].split()]
                tag = ProcedureSpec(dict((x, a) for x, a in pairs))
            except (ValueError, TypeError) as exc:
                raise SchemaError(f"bad procedure tag: {exc}", where(i)) from exc
            if len(tag.assignment) < len(pairs):
                locations = [x for x, _ in pairs]
                twice = next(x for j, x in enumerate(locations) if x in locations[:j])
                raise SchemaError(
                    f"location {twice} appears twice in the procedure tag", where(i)
                )
            cards = {}
            actions = dict(tag.assignment)
            continue
        if tag is None:
            raise SchemaError("cards appear before any stack header", where(i))
        try:
            card = Card(*(int(t) for t in line.split(",")))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"bad card record {line!r}", where(i)) from exc
        if card.location not in actions:
            raise SchemaError(f"card {line!r} has no action in the procedure tag", where(i))
        if card.action != actions[card.location]:
            raise SchemaError(f"card {line!r} disagrees with the procedure tag", where(i))
        if card.location in cards:
            raise SchemaError(f"card {line!r} is a second card at its location", where(i))
        cards[card.location] = card
    if tag is not None:
        stacks.append(Stack(cards.values(), tag))
    return stacks
