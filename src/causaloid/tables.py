"""Label sets, exterior configurations, and probability tables.

A measurement label pairs the action part and the outcome part of what
happened inside a region, one component per location. Everything outside
the probed regions (preparations, terminal effects, conditioning at
unprobed locations) is folded into an exterior-configuration axis; the
rank structure of a table over that axis is what the compression layers
consume.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import UnknownLabel, UnknownRegion
from .operational import Region

if TYPE_CHECKING:
    from .tomographic import OmegaSet

__all__ = [
    "GammaSet",
    "ExteriorConfiguration",
    "ExteriorAxis",
    "ProbTable",
    "MeasurementMatrix",
]

# (action per location, outcome per location), aligned with the region's
# sorted location tuple
Label = tuple[tuple[int, ...], tuple[int, ...]]

# how far a fixed procedure's outcome sum may stray from its bound
OUTCOME_SUM_TOL = 1e-10


@dataclass(frozen=True)
class GammaSet:
    """The ordered measurement labels of one region."""

    region: Region
    labels: tuple[Label, ...]

    def __post_init__(self):
        k = len(self.region)
        for actions, outcomes in self.labels:
            if len(actions) != k or len(outcomes) != k:
                raise ValueError("label component count must match the region size")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        if list(self.labels) != sorted(self.labels):
            raise ValueError("labels must be sorted by (action tuple, outcome tuple)")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: Label) -> int:
        try:
            return self._lookup[label]
        except KeyError:
            raise UnknownLabel(f"label {label} is not in the label set of {self.region}") from None

    @cached_property
    def _lookup(self) -> dict[Label, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def labels_for_action(self, actions: tuple[int, ...]) -> tuple[int, ...]:
        """Indices of the labels sharing one action assignment."""
        hits = tuple(i for i, (a, _) in enumerate(self.labels) if a == actions)
        if not hits:
            raise UnknownLabel(f"no label of {self.region} has action part {actions}")
        return hits


@dataclass(frozen=True)
class ExteriorConfiguration:
    """One choice of everything outside the probed regions.

    ``preparations`` and ``effects`` hold one index per chain (in chain
    order); ``conditioning`` fixes an (action, outcome) card at each
    unprobed location. ``complete`` records whether every chain's terminal
    effect for this configuration is a complete one.
    """

    preparations: tuple[int, ...]
    effects: tuple[int, ...]
    conditioning: tuple[tuple[int, tuple[int, int]], ...]
    complete: bool

    def __post_init__(self):
        locs = [x for x, _ in self.conditioning]
        if locs != sorted(locs) or len(set(locs)) != len(locs):
            raise ValueError("conditioning must be sorted by location and duplicate-free")

    def describe(self) -> dict:
        out: dict = {
            "preparations": list(self.preparations),
            "effects": list(self.effects),
        }
        if self.conditioning:
            out["conditioning"] = {str(x): [a, s] for x, (a, s) in self.conditioning}
        return out


@dataclass(frozen=True)
class ExteriorAxis:
    """The exterior axis of a table as a mixed-radix index.

    Digits, slowest first: the label of each folded region (in ``folded``
    order), each chain's preparation, the (action, outcome) card at each
    unprobed location (ascending), and each chain's terminal effect.
    ``conditioning`` holds, per unprobed location, its cards in digit
    order; ``effects`` holds, per chain, one completeness flag per effect.
    An index decodes to one ExteriorConfiguration only when asked for.
    """

    folded: tuple[GammaSet, ...]
    preparations: tuple[int, ...]
    conditioning: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    effects: tuple[tuple[bool, ...], ...]

    @property
    def radices(self) -> tuple[int, ...]:
        return (
            tuple(g.size for g in self.folded)
            + self.preparations
            + tuple(len(cards) for _, cards in self.conditioning)
            + tuple(len(flags) for flags in self.effects)
        )

    def __len__(self) -> int:
        return math.prod(self.radices)

    def __getitem__(self, index: int) -> ExteriorConfiguration:
        radices = self.radices
        n = math.prod(radices)
        j = operator.index(index)
        if j < 0:
            j += n
        if not 0 <= j < n:
            raise IndexError(f"exterior index {index} out of range")
        digits = []
        for radix in reversed(radices):
            j, d = divmod(j, radix)
            digits.append(d)
        return self._decode(reversed(digits))

    def __iter__(self):
        # every digit tuple in index order: the last digit runs fastest
        return map(self._decode, itertools.product(*map(range, self.radices)))

    def _decode(self, digits) -> ExteriorConfiguration:
        """The configuration of one index's digits, slowest first."""
        it = iter(digits)
        cards = []
        for g in self.folded:
            actions, outcomes = g.labels[next(it)]
            cards.extend(zip(g.region.locations, zip(actions, outcomes)))
        preps = tuple(next(it) for _ in self.preparations)
        cards.extend((x, choices[next(it)]) for x, choices in self.conditioning)
        effs = tuple(next(it) for _ in self.effects)
        complete = all(flags[e] for flags, e in zip(self.effects, effs))
        return ExteriorConfiguration(preps, effs, tuple(sorted(cards)), complete)

    def fold(self, gammas: Sequence[GammaSet]) -> "ExteriorAxis":
        """The axis with ``gammas``' labels as new slowest digits."""
        return replace(self, folded=tuple(gammas) + self.folded)

    def unit_sum_mask(self) -> np.ndarray:
        """Columns with complete effects on every chain and no conditioning.

        Outcome sums over a fixed procedure must be exactly 1 there.
        """
        if self.folded or self.conditioning:
            return np.zeros(len(self), dtype=bool)
        complete = np.ones((), dtype=bool)
        for flags in self.effects:
            complete = np.logical_and.outer(complete, np.array(flags, dtype=bool))
        return np.tile(complete.reshape(-1), math.prod(self.preparations))


@dataclass(frozen=True, eq=False)
class ProbTable:
    """Joint outcome probabilities over region labels and exteriors.

    ``values`` has one axis per region (in ``regions`` order) plus a final
    exterior axis. Entries are joint probabilities of all region outcomes
    and all exterior outcome parts, given the actions.
    """

    regions: tuple[Region, ...]
    gammas: tuple[GammaSet, ...]
    exteriors: ExteriorAxis
    values: np.ndarray

    def __post_init__(self):
        expected = tuple(g.size for g in self.gammas) + (len(self.exteriors),)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        for r, g in zip(self.regions, self.gammas):
            if g.region != r:
                raise ValueError("gamma sets must align with the region list")
        self.values.setflags(write=False)

    @property
    def n_entries(self) -> int:
        return int(self.values.size)

    def region_axis(self, region: Region) -> int:
        try:
            return self.regions.index(region)
        except ValueError:
            raise UnknownRegion(f"table has no region {region}") from None

    def validate(self) -> None:
        """Check probability bounds and per-procedure outcome sums."""
        v = self.values
        if v.min() < -1e-12 or v.max() > 1 + 1e-12:
            raise ValueError("table entries must lie in [0, 1]")
        # For each exterior and each joint action choice the outcome sum is a
        # sub-probability; with complete terminal effects and no conditioning
        # outcomes in the exterior it must be exactly 1. Labels sort by action
        # first, so each region's action groups are contiguous runs of its axis
        # and one reduceat per axis sums every group at once.
        sums = v
        for axis, g in enumerate(self.gammas):
            actions = [a for a, _ in g.labels]
            starts = [i for i, a in enumerate(actions) if i == 0 or a != actions[i - 1]]
            sums = np.add.reduceat(sums, starts, axis=axis)
        if sums.max() > 1 + OUTCOME_SUM_TOL:
            raise ValueError("outcome sums exceed 1 for a fixed procedure")
        if (np.abs(sums[..., self.exteriors.unit_sum_mask()] - 1) > OUTCOME_SUM_TOL).any():
            raise ValueError("complete terminal effects must give unit outcome sums")


@dataclass(frozen=True, eq=False)
class MeasurementMatrix:
    """Rows of joint probabilities over the exterior axis.

    ``rows`` keeps every row of the parent row set it tabulates: the labels
    of one region, or the product of the factors' fiducial sets.
    """

    rows: OmegaSet
    exteriors: ExteriorAxis
    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.exteriors):
            raise ValueError("matrix columns must match the exterior axis")
        if self.rows.parent_size != self.n_rows:
            raise ValueError("the row set size must equal the row count")
        self.values.setflags(write=False)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]


# the greedy scan's block screen (see greedy_independent_rows): the run of
# per-row rejections that starts it, its first and its largest block
_SCREEN_AFTER = 2
_SCREEN_FIRST = 8
_SCREEN_BLOCK = 64
_EPS = float(np.finfo(float).eps)


def _residual(basis: np.ndarray, basis_t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v`` with its projection onto the basis rows removed, in two passes."""
    r = v - basis_t.dot(basis.dot(v))
    r -= basis_t.dot(basis.dot(r))
    return r


def _screened(block: np.ndarray, basis: np.ndarray, tol: float, c: float) -> int:
    """How many leading rows of ``block`` the scan rejects for certain.

    Each row is projected against the basis as ``_residual`` does, for
    the whole block in one product. A block residual ``r`` differs from
    the per-row one by at most ``c * |v|``, so a row whose ``|r| + c * |v|``
    stays below ``tol * max(1, |v|)`` would be rejected on the per-row
    path too.
    """
    # overflow or non-finite rows leave a row undecided; the per-row path
    # raises whatever warnings it raised before
    basis_t = basis.T
    with np.errstate(all="ignore"):
        r = block - block.dot(basis_t).dot(basis)
        r -= r.dot(basis_t).dot(basis)
        r *= r
        norms = np.sqrt(r.sum(axis=1))
        lengths = np.sqrt(np.square(block).sum(axis=1))
        certain = norms + c * lengths < tol * np.maximum(lengths, 1.0)
    n = int(certain.argmin())
    return len(certain) if certain[n] else n


def greedy_independent_rows(values: np.ndarray, tol: float) -> tuple[int, ...]:
    """Lowest-index maximal set of linearly independent rows.

    Scans rows in order and keeps a row when its residual after projection
    onto the span of the rows already kept exceeds ``tol * max(1, |row|)``.
    Two projection passes keep the retained basis orthonormal to workable
    precision. At most ``values.shape[1]`` rows are returned, in
    increasing order: the scan stops once that many are kept, since no
    larger set is independent, whatever ``tol``.

    Rows whose rejection is certain skip the per-row projections, and the
    kept set and its basis come out bit-identical to a scan of every row.
    After two per-row rejections in a row, the next block of rows is
    projected in one product (``_screened``): 8 rows, doubled after every
    block rejected in full up to 64, while 8 rows remain. With ``w``
    columns and ``k`` kept rows, its residuals stray from the per-row ones
    by at most ``c * |row|``, ``c = 12 (w + k + 2) (k + 1)**2 * eps``, a
    first-order rounding bound for the two passes and the norms. A row is
    rejected there only when its block residual plus ``c * |row|`` stays
    below ``tol * max(1, |row|)``, and the block is screened only when
    ``c < tol``; an all-zero row, whose block residual is exactly 0, is
    then always rejected there. The first row the bound cannot decide, and
    so every row that may be kept, takes the per-row path.
    """
    rows = np.asarray(values, dtype=float)
    if rows.ndim != 2:
        raise ValueError("expected a 2-d array of rows")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    m, w = rows.shape
    chosen: list[int] = []
    # kept vectors fill the rows of one preallocated buffer; the basis is
    # its first len(chosen) rows
    buf = np.empty((min(m, w), w))
    basis = buf[:0]
    basis_t = basis.T
    # ndarray.dot makes the same BLAS calls as @ without the matmul ufunc's
    # dispatch; a residual at or below tol fails the bound, which is at
    # least tol, so |row| is only computed for the rows that may pass
    i = run = 0
    size = _SCREEN_FIRST
    while i < m and len(chosen) < w:
        k = len(chosen)
        if (
            run >= _SCREEN_AFTER
            and m - i >= _SCREEN_FIRST
            and (c := 12 * (w + k + 2) * (k + 1) ** 2 * _EPS) < tol
        ):
            n = _screened(rows[i:i + size], basis, tol, c)
            i += n
            if n == size:
                size = min(2 * size, _SCREEN_BLOCK)
            else:
                # row i (if any) is undecided: it takes the per-row path
                run = 0
                size = _SCREEN_FIRST
            continue
        v = rows[i]
        r = _residual(basis, basis_t, v)
        norm = math.sqrt(r.dot(r))
        if norm > tol and norm > tol * max(1.0, math.sqrt(v.dot(v))):
            buf[k] = r / norm
            chosen.append(i)
            basis = buf[:k + 1]
            basis_t = basis.T
            run = 0
        else:
            run += 1
        i += 1
    return tuple(chosen)
