"""Prediction heralding: is a requested conditional exterior-independent?

A conditional probability deserves a single number only when the joint
measurement vector of the asked event is parallel to the summed vector of
its conditioning context. The parallelism defect is tested by projection
residual, which stays meaningful when components vanish. Queries that
fail the test get a concrete witness: two exterior configurations whose
direct conditionals disagree.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .causaloid import Causaloid, hybrid_product
from .errors import (
    UnknownExterior,
    UnknownProcedure,
    UnknownLabel,
    ZeroDenominator,
    ZeroDenominatorVector,
)
from .operational import Region, disjoint_union
from .tables import ExteriorAxis, ExteriorConfiguration, Label, ProbTable
from .tomographic import RVector, r_vector

__all__ = [
    "HeraldQuery",
    "HeraldResult",
    "herald",
    "conditional_from_table",
    "conditional_sweep",
]

DEFAULT_HERALD_TOL = 1e-8
# conditionals below this joint weight are treated as division by zero
MIN_DENOMINATOR = 1e-12


@dataclass(frozen=True)
class HeraldQuery:
    """One conditional-probability request.

    The target fixes the asked label of one region; conditions fix labels
    of further regions. Each label's action part is the procedure at its
    region.
    """

    target: tuple[Region, Label]
    conditions: tuple[tuple[Region, Label], ...]

    def __post_init__(self):
        disjoint_union(self.named_regions)

    @classmethod
    def from_labels(
        cls,
        target: tuple[Region, Label],
        conditions: Sequence[tuple[Region, Label]] = (),
    ) -> "HeraldQuery":
        return cls(target=target, conditions=tuple(conditions))

    @property
    def named_regions(self) -> tuple[Region, ...]:
        return tuple(sorted([self.target[0]] + [r for r, _ in self.conditions]))


@dataclass(frozen=True)
class HeraldResult:
    """Outcome of one heralding test.

    ``residual`` is the relative parallelism defect |u - p v| / |v|; ``p``
    is the raw ratio u.v / v.v, present only when the test passes.
    ``witness`` carries two exterior configurations with maximally
    disagreeing direct conditionals when the test fails and a table was
    supplied.
    """

    well_defined: bool
    p: float | None
    residual: float
    witness: (
        tuple[
            tuple[ExteriorConfiguration, float],
            tuple[ExteriorConfiguration, float],
        ]
        | None
    )

    def __post_init__(self):
        if self.well_defined and self.p is None:
            raise ValueError("a passing test must carry its probability")
        if not self.well_defined and self.p is not None:
            raise ValueError("a failing test carries no single probability")


def _consistent_rows(
    causaloid: Causaloid, region: Region, actions: tuple[int, ...]
) -> tuple[int, ...]:
    try:
        return causaloid.tomographic(region).gamma.labels_for_action(actions)
    except UnknownLabel:
        raise UnknownProcedure(
            f"no label of {region} has action part {actions}"
        ) from None


def herald(
    causaloid: Causaloid,
    query: HeraldQuery,
    tol: float = DEFAULT_HERALD_TOL,
    table: ProbTable | None = None,
) -> HeraldResult:
    """Test whether the queried conditional is exterior-independent.

    Builds u as the joint vector of target plus conditions and v as the
    same joint with the target summed over all outcome-consistent labels.
    The conditional is declared well-defined iff u lies within tol of the
    ray through v, in units of |v|.
    """
    target_region, target_label = query.target
    fixed = dict(query.conditions)

    summed = _consistent_rows(causaloid, target_region, target_label[0])
    u_parts = []
    v_parts = []
    for region in query.named_regions:
        lam = causaloid.tomographic(region)
        if region == target_region:
            u_parts.append(r_vector(target_label, lam))
            acc = np.zeros(lam.omega.size)
            for row in summed:
                acc = acc + lam.matrix[row]
            v_parts.append(RVector(lam.omega, acc))
        else:
            u_parts.append(r_vector(fixed[region], lam))
            v_parts.append(u_parts[-1])
    u = hybrid_product(causaloid, u_parts).components
    v = hybrid_product(causaloid, v_parts).components

    v_norm = float(np.linalg.norm(v))
    if v_norm <= tol:
        raise ZeroDenominatorVector(
            "the conditioning context sums to a vanishing vector; "
            "no normalizable conditional exists"
        )
    p_raw = float(u @ v) / float(v @ v)
    residual = float(np.linalg.norm(u - p_raw * v)) / v_norm
    if residual <= tol:
        return HeraldResult(
            well_defined=True, p=p_raw, residual=residual, witness=None
        )
    witness = None
    if table is not None:
        witness = _max_disagreement(table, query)
    return HeraldResult(
        well_defined=False, p=None, residual=residual, witness=witness
    )


def _conditional_parts(
    table: ProbTable, query: HeraldQuery
) -> tuple[np.ndarray, np.ndarray, ExteriorAxis]:
    """Numerator and denominator of the direct conditional at every column.

    Numerator: joint weight of all named labels. Denominator: the same with
    the target summed over outcome-consistent labels. Each is read from the
    table at the named labels; every other region folds into the exterior
    axis, in table order, with the original exterior fastest.
    """
    named = query.named_regions
    axes = [table.region_axis(r) for r in named]
    fixed = dict(query.conditions)
    fixed[query.target[0]] = query.target[1]
    sel: list = [slice(None)] * table.values.ndim
    for r, axis in zip(named, axes):
        sel[axis] = table.gammas[axis].index_of(fixed[r])
    t_axis = axes[named.index(query.target[0])]
    num = table.values[tuple(sel)].reshape(-1)
    den = np.zeros_like(num)
    for row in table.gammas[t_axis].labels_for_action(query.target[1][0]):
        sel[t_axis] = row
        den = den + table.values[tuple(sel)].reshape(-1)
    folded = [g for i, g in enumerate(table.gammas) if i not in axes]
    return num, den, table.exteriors.fold(folded)


def conditional_from_table(
    table: ProbTable, query: HeraldQuery, exterior_index: int
) -> float:
    """The direct conditional at one folded exterior configuration.

    This is the diagnostic route used to exhibit exterior-dependence.
    """
    num, den, exteriors = _conditional_parts(table, query)
    if not 0 <= exterior_index < len(exteriors):
        raise UnknownExterior(f"exterior index {exterior_index} out of range")
    d = float(den[exterior_index])
    if d <= MIN_DENOMINATOR:
        raise ZeroDenominator(
            f"conditioning event has probability {d:.3e} at exterior "
            f"{exterior_index}"
        )
    return float(num[exterior_index]) / d


def conditional_sweep(
    table: ProbTable, query: HeraldQuery
) -> tuple[tuple[ExteriorConfiguration, float | None], ...]:
    """The direct conditional at every folded exterior; None where undefined."""
    num, den, exteriors = _conditional_parts(table, query)
    return tuple(
        (ext, None if d <= MIN_DENOMINATOR else float(n / d))
        for ext, n, d in zip(exteriors, num, den)
    )


def _max_disagreement(table: ProbTable, query: HeraldQuery):
    """The first columns of highest and of lowest defined conditional."""
    num, den, exteriors = _conditional_parts(table, query)
    defined = np.flatnonzero(den > MIN_DENOMINATOR)
    if defined.size < 2:
        return None
    p = num[defined] / den[defined]
    hi, lo = int(np.argmax(p)), int(np.argmin(p))
    if p[hi] == p[lo]:
        return None
    return (
        (exteriors[int(defined[hi])], float(p[hi])),
        (exteriors[int(defined[lo])], float(p[lo])),
    )
