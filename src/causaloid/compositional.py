"""Second-level compression over composite regions.

The fiducial sets of disjoint regions multiply into a product row set;
the joint probabilities at those multi-indices are usually linearly
dependent, and the surviving independent subset is the composite fiducial
set. Strict shrinkage of that subset against the full product is the
signature of causal adjacency.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContextMismatch, DegenerateExterior, MissingEntry
from .operational import Region, disjoint_union
from .tables import MeasurementMatrix, ProbTable
from .tomographic import (
    DEFAULT_RANK_TOL,
    OmegaSet,
    _label_row_set,
    _row_set,
    check_expansion,
    find_fiducial_set,
    fold_to_exterior,
)

if TYPE_CHECKING:
    from .causaloid import Causaloid

__all__ = [
    "CompositionalLambda",
    "joint_fiducial_matrix",
    "PairCompression",
    "AdjacencyGraph",
    "adjacency_graph",
]


@dataclass(frozen=True, eq=False)
class CompositionalLambda:
    """Expansion of product fiducial rows over the composite fiducial set.

    The factors are two or more pairwise-disjoint regions, ordered by least
    location. Rows enumerate the product of the factor fiducial sets, last
    factor fastest; rows whose multi-index lies in the composite set are
    standard basis vectors.
    """

    factor_omegas: tuple[OmegaSet, ...]
    omega: OmegaSet
    matrix: np.ndarray

    def __post_init__(self):
        factors = [o.region for o in self.factor_omegas]
        if len(factors) < 2:
            raise ValueError("a composite needs at least two constituents")
        rows = _product_row_set(self.factor_omegas)  # raises if two factors overlap
        if factors != sorted(factors):
            raise ValueError("constituents must be ordered by least location")
        if _row_set(self.omega) != rows:
            raise ValueError(
                "composite fiducial set must index the product of the "
                "factors' fiducial sets"
            )
        check_expansion(self.omega, self.matrix)

    @property
    def region(self) -> Region:
        return self.omega.region

    @property
    def product_size(self) -> int:
        return self.omega.parent_size


def product_rows(factor_omegas: Sequence[OmegaSet]) -> OmegaSet:
    """Every multi-index over the factors' fiducial sets, last factor fastest.

    The region is the union of the factors' regions, which must be
    pairwise disjoint.
    """
    return _product_row_set(factor_omegas).every_row()


def _product_row_set(factor_omegas: Sequence[OmegaSet]) -> OmegaSet:
    # product_rows with no row listed, as tomographic._row_set describes it
    dims = tuple(o.size for o in factor_omegas)
    return OmegaSet(
        region=disjoint_union(o.region for o in factor_omegas),
        indices=(),
        parent_size=math.prod(dims),
        row_kind="omega-product",
        factors=tuple(o.region for o in factor_omegas),
        dims=dims,
    )


def product_leaf_rows(
    parts: Sequence[tuple[tuple[Region, ...], np.ndarray]], omega: OmegaSet
) -> tuple[tuple[Region, ...], np.ndarray]:
    """Leaf rows of the product rows ``omega`` selects, in ``parts``' form.

    ``parts`` holds, per factor, its leaf regions and an ``(n, k)`` array
    of one gamma row index per leaf for each of its n fiducial elements.
    Each row of ``omega`` (a flat index over its ``dims``, last factor
    fastest) joins one such row per factor.
    """
    pos = np.unravel_index(np.array(omega.indices, dtype=np.intp), omega.dims)
    leaves = tuple(itertools.chain(*(part[0] for part in parts)))
    return leaves, np.concatenate([part[1][q] for part, q in zip(parts, pos)], axis=1)


def fiducial_rows_matrix(
    table: ProbTable,
    parts: Sequence[tuple[tuple[Region, ...], np.ndarray]],
    factor_omegas: Sequence[OmegaSet],
) -> MeasurementMatrix:
    """Joint probabilities at every product of the factors' fiducial rows.

    ``parts`` holds, per factor, its leaf regions and its leaf rows, as
    ``product_leaf_rows`` takes them. The rows are
    ``product_rows(factor_omegas)``. Leaves need not cover the whole table;
    the remaining regions fold into the exterior axis.
    """
    product = product_rows(factor_omegas)
    leaves, rows = product_leaf_rows(parts, product)
    vals, exteriors = fold_to_exterior(table, leaves)
    if len(exteriors) < 2:
        raise DegenerateExterior(
            "the joint table varies over a single exterior configuration; "
            "embed the regions in a larger predictively well-defined region"
        )
    return MeasurementMatrix(
        product, exteriors, np.ascontiguousarray(vals[tuple(rows.T)])
    )


def joint_fiducial_matrix(
    table: ProbTable, omegas: Sequence[OmegaSet]
) -> MeasurementMatrix:
    """Joint probabilities at every product of factor fiducial labels.

    Factors are put in canonical order (least location first); the row
    multi-index runs lexicographically with the last factor fastest.
    """
    omegas = tuple(sorted(omegas, key=lambda o: o.region))
    if len(omegas) < 2:
        raise ValueError("a joint matrix needs at least two factors")
    for o in omegas:
        gamma = table.gammas[table.region_axis(o.region)]
        if _row_set(o) != _label_row_set(gamma):
            raise ContextMismatch(
                f"fiducial set of {o.region} does not index this table"
            )
    parts = [((o.region,), np.array(o.indices, dtype=np.intp)[:, None]) for o in omegas]
    return fiducial_rows_matrix(table, parts, omegas)


@dataclass(frozen=True)
class PairCompression:
    """One pairwise composite run, kept for graph assembly and reporting."""

    first: Region
    second: Region
    composite_size: int
    product_size: int

    @property
    def adjacent(self) -> bool:
        return self.composite_size < self.product_size


@dataclass(frozen=True)
class AdjacencyGraph:
    """Undirected graph over regions; edges mark causal adjacency."""

    regions: tuple[Region, ...]
    pairs: tuple[PairCompression, ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for p in self.pairs:
            if p.adjacent:
                out.append(
                    (self.regions.index(p.first), self.regions.index(p.second))
                )
        return tuple(out)

    def adjacent(self, first: Region, second: Region) -> bool:
        for p in self.pairs:
            if {p.first, p.second} == {first, second}:
                return p.adjacent
        raise ContextMismatch(f"no pair run covers {first} and {second}")


def adjacency_graph(
    causaloid: Causaloid, table: ProbTable, tol: float = DEFAULT_RANK_TOL
) -> AdjacencyGraph:
    """Map out causal adjacency over every region pair of a registry.

    Pair sizes are read from the registry's pair entries; a pair it lacks
    is compressed here from the registry's per-region fiducial sets.
    """
    regions = causaloid.regions
    pairs = []
    for a, b in itertools.combinations(regions, 2):
        try:
            omega = causaloid.entry((a, b)).omega
        except MissingEntry:
            joint = joint_fiducial_matrix(
                table, [causaloid.omega_of(a), causaloid.omega_of(b)]
            )
            omega = find_fiducial_set(joint, tol)
        pairs.append(
            PairCompression(
                first=a,
                second=b,
                composite_size=omega.size,
                product_size=omega.parent_size,
            )
        )
    return AdjacencyGraph(regions=regions, pairs=tuple(pairs))
