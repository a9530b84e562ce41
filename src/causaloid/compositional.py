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
from .operational import Region
from .tables import MeasurementMatrix, ProbTable
from .tomographic import (
    DEFAULT_RANK_TOL,
    OmegaSet,
    check_expansion,
    find_fiducial_set,
    fold_to_exterior,
    label_rows,
)

if TYPE_CHECKING:
    from .causaloid import Causaloid

__all__ = [
    "CompositionalLambda",
    "product_rows",
    "joint_fiducial_matrix",
    "fiducial_rows_matrix",
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
        factors = tuple(o.region for o in self.factor_omegas)
        if len(factors) < 2:
            raise ValueError("a composite needs at least two constituents")
        seen: set[int] = set()
        for r in factors:
            if seen & set(r.locations):
                raise ValueError("constituents must be pairwise disjoint")
            seen |= set(r.locations)
        if [r.locations for r in factors] != sorted(r.locations for r in factors):
            raise ValueError("constituents must be ordered by least location")
        if self.omega.every_row() != product_rows(self.factor_omegas):
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

    The region is the union of the factors' regions.
    """
    dims = tuple(o.size for o in factor_omegas)
    n = math.prod(dims)
    return OmegaSet(
        region=Region(itertools.chain(*(o.region for o in factor_omegas))),
        indices=tuple(range(n)),
        parent_size=n,
        row_kind="omega-product",
        factors=tuple(o.region for o in factor_omegas),
        dims=dims,
    )


def fiducial_rows_matrix(
    table: ProbTable,
    parts: Sequence[tuple[tuple[Region, ...], Sequence[tuple[int, ...]]]],
    factor_omegas: Sequence[OmegaSet],
) -> MeasurementMatrix:
    """Joint probabilities at every product of the factors' fiducial rows.

    ``parts`` holds, per factor, its leaf regions and, per fiducial
    element, one gamma row index per leaf. The rows are
    ``product_rows(factor_omegas)``. Leaves need not cover the whole table;
    the remaining regions fold into the exterior axis.
    """
    vals, exteriors = fold_to_exterior(
        table, tuple(itertools.chain(*(leaves for leaves, _ in parts)))
    )
    if len(exteriors) < 2:
        raise DegenerateExterior(
            "the joint table varies over a single exterior configuration; "
            "embed the regions in a larger predictively well-defined region"
        )
    product = product_rows(factor_omegas)
    grid = np.indices(product.dims).reshape(len(product.dims), -1)
    assignments = np.concatenate(
        [
            np.array(rows, dtype=int).reshape(len(rows), len(leaves))[pos]
            for (leaves, rows), pos in zip(parts, grid)
        ],
        axis=1,
    )
    return MeasurementMatrix(
        product, exteriors, np.ascontiguousarray(vals[tuple(assignments.T)])
    )


def joint_fiducial_matrix(
    table: ProbTable, omegas: Sequence[OmegaSet]
) -> MeasurementMatrix:
    """Joint probabilities at every product of factor fiducial labels.

    Factors are put in canonical order (least location first); the row
    multi-index runs lexicographically with the last factor fastest.
    """
    omegas = tuple(sorted(omegas, key=lambda o: o.region.locations))
    if len(omegas) < 2:
        raise ValueError("a joint matrix needs at least two factors")
    for o in omegas:
        if o.every_row() != label_rows(table.gammas[table.region_axis(o.region)]):
            raise ContextMismatch(
                f"fiducial set of {o.region} does not index this table"
            )
    parts = [((o.region,), [(i,) for i in o.indices]) for o in omegas]
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
