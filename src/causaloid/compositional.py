"""Second-level compression over composite regions.

The fiducial sets of disjoint regions multiply into a product row set;
the joint probabilities at those multi-indices are usually linearly
dependent, and the surviving independent subset is the composite fiducial
set. Strict shrinkage of that subset against the full product is the
signature of causal adjacency.
"""
from __future__ import annotations

import itertools
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
    find_fiducial_set,
    fold_to_exterior,
)

if TYPE_CHECKING:
    from .causaloid import Causaloid

__all__ = [
    "CompositionalLambda",
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
        if self.omega.row_kind != "omega-product":
            raise ValueError("composite entries compress a product row set")
        if self.omega.factors != factors:
            raise ValueError("composite set factors must match the constituents")
        if self.omega.region != Region(seen):
            raise ValueError("composite set region must be the union of the factors")
        dims = tuple(o.size for o in self.factor_omegas)
        if self.omega.dims != dims:
            raise ValueError("composite set dims must match the factor sizes")
        if self.matrix.shape != (self.omega.parent_size, self.omega.size):
            raise ValueError(
                f"matrix shape {self.matrix.shape} != "
                f"{(self.omega.parent_size, self.omega.size)}"
            )
        eye = np.eye(self.omega.size)
        if not np.allclose(self.matrix[list(self.omega.indices)], eye, atol=1e-9):
            raise ValueError("composite fiducial rows must form the identity")
        self.matrix.setflags(write=False)

    @property
    def region(self) -> Region:
        return self.omega.region

    @property
    def product_size(self) -> int:
        return self.omega.parent_size


def fiducial_rows_matrix(
    table: ProbTable,
    parts: Sequence[tuple[tuple[Region, ...], Sequence[tuple[int, ...]]]],
    factors: tuple[Region, ...],
) -> MeasurementMatrix:
    """Joint probabilities at every product of the factors' fiducial rows.

    ``parts`` holds, per factor, its leaf regions and, per fiducial
    element, one gamma row index per leaf. The row multi-index runs
    lexicographically with the last factor fastest. Leaves need not cover
    the whole table; the remaining regions fold into the exterior axis.
    """
    vals, exteriors = fold_to_exterior(
        table, tuple(itertools.chain(*(leaves for leaves, _ in parts)))
    )
    if len(exteriors) < 2:
        raise DegenerateExterior(
            "the joint table varies over a single exterior configuration; "
            "embed the regions in a larger predictively well-defined region"
        )
    dims = tuple(len(rows) for _, rows in parts)
    grid = np.indices(dims).reshape(len(dims), -1)
    assignments = np.concatenate(
        [
            np.array(rows, dtype=int).reshape(len(rows), len(leaves))[pos]
            for (leaves, rows), pos in zip(parts, grid)
        ],
        axis=1,
    )
    return MeasurementMatrix(
        row_kind="omega-product",
        exteriors=exteriors,
        values=np.ascontiguousarray(vals[tuple(assignments.T)]),
        region=Region(itertools.chain(*factors)),
        factors=factors,
        dims=dims,
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
        if o.row_kind != "gamma":
            raise ContextMismatch(
                "joint matrices take per-region fiducial sets over labels"
            )
        gamma = table.gammas[table.region_axis(o.region)]
        if o.parent_size != gamma.size:
            raise ContextMismatch(
                f"fiducial set of {o.region} does not index this table"
            )
    parts = [((o.region,), [(i,) for i in o.indices]) for o in omegas]
    return fiducial_rows_matrix(table, parts, tuple(o.region for o in omegas))


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
