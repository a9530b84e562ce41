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
    DEFAULT_RESIDUAL_TOL,
    OmegaSet,
    find_fiducial_set,
    fold_to_exterior,
    solve_expansion,
)

if TYPE_CHECKING:
    from .causaloid import Causaloid

__all__ = [
    "CompositeRegion",
    "CompositionalLambda",
    "joint_fiducial_matrix",
    "fiducial_rows_matrix",
    "product_rows_matrix",
    "find_composite_omega",
    "compute_compositional_lambda",
    "PairCompression",
    "AdjacencyGraph",
    "adjacency_graph",
]


@dataclass(frozen=True)
class CompositeRegion:
    """Two or more pairwise-disjoint regions, ordered by least location."""

    constituents: tuple[Region, ...]

    def __post_init__(self):
        if len(self.constituents) < 2:
            raise ValueError("a composite needs at least two constituents")
        seen: set[int] = set()
        for r in self.constituents:
            if seen & set(r.locations):
                raise ValueError("constituents must be pairwise disjoint")
            seen |= set(r.locations)
        keys = [r.locations for r in self.constituents]
        if keys != sorted(keys):
            raise ValueError("constituents must be ordered by least location")

    @property
    def union(self) -> Region:
        locs: list[int] = []
        for r in self.constituents:
            locs.extend(r.locations)
        return Region(tuple(sorted(locs)))

    def __str__(self) -> str:
        return "+".join(str(r) for r in self.constituents)


@dataclass(frozen=True, eq=False)
class CompositionalLambda:
    """Expansion of product fiducial rows over the composite fiducial set.

    Rows enumerate the product of the factor fiducial sets, last factor
    fastest; rows whose multi-index lies in the composite set are standard
    basis vectors.
    """

    factor_omegas: tuple[OmegaSet, ...]
    omega: OmegaSet
    matrix: np.ndarray

    def __post_init__(self):
        if self.omega.row_kind != "omega-product":
            raise ValueError("composite entries compress a product row set")
        if self.omega.factors != self.composite.constituents:
            raise ValueError("composite set factors must match the constituents")
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
    def composite(self) -> CompositeRegion:
        return CompositeRegion(tuple(o.region for o in self.factor_omegas))

    @property
    def region(self) -> Region:
        return self.composite.union

    @property
    def product_size(self) -> int:
        return self.omega.parent_size


def fiducial_rows_matrix(
    table: ProbTable,
    leaves: Sequence[Region],
    assignments: np.ndarray,
    *,
    row_keys: tuple,
    factors: tuple[Region, ...],
    dims: tuple[int, ...],
) -> MeasurementMatrix:
    """Gather arbitrary per-leaf label rows of a table into a matrix.

    ``assignments`` holds one gamma row index per (row, leaf). Leaves not
    covering the whole table are fine; the remaining regions fold into the
    exterior axis.
    """
    leaves = tuple(leaves)
    vals, exteriors = fold_to_exterior(table, leaves)
    if len(exteriors) < 2:
        raise DegenerateExterior(
            "the joint table varies over a single exterior configuration; "
            "embed the regions in a larger predictively well-defined region"
        )
    assignments = np.asarray(assignments, dtype=int)
    if assignments.ndim != 2 or assignments.shape[1] != len(leaves):
        raise ValueError("expected one gamma index per row and leaf")
    picked = vals[tuple(assignments[:, i] for i in range(len(leaves)))]
    return MeasurementMatrix(
        row_kind="omega-product",
        row_keys=row_keys,
        exteriors=exteriors,
        values=np.ascontiguousarray(picked),
        region=CompositeRegion(tuple(sorted(factors, key=lambda r: r.locations))).union
        if len(factors) > 1
        else factors[0],
        factors=factors,
        dims=dims,
    )


def product_rows_matrix(
    table: ProbTable,
    parts: Sequence[tuple[tuple[Region, ...], Sequence[tuple[int, ...]]]],
    factors: tuple[Region, ...],
) -> MeasurementMatrix:
    """Joint probabilities at every product of the factors' fiducial rows.

    ``parts`` holds, per factor, its leaf regions and, per fiducial
    element, one gamma row index per leaf. The row multi-index runs
    lexicographically with the last factor fastest.
    """
    dims = tuple(len(rows) for _, rows in parts)
    grid = np.indices(dims).reshape(len(dims), -1)
    assignments = np.concatenate(
        [
            np.array(rows, dtype=int).reshape(len(rows), len(leaves))[pos]
            for (leaves, rows), pos in zip(parts, grid)
        ],
        axis=1,
    )
    return fiducial_rows_matrix(
        table,
        tuple(itertools.chain(*(leaves for leaves, _ in parts))),
        assignments,
        row_keys=tuple(itertools.product(*(range(d) for d in dims))),
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
    return product_rows_matrix(table, parts, tuple(o.region for o in omegas))


def find_composite_omega(
    matrix: MeasurementMatrix, tol: float = DEFAULT_RANK_TOL
) -> OmegaSet:
    """Greedy fiducial choice on the product row set.

    Same deterministic scan as the first level, so the result is a subset
    of the product set by construction.
    """
    if matrix.row_kind != "omega-product":
        raise ValueError("expected a product-row measurement matrix")
    return find_fiducial_set(matrix, tol)


def compute_compositional_lambda(
    matrix: MeasurementMatrix,
    omega: OmegaSet,
    factor_omegas: Sequence[OmegaSet],
    tol: float = DEFAULT_RESIDUAL_TOL,
) -> CompositionalLambda:
    """Solve for the composite expansion matrix."""
    if omega.row_kind != "omega-product" or matrix.row_kind != "omega-product":
        raise ValueError("expected product-row inputs")
    if omega.parent_size != matrix.n_rows or omega.factors != matrix.factors:
        raise ContextMismatch("fiducial set does not describe this matrix")
    factor_omegas = tuple(factor_omegas)
    if tuple(o.size for o in factor_omegas) != matrix.dims:
        raise ContextMismatch("factor fiducial sizes disagree with the matrix")
    lam = solve_expansion(matrix.values, omega.indices, tol)
    return CompositionalLambda(
        factor_omegas=factor_omegas,
        omega=omega,
        matrix=lam,
    )


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
            omega = find_composite_omega(joint, tol)
        pairs.append(
            PairCompression(
                first=a,
                second=b,
                composite_size=omega.size,
                product_size=omega.parent_size,
            )
        )
    return AdjacencyGraph(regions=regions, pairs=tuple(pairs))
