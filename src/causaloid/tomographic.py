"""First-level compression: fiducial label sets and expansion matrices.

A region's full probability list is linearly determined by the entries at
a fiducial subset of labels. The matrix that carries the fiducial list
back out to the full list is the region's expansion matrix; its rows are
the r-vectors of the labels and its columns are indexed by the fiducial
set. States are the fiducial probability lists themselves, one per
exterior configuration, and the generalized Born rule is their pairing
with r-vectors.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ContextMismatch,
    IncompleteTable,
    ResidualTooLarge,
    UnknownExterior,
)
from .operational import Region
from .tables import (
    ExteriorAxis,
    GammaSet,
    Label,
    MeasurementMatrix,
    ProbTable,
    greedy_independent_rows,
)

__all__ = [
    "OmegaSet",
    "TomographicLambda",
    "RVector",
    "StateVector",
    "fold_to_exterior",
    "build_measurement_matrix",
    "find_fiducial_set",
    "solve_expansion",
    "r_vector",
    "state_vector",
    "born_rule",
    "clamp_probability",
]

DEFAULT_RANK_TOL = 1e-9
DEFAULT_RESIDUAL_TOL = 1e-8
# float dust a displayed probability may carry outside [0, 1]
CLAMP_TOL = 1e-9


@dataclass(frozen=True)
class OmegaSet:
    """A fiducial index subset of some ordered parent row set.

    ``row_kind`` is "gamma" when the parent rows are the labels of one
    region, and "omega-product" when they are multi-indices over factor
    fiducial sets (last factor fastest, lexicographic). ``label_rows`` and
    ``compositional.product_rows`` build the parent row sets, and
    ``every_row`` recovers the parent of any subset. Two sets index the same
    parent rows when they agree in every field but ``indices``.
    """

    region: Region
    indices: tuple[int, ...]
    parent_size: int
    row_kind: str = "gamma"
    factors: tuple[Region, ...] | None = None
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.row_kind not in ("gamma", "omega-product"):
            raise ValueError(f"unknown row kind {self.row_kind!r}")
        if any(map(operator.le, self.indices[1:], self.indices)):
            raise ValueError("fiducial indices must be strictly increasing")
        if self.indices and not (0 <= self.indices[0] and self.indices[-1] < self.parent_size):
            raise ValueError("fiducial indices out of parent range")
        if self.row_kind == "omega-product":
            if self.factors is None or self.dims is None:
                raise ValueError("product-kind sets need factors and dims")
            if len(self.factors) != len(self.dims):
                raise ValueError("one dim per factor is required")
            if math.prod(self.dims) != self.parent_size:
                raise ValueError("dims do not multiply out to the parent size")
        elif self.factors is not None or self.dims is not None:
            raise ValueError("gamma-kind sets carry no factors or dims")
        # registry lookups hash fiducial sets on every product: compute the
        # dataclass hash once
        object.__setattr__(self, "_hash", hash(
            (self.region, self.indices, self.parent_size, self.row_kind, self.factors, self.dims)
        ))

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.indices)

    def every_row(self) -> "OmegaSet":
        """The same parent row set with every row kept."""
        return replace(self, indices=tuple(range(self.parent_size)))


def _row_set(omega: OmegaSet) -> OmegaSet:
    # the parent row set described by region, size, kind, factors and dims,
    # with no row listed: comparing these costs nothing per parent row, so
    # a parent size read from a file allocates nothing before it is refused
    return OmegaSet(
        omega.region, (), omega.parent_size, omega.row_kind, omega.factors, omega.dims
    )


def _label_row_set(gamma: GammaSet) -> OmegaSet:
    # label_rows with no row listed, as _row_set describes it
    return OmegaSet(gamma.region, (), gamma.size)


def label_rows(gamma: GammaSet) -> OmegaSet:
    """Every label of one region, in label order."""
    return OmegaSet(gamma.region, tuple(range(gamma.size)), gamma.size)


def check_expansion(omega: OmegaSet, matrix: np.ndarray) -> None:
    """Check an expansion matrix over ``omega`` and make it read-only.

    It has one row per parent row and one column per fiducial element, and
    its rows at the fiducial indices form the identity.
    """
    shape = (omega.parent_size, omega.size)
    if matrix.shape != shape:
        raise ValueError(f"matrix shape {matrix.shape} != {shape}")
    # np.allclose(sub, eye, atol=1e-9) without its overhead: eye is finite,
    # so isclose is exactly this (NaN and +-inf fail)
    eye = np.eye(omega.size)
    if not (np.abs(matrix[list(omega.indices)] - eye) <= 1e-9 + 1e-5 * eye).all():
        raise ValueError("fiducial rows must form the identity")
    matrix.setflags(write=False)


@dataclass(frozen=True, eq=False)
class TomographicLambda:
    """Expansion matrix of one region: full rows from fiducial columns.

    Row alpha holds the r-vector of label alpha; rows at fiducial indices
    are standard basis vectors.
    """

    gamma: GammaSet
    omega: OmegaSet
    matrix: np.ndarray

    def __post_init__(self):
        if _row_set(self.omega) != _label_row_set(self.gamma):
            raise ValueError("fiducial set must index the labels of its region")
        check_expansion(self.omega, self.matrix)

    @property
    def region(self) -> Region:
        return self.gamma.region


@dataclass(frozen=True, eq=False)
class RVector:
    """Measurement vector of one label, expressed over a fiducial context."""

    context: OmegaSet
    components: np.ndarray

    def __post_init__(self):
        if self.components.shape != (self.context.size,):
            raise ValueError("component count must match the context size")
        self.components.setflags(write=False)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Fiducial probability list of one exterior configuration."""

    context: OmegaSet
    components: np.ndarray

    def __post_init__(self):
        if self.components.shape != (self.context.size,):
            raise ValueError("component count must match the context size")
        if self.components.size:
            lo = float(self.components.min())
            hi = float(self.components.max())
            # direct table entries; only float dust may stick out
            if lo < -1e-10 or hi > 1 + 1e-10:
                raise ValueError("state components must lie in [0, 1]")
        self.components.setflags(write=False)


def fold_to_exterior(
    table: ProbTable, keep: Sequence[Region]
) -> tuple[np.ndarray, ExteriorAxis]:
    """Regroup a table so only ``keep`` regions stay on label axes.

    Every other region's label axis is folded into the exterior axis as
    extra conditioning, one (action, outcome) card per location. The kept
    axes appear in ``keep`` order; column order is row-major over the
    folded regions (table order) with the original exterior fastest.
    """
    keep = tuple(keep)
    keep_axes = [table.region_axis(r) for r in keep]
    if len(set(keep_axes)) != len(keep_axes):
        raise IncompleteTable("kept regions must be distinct")
    other_axes = [i for i in range(len(table.regions)) if i not in keep_axes]
    vals = np.transpose(table.values, keep_axes + other_axes + [len(table.regions)])
    vals = np.ascontiguousarray(vals).reshape(vals.shape[: len(keep_axes)] + (-1,))
    return vals, table.exteriors.fold([table.gammas[i] for i in other_axes])


def build_measurement_matrix(table: ProbTable, region: Region) -> MeasurementMatrix:
    """Tabulate one region's label probabilities across all exteriors."""
    if region not in table.regions:
        raise IncompleteTable(
            f"table covers {', '.join(str(r) for r in table.regions)} "
            f"but not {region}"
        )
    vals, exteriors = fold_to_exterior(table, [region])
    gamma = table.gammas[table.region_axis(region)]
    return MeasurementMatrix(label_rows(gamma), exteriors, vals)


def find_fiducial_set(matrix: MeasurementMatrix, tol: float = DEFAULT_RANK_TOL) -> OmegaSet:
    """Greedy lowest-index-first choice of independent rows.

    The result is the lexicographically least maximal independent subset
    under the fixed row order, so repeated runs agree byte for byte.
    """
    if matrix.n_rows == 0:
        raise ValueError("cannot compress an empty matrix")
    return replace(matrix.rows, indices=greedy_independent_rows(matrix.values, tol))


def solve_expansion(
    values: np.ndarray, indices: Sequence[int], tol: float
) -> np.ndarray:
    """Express every row of ``values`` over the rows at ``indices``.

    Solved against the fiducial rows by orthogonal decomposition (least
    squares), never by inverting a submatrix. Rows at the fiducial
    indices are pinned to exact standard basis vectors; every row must
    reconstruct within ``tol * max(1, |row|)``.

    When every row is fiducial, the values are finite and ``tol`` is not
    negative, that pinning leaves the identity, which reconstructs every
    row exactly: it is returned without a solve, F-ordered like the solved
    matrix, so that later products round alike.
    """
    idx = list(indices)
    if idx == list(range(len(values))) and tol >= 0 and np.isfinite(values).all():
        return np.eye(len(idx)).T
    fid = values[idx]
    coeff, *_ = np.linalg.lstsq(fid.T, values.T, rcond=None)
    lam = coeff.T
    lam[idx] = np.eye(len(idx))
    resid = np.linalg.norm(lam @ fid - values, axis=1)
    bounds = tol * np.maximum(1.0, np.linalg.norm(values, axis=1))
    bad = np.nonzero(resid > bounds)[0]
    if bad.size:
        worst = int(bad[np.argmax(resid[bad])])
        raise ResidualTooLarge(
            f"row {worst} reconstructs with residual {resid[worst]:.3e} "
            f"(bound {bounds[worst]:.3e}); the fiducial set does not span"
        )
    return lam


def r_vector(label: Label, lam: TomographicLambda) -> RVector:
    """The measurement vector of one label: the matching expansion row."""
    row = lam.gamma.index_of(label)
    return RVector(context=lam.omega, components=lam.matrix[row].copy())


def state_vector(
    matrix: MeasurementMatrix, omega: OmegaSet, exterior_index: int
) -> StateVector:
    """The fiducial probability list of one exterior column."""
    if _row_set(omega) != _row_set(matrix.rows):
        raise ContextMismatch("fiducial set does not describe this matrix")
    if not 0 <= exterior_index < len(matrix.exteriors):
        raise UnknownExterior(f"exterior index {exterior_index} out of range")
    comps = matrix.values[list(omega.indices), exterior_index].copy()
    return StateVector(context=omega, components=comps)


def born_rule(r: RVector, p: StateVector) -> float:
    """Linear pairing of a measurement vector with a state.

    Returns the raw inner product; float dust outside [0, 1] is clamped
    only at display time by clamp_probability.
    """
    if r.context != p.context:
        raise ContextMismatch("measurement and state use different fiducial sets")
    return float(r.components @ p.components)


def clamp_probability(value: float) -> float:
    """Display-side clamp of float dust to [0, 1]."""
    if value < -CLAMP_TOL or value > 1 + CLAMP_TOL:
        raise ValueError(f"value {value} is not a probability within {CLAMP_TOL}")
    return min(max(value, 0.0), 1.0)
