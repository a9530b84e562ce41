"""Exact theory oracles: classical chains and quantum circuits.

Both theories compile to the same wire algebra. A chain carries a real
vector (a probability distribution, or Hermitian-basis coordinates of a
density operator); each location applies one real transfer matrix per
(action, outcome); preparations seed the vector and terminal effects read
it out. Joint probabilities are therefore exact matrix folds, and tables
over whole label sets are assembled with vectorized contractions.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import operators as ops
from .errors import (
    BackendError,
    DimensionMismatch,
    SpanDeficient,
    TableTooLarge,
    UnknownExterior,
    UnknownProcedure,
    UnknownRegion,
)
from .operational import ProcedureSpec, Region, disjoint_union
from .tables import (
    ExteriorAxis,
    ExteriorConfiguration,
    GammaSet,
    Label,
    ProbTable,
    greedy_independent_rows,
)
from .tomographic import DEFAULT_RANK_TOL

__all__ = [
    "Chain",
    "InstrumentFamily",
    "TheorySpec",
    "ClassicalSpec",
    "QuantumSpec",
    "SpanValidation",
    "polariser_family",
    "probe_reprepare_family",
    "unitary_family",
    "kraus_family",
    "probe_reset_family",
    "deterministic_family",
    "kernel_family",
    "ic_preparations",
    "ic_effects",
    "complete_effect",
    "enumerate_labels",
    "enumerate_exteriors",
    "joint_prob",
    "build_prob_table",
    "validate_exterior_span",
    "validate_table_spans",
    "conditioning_span",
]

TABLE_CAP = 10_000_000


@dataclass(frozen=True)
class Chain:
    """One wire: an ordered run of locations sharing a system."""

    name: str
    size: int  # alphabet size or Hilbert-space dimension
    locations: tuple[int, ...]

    def __post_init__(self):
        if self.size < 2:
            raise BackendError(f"chain {self.name!r} needs size >= 2")
        if not self.locations or len(set(self.locations)) != len(self.locations):
            raise BackendError(f"chain {self.name!r} needs distinct locations")


@dataclass(frozen=True, eq=False)
class InstrumentFamily:
    """All actions available at one location.

    ``stacked`` holds every transfer matrix once, as one ``(n_labels, D,
    D)`` array in label order: action by action, each action's outcomes in
    order. ``counts[a]`` is the number of outcomes of action ``a``. Summed
    over its outcomes every action must preserve total probability. The
    array is kept, not copied, and made read-only.
    """

    location: int
    stacked: np.ndarray
    counts: tuple[int, ...]

    def __post_init__(self):
        counts = tuple(self.counts)
        if not counts:
            raise BackendError("an instrument needs at least one action")
        if min(counts) < 1:
            raise BackendError("every action needs an outcome")
        shape = np.shape(self.stacked)
        if (
            not isinstance(self.stacked, np.ndarray)
            or len(shape) != 3
            or shape[0] != sum(counts)
            or shape[1] != shape[2]
        ):
            raise DimensionMismatch(
                f"location {self.location} needs {sum(counts)} square transfer "
                f"matrices stacked in one array, got shape {shape}"
            )
        self.stacked.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def n_actions(self) -> int:
        return len(self.counts)

    def n_outcomes(self, action: int) -> int:
        if not 0 <= action < len(self.counts):
            raise UnknownProcedure(
                f"location {self.location} has no action {action}"
            )
        return self.counts[action]

    def labels(self) -> list[tuple[int, int]]:
        return [(a, s) for a, n in enumerate(self.counts) for s in range(n)]

    @cached_property
    def label_digits(self) -> np.ndarray:
        """``labels()`` as a read-only (2, n_labels) array: the action of
        each label, then its outcome."""
        digits = np.array(self.labels()).T
        digits.setflags(write=False)
        return digits

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Where each action's outcome maps start in ``stacked`` (labels run
        action by action), then the label count."""
        return tuple(itertools.accumulate(self.counts, initial=0))

    @cached_property
    def actions(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """``actions[a][s]``, the transfer matrix applied when action ``a``
        produces outcome ``s``: read-only views of the rows of ``stacked``."""
        bounds = self.offsets
        return tuple(tuple(self.stacked[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


@dataclass(frozen=True, eq=False)
class TheorySpec:
    """A full experimental arrangement, ready for exact evaluation.

    Per chain, each preparation is a state vector and each terminal effect
    a covector, both 1-d arrays of the chain's ``vec_dim``; they are made
    read-only here.
    """

    kind = "abstract"

    chains: tuple[Chain, ...]
    instruments: tuple[InstrumentFamily, ...]  # sorted by location
    preparations: tuple[tuple[np.ndarray, ...], ...]  # per chain
    effects: tuple[tuple[np.ndarray, ...], ...]  # per chain
    # only the empty value is accepted: every action at an unprobed
    # location is swept into the exterior
    conditioning_actions: tuple = ()

    def __post_init__(self):
        if self.kind not in ("classical", "quantum"):
            raise BackendError("a theory is a ClassicalSpec or a QuantumSpec")
        locs = [f.location for f in self.instruments]
        if locs != sorted(locs) or len(set(locs)) != len(locs):
            raise BackendError("instrument families must be sorted by unique location")
        chain_locs = [x for c in self.chains for x in c.locations]
        if sorted(chain_locs) != locs:
            raise BackendError("chains and instrument locations must agree")
        if len(self.preparations) != len(self.chains) or len(self.effects) != len(self.chains):
            raise BackendError("preparations and effects are per-chain")
        for chain, preps, effs in zip(self.chains, self.preparations, self.effects):
            d = self.vec_dim(chain)
            for i, p in enumerate(preps):
                if not isinstance(p, np.ndarray) or p.shape != (d,):
                    raise DimensionMismatch(
                        f"preparation {i} does not fit chain {chain.name!r}"
                    )
            if not preps or not effs:
                raise BackendError(f"chain {chain.name!r} needs preparations and effects")
            for i, e in enumerate(effs):
                if not isinstance(e, np.ndarray) or e.shape != (d,):
                    raise DimensionMismatch(
                        f"effect {i} does not fit chain {chain.name!r}"
                    )
            for v in preps + effs:
                v.setflags(write=False)
        for fam in self.instruments:
            d = self.vec_dim(self.chain_of(fam.location))
            if fam.stacked.shape[1:] != (d, d):
                raise DimensionMismatch(
                    f"instrument at location {fam.location} has a "
                    f"{fam.stacked.shape[1:]} transfer matrix on a size-{d} wire"
                )
            self._check_total_probability(fam)
        if self.conditioning_actions:
            raise BackendError("conditioning restrictions are not supported")

    # -- structural helpers -------------------------------------------------

    def vec_dim(self, chain: Chain) -> int:
        return chain.size if self.kind == "classical" else chain.size * chain.size

    def chain_of(self, location: int) -> Chain:
        for c in self.chains:
            if location in c.locations:
                return c
        raise UnknownRegion(f"no chain contains location {location}")

    def family(self, location: int) -> InstrumentFamily:
        for f in self.instruments:
            if f.location == location:
                return f
        raise UnknownRegion(f"no instrument family at location {location}")

    def locations(self) -> tuple[int, ...]:
        return tuple(f.location for f in self.instruments)

    def _check_total_probability(self, fam: InstrumentFamily) -> None:
        t = complete_effect(self.kind, self.chain_of(fam.location).size)
        stack = fam.stacked
        # one reduceat sums every action's outcome maps (in outcome order)
        starts = fam.offsets[:-1]
        totals = np.add.reduceat(stack, starts, axis=0)
        # np.isclose(t @ totals, t, atol=1e-10) for a finite t; NaN and inf
        # still leak
        leaks = ~(np.abs(t @ totals - t) <= 1e-10 + 1e-5 * np.abs(t)).all(axis=1)
        if self.kind == "classical":
            negative = np.minimum.reduceat(stack.min(axis=(1, 2)), starts) < -1e-12
        else:
            negative = np.zeros_like(leaks)
        # the first faulty action is reported; within it, negativity first
        faulty = np.flatnonzero(negative | leaks)
        if faulty.size:
            a = int(faulty[0])
            if negative[a]:
                raise BackendError(
                    f"classical kernel has negative entries "
                    f"(location {fam.location}, action {a})"
                )
            raise BackendError(
                f"action {a} at location {fam.location} does not preserve "
                f"total probability"
            )

    # -- sampling -----------------------------------------------------------

    def sample_cards(self, procedure: ProcedureSpec, uniforms: np.ndarray) -> np.ndarray:
        """Draw the outcomes of many runs at once, location by location.

        ``uniforms`` is a ``(runs, n_locations)`` array of uniforms in
        [0, 1), one row per run. Its columns follow the draw order: chains
        in spec order, then each chain's locations in order. Every chain
        starts from its first declared preparation, and each outcome is
        picked by inverting the cumulative outcome weights at that run's
        uniform, as ``Generator.choice`` does; a weight at or below 1e-12
        of its run's total counts as 0, so that no run, not even at a
        uniform of 0, draws an outcome of probability 0. Returns the
        ``(runs, n_locations)`` integer outcome array in the same column
        order.

        Per location, with ``A`` the action's ``(S, D, D)`` slice of
        ``stacked``, ``v`` the ``(runs, D)`` states and ``t`` the total
        covector, two products do the work: the ``(S, runs)`` outcome
        weights ``(t @ A) @ v.T``, and every run's state after every outcome
        ``v @ A.reshape(S * D, D).T``, from which each run's next state is
        gathered at its drawn outcome.
        """
        u = np.asarray(uniforms, dtype=float)
        n_locations = sum(len(c.locations) for c in self.chains)
        if u.ndim != 2 or u.shape[1] != n_locations:
            raise ValueError(
                f"uniforms must have shape (runs, {n_locations}), got {u.shape}"
            )
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):
            raise ValueError("uniforms must lie in [0, 1)")
        runs = u.shape[0]
        outcomes = np.empty((runs, n_locations), dtype=np.intp)
        rows = np.arange(runs)
        col = 0
        for ci, chain in enumerate(self.chains):
            d = self.vec_dim(chain)
            v = np.broadcast_to(self.preparations[ci][0], (runs, d))
            t = complete_effect(self.kind, chain.size)
            for loc in chain.locations:
                fam = self.family(loc)
                a = procedure.action_at(loc)
                if not 0 <= a < fam.n_actions:
                    raise UnknownProcedure(f"location {loc} has no action {a}")
                start, stop = fam.offsets[a], fam.offsets[a + 1]
                n_out = stop - start
                A = fam.stacked[start:stop]  # (outcomes, D, D)
                cdf = (t @ A) @ v.T  # every run's outcome weights: (outcomes, runs)
                cdf[cdf <= 1e-12 * cdf.sum(axis=0)] = 0.0
                np.cumsum(cdf, axis=0, out=cdf)
                total = cdf[-1]
                if (total <= 0).any():
                    raise BackendError(
                        f"all outcomes at location {loc} have zero probability"
                    )
                s = (cdf / total <= u[:, col]).sum(axis=0)
                outcomes[:, col] = s
                # every run's state after every outcome, one row per (run, outcome)
                after = v @ A.reshape(n_out * d, d).T
                v = after.reshape(runs * n_out, d)[rows * n_out + s]
                col += 1
        return outcomes


class ClassicalSpec(TheorySpec):
    kind = "classical"


class QuantumSpec(TheorySpec):
    kind = "quantum"


# ---------------------------------------------------------------------------
# instrument family constructors
# ---------------------------------------------------------------------------

def polariser_family(location: int, angles_deg: Sequence[float]) -> InstrumentFamily:
    """Two-outcome projective instruments at the given angles (dimension 2).

    Outcome 0 passes (projects onto the angle), outcome 1 absorbs.
    """
    if not angles_deg:
        raise BackendError("a polariser needs at least one angle")
    projectors = [ops.projector_at_angle(float(angle)) for angle in angles_deg]
    return kraus_family(location, 2, [([P], [np.eye(2) - P]) for P in projectors])


def probe_reprepare_family(location: int, dim: int) -> InstrumentFamily:
    """Informationally complete quantum family: binary probe, then reprepare.

    Action (m, j) tests the rank-1 projector P_m and emits the fixed state
    sigma_j regardless of the result; outcome 1 means the probe fired.
    The per-outcome maps are rho -> Tr[P_m rho] sigma_j and
    rho -> Tr[(I - P_m) rho] sigma_j, whose transfer matrices are rank-1.
    """
    coords = _spanning_vectors("quantum", dim)[0]
    t = ops.trace_covector(dim)
    # maps[m, j, s] = np.outer(v_j, t - w_m) for s = 0, np.outer(v_j, w_m) for s = 1
    readouts = np.stack([t - coords, coords], axis=1)
    maps = coords[None, :, None, :, None] * readouts[:, None, :, None, :]
    return InstrumentFamily(location, maps.reshape((-1,) + maps.shape[3:]), (2,) * len(coords) ** 2)


def unitary_family(location: int, dim: int, names: Sequence[str]) -> InstrumentFamily:
    if not names:
        raise BackendError("a unitary family needs at least one gate name")
    return kraus_family(location, dim, [[[ops.named_unitary(n, dim)]] for n in names])


def kraus_family(
    location: int,
    dim: int,
    actions: Sequence[Sequence[Sequence[np.ndarray]]],
) -> InstrumentFamily:
    """Explicit instruments: per action, per outcome, a list of Kraus operators.

    Every outcome map of the family comes from one ``ops.kraus_transfers``
    contraction, action by action in outcome order.
    """
    for idx, outcome_kraus in enumerate(actions):
        if not outcome_kraus:
            raise BackendError(f"action {idx} needs at least one outcome")
    maps = ops.kraus_transfers([list(ks) for group in actions for ks in group], dim)
    return InstrumentFamily(location, maps, tuple(map(len, actions)))


def probe_reset_family(location: int, alphabet: int) -> InstrumentFamily:
    """Classical read-and-reset family: observe the symbol, emit a fixed one."""
    e = np.eye(alphabet)
    # maps[j, s] = np.outer(e_j, e_s)
    return kernel_family(location, alphabet, e[:, None, :, None] * e[None, :, None, :])


def deterministic_family(location: int, alphabet: int, maps: Sequence[str]) -> InstrumentFamily:
    """Single-outcome classical kernels by name: identity, cycle, reset:<j>, uniform."""
    if not maps:
        raise BackendError("a deterministic family needs at least one map")
    actions = []
    for name in maps:
        if name == "identity":
            T = ops.permutation_kernel(alphabet, 0)
        elif name == "cycle":
            T = ops.permutation_kernel(alphabet, 1)
        elif name == "uniform":
            T = ops.uniform_kernel(alphabet)
        elif name.startswith("reset:"):
            try:
                symbol = int(name.split(":", 1)[1])
            except ValueError:
                raise BackendError(f"unknown classical map {name!r}") from None
            T = ops.reset_kernel(alphabet, symbol)
        else:
            raise BackendError(f"unknown classical map {name!r}")
        actions.append((T,))
    return kernel_family(location, alphabet, actions)


def kernel_family(
    location: int, alphabet: int, actions: Sequence[Sequence[np.ndarray]]
) -> InstrumentFamily:
    """Explicit classical instruments: per action, per outcome, a kernel.

    The kernels are stacked once, into the family's own array."""
    mats = [np.asarray(T, dtype=float) for group in actions for T in group]
    for T in mats:
        if T.shape != (alphabet, alphabet):
            raise DimensionMismatch(
                f"kernel shape {T.shape} does not match alphabet {alphabet}"
            )
    stack = np.stack(mats) if mats else np.empty((0, alphabet, alphabet))
    return InstrumentFamily(location, stack, tuple(map(len, actions)))


# ---------------------------------------------------------------------------
# preparations and effects
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _spanning_vectors(kind: str, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One wire's spanning sets, each as read-only rows: its informationally
    complete vectors (preparations and effects alike), then the span check's
    extra preparations and extra effects, a second independent family.
    Built once per (kind, size) and shared.

    Classical: the point masses; then the uniform distribution and every
    even mixture of two symbols, as preparations, and the constant 1/2 and
    every two-symbol indicator, as effects. Quantum: the projectors of
    ``ic_pure_kets``; then those of ``extra_pure_kets`` followed by the
    maximally mixed state (preparations) or I/2 (effects).
    """
    if kind == "classical":
        ic = np.eye(size)
        pairs = np.array([ic[j] + ic[k] for j, k in itertools.combinations(range(size), 2)])
        preps = np.concatenate([np.full((1, size), 1.0 / size), pairs / 2])
        effs = np.concatenate([np.full((1, size), 0.5), pairs])
    else:
        def coords(mats):
            return np.array([ops.operator_coords(m, size) for m in mats])

        ic = coords(map(ops.density_from_ket, ops.ic_pure_kets(size)))
        pairs = coords(map(ops.density_from_ket, ops.extra_pure_kets(size)))
        eye = np.eye(size, dtype=complex)
        preps = np.concatenate([pairs, coords([eye / size])])
        effs = np.concatenate([pairs, coords([eye / 2])])
    for vectors in (ic, preps, effs):
        vectors.setflags(write=False)
    return ic, preps, effs


@lru_cache(maxsize=None)
def ic_preparations(kind: str, size: int) -> tuple[np.ndarray, ...]:
    """The informationally complete vectors of one wire, as the read-only
    rows of ``_spanning_vectors``; one tuple per (kind, size), shared."""
    return tuple(_spanning_vectors(kind, size)[0])


# the same set read out as covectors
ic_effects = ic_preparations


def complete_effect(kind: str, size: int) -> np.ndarray:
    """The total covector of a wire: the effect that reads out 1 on every
    normalised state. An effect is complete exactly when it equals this."""
    if kind == "classical":
        return np.ones(size)
    return ops.trace_covector(size)


# ---------------------------------------------------------------------------
# label enumeration and exact probabilities
# ---------------------------------------------------------------------------

def _label_count(spec: TheorySpec, region: Region) -> int:
    return math.prod(spec.family(x).offsets[-1] for x in region.locations)


def _label_sort(spec: TheorySpec, region: Region) -> tuple[np.ndarray, np.ndarray]:
    """A region's labels as ``(2, k, n_labels)`` digits, the action and
    then the outcome at each of its ``k`` locations, one column per label
    in row-major order (each location's labels in family order, the last
    location fastest); and the gather that sorts the columns by (action
    tuple, outcome tuple)."""
    families = [spec.family(x) for x in region.locations]
    k = len(families)
    digits = np.empty((2, k) + tuple(f.offsets[-1] for f in families), dtype=np.intp)
    for i, f in enumerate(families):
        # location i's digits vary along its own axis of the label grid
        digits[:, i] = f.label_digits.reshape((2,) + (1,) * i + (-1,) + (1,) * (k - 1 - i))
    digits = digits.reshape(2, k, -1)
    # np.lexsort's last key is its first: actions, then outcomes, in location order
    gather = np.lexsort(digits.reshape(2 * k, -1)[::-1])
    return digits, gather


def _label_order(spec: TheorySpec, region: Region) -> tuple[GammaSet, np.ndarray]:
    """A region's label set, sorted by (action tuple, outcome tuple), and
    the row-major position of each of its labels (``_label_sort``). A
    set above ``TABLE_CAP`` is refused before it is built."""
    n_labels = _label_count(spec, region)
    if n_labels > TABLE_CAP:
        raise TableTooLarge(
            f"region {region} would have {n_labels} labels, above the cap of {TABLE_CAP}"
        )
    digits, gather = _label_sort(spec, region)
    actions, outcomes = digits[:, :, gather].transpose(0, 2, 1).tolist()
    return GammaSet(region, tuple(zip(map(tuple, actions), map(tuple, outcomes)))), gather


def enumerate_labels(spec: TheorySpec, region: Region) -> GammaSet:
    """All measurement labels of a region, sorted by (action tuple, outcome tuple)."""
    return _label_order(spec, region)[0]


def enumerate_exteriors(spec: TheorySpec, probed: Iterable[int]) -> ExteriorAxis:
    """The exterior axis of a table probing the ``probed`` locations."""
    probed = set(probed)
    return ExteriorAxis(
        folded=(),
        preparations=tuple(len(p) for p in spec.preparations),
        conditioning=tuple(
            (x, tuple(spec.family(x).labels()))
            for x in spec.locations()
            if x not in probed
        ),
        # an effect is complete where it is the chain's total covector
        effects=tuple(
            tuple(np.array_equal(e, complete_effect(spec.kind, c.size)) for e in effs)
            for effs, c in zip(spec.effects, spec.chains)
        ),
    )


def joint_prob(
    spec: TheorySpec,
    assignment: Mapping[Region, Label],
    exterior: ExteriorConfiguration,
) -> float:
    """Exact probability of one joint label choice under one exterior.

    Multiplicative across chains: disconnected wiring cannot correlate.
    """
    loc_card: dict[int, tuple[int, int]] = {}
    for region, (actions, outcomes) in assignment.items():
        for loc, a, s in zip(region.locations, actions, outcomes):
            if loc in loc_card:
                raise UnknownRegion(f"location {loc} assigned twice")
            loc_card[loc] = (a, s)
    conditioned = dict(exterior.conditioning)
    p = 1.0
    for ci, chain in enumerate(spec.chains):
        pi = exterior.preparations[ci]
        ei = exterior.effects[ci]
        if not 0 <= pi < len(spec.preparations[ci]):
            raise UnknownExterior(f"chain {chain.name!r} has no preparation {pi}")
        if not 0 <= ei < len(spec.effects[ci]):
            raise UnknownExterior(f"chain {chain.name!r} has no effect {ei}")
        v = spec.preparations[ci][pi]
        for loc in chain.locations:
            if loc in loc_card:
                a, s = loc_card.pop(loc)
            elif loc in conditioned:
                a, s = conditioned.pop(loc)
            else:
                raise UnknownRegion(
                    f"location {loc} is neither probed nor conditioned"
                )
            fam = spec.family(loc)
            if not 0 <= a < fam.n_actions:
                raise UnknownProcedure(f"location {loc} has no action {a}")
            if not 0 <= s < fam.n_outcomes(a):
                raise UnknownProcedure(
                    f"action {a} at location {loc} has no outcome {s}"
                )
            v = fam.actions[a][s] @ v
        p *= float(spec.effects[ci][ei] @ v)
    if loc_card:
        raise UnknownRegion(f"labels assigned outside any chain: {sorted(loc_card)}")
    if conditioned:
        raise UnknownExterior(
            f"conditioning at locations outside any chain: {sorted(conditioned)}"
        )
    return p


def build_prob_table(spec: TheorySpec, regions: Sequence[Region]) -> ProbTable:
    """Exact joint table over the given disjoint regions.

    Everything not probed is swept as exterior: preparations and terminal
    effects per chain, plus one (action, outcome) conditioning choice per
    unprobed location. Each chain is contracted once over every label at
    each of its locations; the chains' tensors multiply out and one
    transpose puts the region axes first and the exterior digits last.
    """
    regions = tuple(regions)
    try:
        probed = disjoint_union(regions).locations if regions else ()
    except ValueError as exc:
        raise UnknownRegion("table regions must be pairwise disjoint") from exc
    for loc in probed:
        spec.family(loc)  # raises UnknownRegion if not instrumented
    exteriors = enumerate_exteriors(spec, probed)
    n_entries = len(exteriors) * math.prod(_label_count(spec, r) for r in regions)
    if n_entries > TABLE_CAP:
        raise TableTooLarge(f"table would hold {n_entries} entries, above the cap of {TABLE_CAP}")
    orders = [_label_order(spec, r) for r in regions]
    gammas = tuple(gamma for gamma, _ in orders)

    # axes of the product tensor, per chain: (preparation, label at each
    # location in wire order, effect)
    full = np.ones(())
    prep_axes, eff_axes, loc_axes = [], [], {}
    for ci, chain in enumerate(spec.chains):
        acc = np.stack(spec.preparations[ci])
        shape = [len(acc)]
        for loc in chain.locations:
            stack = spec.family(loc).stacked  # (n_labels, D, D)
            acc = np.einsum("kmn,cn->ckm", stack, acc.reshape(-1, stack.shape[1]))
            loc_axes[loc] = full.ndim + len(shape)
            shape.append(len(stack))
        # one matrix-vector product per effect: a matrix product or einsum
        # sums some entries in another order (last-bit changes on
        # 9-dimensional wires)
        flat = acc.reshape(-1, acc.shape[-1])
        t = np.stack([flat @ e for e in spec.effects[ci]], axis=-1)
        prep_axes.append(full.ndim)
        eff_axes.append(full.ndim + len(shape))
        full = np.multiply.outer(full, t.reshape(shape + [t.shape[-1]]))
    unprobed = [loc_axes[x] for x, _ in exteriors.conditioning]
    region_axes = [loc_axes[x] for r in regions for x in r.locations]
    values = np.transpose(full, region_axes + prep_axes + unprobed + eff_axes)
    values = values.reshape(tuple(g.size for g in gammas) + (len(exteriors),))
    # per region: row-major per-location order -> GammaSet (sorted) order
    for axis, (_, gather) in enumerate(orders):
        if not np.array_equal(gather, np.arange(gather.size)):
            values = np.take(values, gather, axis=axis)
    return ProbTable(gammas, exteriors, np.ascontiguousarray(values))


# ---------------------------------------------------------------------------
# exterior span validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanValidation:
    """A region whose rank the extended exterior set leaves unchanged."""

    region: Region
    rank: int
    n_exteriors: int
    n_extended_exteriors: int


def _span_factor(vectors: np.ndarray) -> np.ndarray:
    """A short factor ``F`` with ``F.T @ F == vectors.T @ vectors``.

    Its rows are the right singular vectors of ``vectors`` scaled by their
    singular values, so any covector's norm over the rows of ``vectors`` is
    its norm over the rows of ``F``. Singular values at or below numpy's
    ``matrix_rank`` cut-off, ``s_max * max(shape) * eps``, count as zero.
    """
    _, s, vt = np.linalg.svd(vectors, full_matrices=False)
    keep = s > s.max(initial=0.0) * max(vectors.shape) * np.finfo(float).eps
    return s[keep, None] * vt[keep]


def _cut_slots(
    spec: TheorySpec, ci: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray | None]]:
    """Label stacks of chain ``ci`` and its input and output slots at each
    of its cuts.

    ``stacks[p]`` holds the transfer maps of the chain's p-th location
    (``InstrumentFamily.stacked``). Cut ``c`` lies just before that
    location (cut ``n`` after the last). ``inputs[c]`` factors the states
    that reach it: the declared and extra preparations pushed through
    every label at each earlier location (``_pushed``). ``outputs[c]``
    factors the covectors that read it out: the declared and extra effects
    pulled back through every later location. Each is a ``_span_factor``
    of the whole set, rows in the chain's vector space. A region reads
    its input slot before one of its locations and its output slot after
    one, so ``inputs`` stops at cut ``n - 1`` and ``outputs[0]`` is None.
    """
    chain = spec.chains[ci]
    d = spec.vec_dim(chain)
    _, extra_preps, extra_effs = _spanning_vectors(spec.kind, chain.size)
    stacks = [spec.family(x).stacked for x in chain.locations]
    inputs = [_span_factor(np.concatenate([spec.preparations[ci], extra_preps]))]
    for stack in stacks[:-1]:
        inputs.append(_pushed(inputs[-1], stack))
    outputs = [_span_factor(np.concatenate([spec.effects[ci], extra_effs]))]
    for stack in reversed(stacks[1:]):
        outputs.append(_span_factor((outputs[-1] @ stack).reshape(-1, d)))
    return stacks, inputs, [None] + outputs[::-1]


def _pushed(states: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``_span_factor`` of the rows ``states`` pushed through every map of
    ``stack``: the input slot one cut later."""
    pushed = states @ stack.transpose(0, 2, 1)  # rows (T v)
    return _span_factor(pushed.reshape(-1, stack.shape[1]))


def _gap_slot(stacks: Sequence[np.ndarray], d: int) -> np.ndarray:
    """``_span_factor`` of every product of one label map per gap
    location, as ``(n, d, d)``; an empty gap is the identity alone."""
    factor = np.eye(d)[None]
    for stack in stacks:
        products = (stack[:, None] @ factor[None]).reshape(-1, d * d)
        factor = _span_factor(products).reshape(-1, d, d)
    return factor


def _cut_rows(positions: Sequence[int], slots: tuple[list[np.ndarray], ...]) -> np.ndarray:
    """One chain's factor of a region's rows at its cuts.

    ``slots`` is the chain's ``_cut_slots``. ``positions`` are the
    region's locations on the chain, as indices into its wire order. Each
    label (one card per location, row-major in wire order) gives one row:
    its transfer maps contracted with the input slot, each gap slot and
    the output slot.
    """
    stacks, inputs, outputs = slots
    d = inputs[0].shape[1]
    x = inputs[positions[0]][None]  # (rows, columns, d) states
    for j, p in enumerate(positions):
        if j:
            gap = _gap_slot(stacks[positions[j - 1] + 1:p], d)
            x = np.einsum("bij,rcj->rcbi", gap, x).reshape(len(x), -1, d)
        x = np.einsum("lij,rcj->rlci", stacks[p], x).reshape(-1, x.shape[1], d)
    return np.einsum("gi,rci->rcg", outputs[positions[-1] + 1], x).reshape(len(x), -1)


def _extended_rows(
    spec: TheorySpec, region: Region, slots: Sequence[tuple[list[np.ndarray], ...]]
) -> np.ndarray:
    """A region's rows of the extended-exterior table, up to an isometry
    of its columns: the same Gram matrix, in label-set order.

    ``slots`` holds every chain's ``_cut_slots``, in chain order. The
    table's entries multiply over chains. Each chain the region touches
    contributes its ``_cut_rows``, and the rows are their Kronecker
    product, from the first such chain on; every other chain is one column
    vector shared by all rows and contributes only its norm, multiplied in
    chain order: the input slot after its last location against its
    output slot there.
    """
    rows = 1.0  # a scalar until the first chain the region touches
    wire: list[int] = []
    for chain, slot in zip(spec.chains, slots, strict=True):
        positions = [p for p, x in enumerate(chain.locations) if x in region]
        if positions:
            cut = _cut_rows(positions, slot)
            rows = np.kron(rows, cut) if np.ndim(rows) else cut * rows
            wire += [chain.locations[p] for p in positions]
        else:
            stacks, inputs, outputs = slot
            rows = rows * np.linalg.norm(_pushed(inputs[-1], stacks[-1]) @ outputs[-1].T)
    # row-major in wire order -> row-major in sorted location order -> label set
    order = sorted(range(len(wire)), key=wire.__getitem__)
    sizes = [spec.family(x).offsets[-1] for x in wire]
    rows = rows.reshape(sizes + [-1]).transpose(order + [len(order)])
    return rows.reshape(math.prod(sizes), -1)[_label_sort(spec, region)[1]]


def validate_table_spans(
    spec: TheorySpec,
    table: ProbTable,
    ranks: Sequence[int],
    tol_rank: float = DEFAULT_RANK_TOL,
) -> tuple[SpanValidation, ...]:
    """Confirm the declared exterior set already exhausts the reachable span.

    For each region of ``table`` (built from ``spec``), its measurement
    matrix puts the region's labels on the rows and everything else, the
    other regions' labels included, on the columns; ``ranks`` holds each
    region's rank there (in ``table.regions`` order), which is the size
    of the fiducial set ``build_causaloid`` finds on the table. The
    extended rank is the greedy rank of the same matrix when a second,
    independent family of preparations and effects is added to every
    chain. It is read at the region's cuts, without a second table: per
    chain the region touches, an input slot (what can enter its first
    location), a gap slot between each pair of its locations and an output
    slot (what can read its last location out), each factored so that the
    rows built from them have the extended table's Gram matrix (see
    ``_extended_rows``). The extended column count is worked out
    arithmetically. If a region's rank grows there, the declared exteriors
    were not informationally complete for it and the compression ranks
    could not be trusted.
    """
    # the extra preparations and effects widen every region's columns alike
    widen = declared = 1
    for chain, preps, effs in zip(spec.chains, spec.preparations, spec.effects):
        _, extra_preps, extra_effs = _spanning_vectors(spec.kind, chain.size)
        widen *= (len(preps) + len(extra_preps)) * (len(effs) + len(extra_effs))
        declared *= len(preps) * len(effs)
    slots = [_cut_slots(spec, ci) for ci in range(len(spec.chains))]
    out = []
    for axis, (region, rank) in enumerate(zip(table.regions, ranks, strict=True)):
        rows = _extended_rows(spec, region, slots)
        extended = len(greedy_independent_rows(rows, tol_rank))
        if extended > rank:
            raise SpanDeficient(
                f"region {region}: rank grows from {rank} to {extended} when the "
                f"exterior set is extended; declare more preparations/effects"
            )
        if extended < rank:
            # more columns cannot lower a rank in exact arithmetic: the
            # fiducial set holds rows that only rounding noise separates
            raise SpanDeficient(
                f"region {region}: fiducial rank {rank} exceeds the extended rank "
                f"{extended}; the rank tolerance is below rounding noise"
            )
        n_exteriors = table.values.size // table.values.shape[axis]
        n_extended = n_exteriors // declared * widen
        out.append(SpanValidation(region, rank, n_exteriors, n_extended))
    return tuple(out)


def validate_exterior_span(
    spec: TheorySpec, region: Region, tol_rank: float = DEFAULT_RANK_TOL
) -> SpanValidation:
    """Span check of one region on its own table (see validate_table_spans)."""
    table = build_prob_table(spec, [region])
    rank = len(greedy_independent_rows(table.values, tol_rank))
    return validate_table_spans(spec, table, [rank], tol_rank)[0]


def conditioning_span(spec: TheorySpec, location: int) -> tuple[int, int]:
    """(span dimension, full dimension) of the conditioning maps at a location.

    A mediating location whose conditioning maps do not span the full
    transfer space cannot be counted on to decouple the regions it sits
    between; composite compressions across it are flagged.
    """
    fam = spec.family(location)
    d = spec.vec_dim(spec.chain_of(location))
    rows = fam.stacked.reshape(fam.offsets[-1], -1)
    dim = len(greedy_independent_rows(rows, DEFAULT_RANK_TOL))
    return dim, d * d
