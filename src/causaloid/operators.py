"""Numeric building blocks for the theory backends.

Quantum systems are handled in a real transfer-matrix picture: operators are
expanded in an orthonormal Hermitian basis, so states, effects, and channel
actions all become real vectors and matrices. Classical systems use plain
probability vectors and (sub)stochastic kernels. Both meet the same wire
algebra downstream.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BackendError, DimensionMismatch

__all__ = [
    "hermitian_basis",
    "operator_coords",
    "trace_covector",
    "kraus_to_transfer",
    "density_from_ket",
    "ic_pure_kets",
    "extra_pure_kets",
    "named_unitary",
    "projector_at_angle",
    "permutation_kernel",
    "reset_kernel",
    "uniform_kernel",
]

MAX_QUANTUM_DIM = 8


@lru_cache(maxsize=None)
def hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Orthonormal Hermitian basis of d x d matrices; element 0 is I/sqrt(d)."""
    if not 2 <= d <= MAX_QUANTUM_DIM:
        raise DimensionMismatch(f"quantum dimension must be in [2, {MAX_QUANTUM_DIM}], got {d}")
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), complex)
            m[j, k] = 1
            m[k, j] = 1
            mats.append(m / np.sqrt(2))
            m = np.zeros((d, d), complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m / np.sqrt(2))
    for l in range(1, d):
        m = np.zeros((d, d), complex)
        for i in range(l):
            m[i, i] = 1
        m[l, l] = -l
        mats.append(m / np.sqrt(l * (l + 1)))
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


def operator_coords(op: np.ndarray, d: int) -> np.ndarray:
    """Real coordinates of a Hermitian operator in the orthonormal basis."""
    op = np.asarray(op, dtype=complex)
    if op.shape != (d, d):
        raise DimensionMismatch(f"expected a {d}x{d} operator, got {op.shape}")
    basis = hermitian_basis(d)
    return np.array([np.trace(b @ op).real for b in basis])


def trace_covector(d: int) -> np.ndarray:
    """Covector t with t . coords(rho) = Tr[rho]."""
    t = np.zeros(d * d)
    t[0] = np.sqrt(d)
    return t


@lru_cache(maxsize=None)
def _stacked_basis(d: int) -> np.ndarray:
    """``hermitian_basis(d)`` as one read-only (d^2, d, d) array."""
    stacked = np.stack(hermitian_basis(d))
    stacked.setflags(write=False)
    return stacked


def kraus_transfers(outcomes: list[list[np.ndarray]], d: int) -> np.ndarray:
    """Real transfer matrices of the completely positive maps
    rho -> sum K rho K+, one per outcome's Kraus list, as (outcomes, d^2, d^2).

    One basis contraction serves them all: for each Kraus index j, the j-th
    operator of every outcome that has one maps every basis element at once,
    added in Kraus order into a zeroed array, so each map is summed as if it
    were built alone.
    """
    stacked = _stacked_basis(d)
    ks = [[np.asarray(K, dtype=complex) for K in kraus] for kraus in outcomes]
    for K in (K for kraus in ks for K in kraus):
        if K.shape != (d, d):
            raise DimensionMismatch(f"Kraus operator must be {d}x{d}, got {K.shape}")
    out = np.zeros((len(ks), len(stacked), d, d), complex)
    for j in range(max(map(len, ks), default=0)):
        have = [o for o, kraus in enumerate(ks) if len(kraus) > j]
        K = np.stack([ks[o][j] for o in have])[:, None]
        out[have] += K @ stacked @ K.conj().swapaxes(-1, -2)
    out = (out + out.conj().swapaxes(-1, -2)) / 2  # Hermiticity guard against rounding
    # T[o][m, q] = Tr[B_m out[o, q]]
    return np.ascontiguousarray(
        np.trace(stacked[None, :, None] @ out[:, None], axis1=-2, axis2=-1).real
    )


def kraus_to_transfer(kraus: list[np.ndarray], d: int) -> np.ndarray:
    """Real transfer matrix of the completely positive map rho -> sum K rho K+."""
    return kraus_transfers([kraus], d)[0]


def density_from_ket(ket: np.ndarray) -> np.ndarray:
    ket = np.asarray(ket, dtype=complex)
    nrm = np.linalg.norm(ket)
    if nrm < 1e-12:
        raise BackendError("cannot normalize a zero ket")
    ket = ket / nrm
    return np.outer(ket, ket.conj())


def _pair_kets(d: int, phases: tuple[complex, complex]) -> list[np.ndarray]:
    """(|j> + c|k>)/sqrt2 for every pair j < k and each phase c in turn."""
    out = []
    for j in range(d):
        for k in range(j + 1, d):
            for c in phases:
                v = np.zeros(d, complex)
                v[j] = 1
                v[k] = c
                out.append(v / np.sqrt(2))
    return out


def ic_pure_kets(d: int) -> list[np.ndarray]:
    """d^2 pure states whose projectors span the Hermitian operators.

    Basis kets |j>, balanced superpositions (|j>+|k>)/sqrt2, and phased ones
    (|j>+i|k>)/sqrt2. For d=2 these are |0>, |1>, |+>, |+i>.
    """
    return list(np.eye(d, dtype=complex)) + _pair_kets(d, (1, 1j))


def extra_pure_kets(d: int) -> list[np.ndarray]:
    """A second spanning family, disjoint from ic_pure_kets, for span audits."""
    return _pair_kets(d, (-1, -1j))


def named_unitary(name: str, d: int) -> np.ndarray:
    """Small registry of deterministic single-action gates."""
    if name == "identity":
        return np.eye(d, dtype=complex)
    if name == "cycle":
        U = np.zeros((d, d), complex)
        for j in range(d):
            U[(j + 1) % d, j] = 1
        return U
    if name == "fourier":
        w = np.exp(2j * np.pi / d)
        return np.array([[w ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)
    if name == "hadamard":
        if d != 2:
            raise BackendError("hadamard is only defined for dimension 2")
        return np.array([[1, 1], [1, -1]], complex) / np.sqrt(2)
    if name == "phase":
        if d != 2:
            raise BackendError("phase is only defined for dimension 2")
        return np.array([[1, 0], [0, 1j]], complex)
    raise BackendError(f"unknown unitary name {name!r}")


def projector_at_angle(theta_deg: float) -> np.ndarray:
    """Rank-1 projector onto the linear-polarisation direction theta."""
    th = np.deg2rad(theta_deg)
    v = np.array([np.cos(th), np.sin(th)], complex)
    return np.outer(v, v.conj())


# ---------------------------------------------------------------------------
# classical kernels (columns are input symbols, rows output symbols)
# ---------------------------------------------------------------------------

def permutation_kernel(n: int, shift: int) -> np.ndarray:
    T = np.zeros((n, n))
    for j in range(n):
        T[(j + shift) % n, j] = 1.0
    return T


def reset_kernel(n: int, symbol: int) -> np.ndarray:
    if not 0 <= symbol < n:
        raise BackendError(f"reset symbol {symbol} outside alphabet of size {n}")
    T = np.zeros((n, n))
    T[symbol, :] = 1.0
    return T


def uniform_kernel(n: int) -> np.ndarray:
    return np.full((n, n), 1.0 / n)
