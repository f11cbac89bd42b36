"""Finite-dimensional complex Hilbert-space primitives.

State vectors, density operators, orthonormal bases, general (possibly
non-Hermitian) operators, product traces, and seeded random generation.
All containers freeze their arrays after validation, and every operation
is a pure function, so objects are safe to share between threads.

Randomness uses ``numpy.random.default_rng`` (PCG64); the same seed always
reproduces the same output within this implementation.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    BadRankError,
    DimMismatchError,
    NotNormalizedError,
    ValidationError,
)

TOL_NORM = 1e-10
TOL_HERM = 1e-10
TOL_ORTHO = 1e-10
TOL_PSD = 1e-9
TOL_IMAG = 1e-10

# no single array may exceed this; larger requests are refused before allocation
MAX_ARRAY_BYTES = 1 << 30


def _tol(value, default: float, source: str = "tolerance") -> float:
    """``default`` for None, else ``value``: finite and positive, as a NaN would skip the check."""
    if value is None:
        return default
    if type(value) is float and 0 < value < math.inf:  # the common case, without the ABC check below
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValidationError(
            f"{source} must be a finite positive number, got {value!r}", source=source
        )
    return value


def _require_budget(nbytes: int, what: str) -> None:
    if nbytes > MAX_ARRAY_BYTES:
        raise ValidationError(
            f"{what} needs {nbytes} bytes, over the {MAX_ARRAY_BYTES}-byte limit per array",
            bytes=nbytes,
            limit=MAX_ARRAY_BYTES,
        )


def _max_abs(x: np.ndarray) -> float:
    """Largest |entry| of ``x``: the deviation every max-deviation check compares."""
    return float(abs(x).max())


def _frozen_complex(data, ndim: int, what: str) -> np.ndarray:
    """Copy ``data`` to a read-only complex128 array of the given rank; a matrix must be square."""
    arr = np.array(data, dtype=np.complex128)
    if arr.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")
    if ndim == 2 and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state: a length-d complex vector."""

    amplitudes: np.ndarray
    tol: InitVar[float | None] = None

    def __post_init__(self, tol):
        amps = _frozen_complex(self.amplitudes, 1, "state vector")
        norm_sq = float((abs(amps) ** 2).sum())
        if abs(norm_sq - 1.0) > _tol(tol, TOL_NORM):
            raise NotNormalizedError(
                f"state vector has squared norm {norm_sq!r}, expected 1", norm_sq=norm_sq
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite d x d matrix."""

    matrix: np.ndarray
    tol: InitVar[float | None] = None
    tol_psd: InitVar[float | None] = None

    def __post_init__(self, tol, tol_psd):
        mat = _frozen_complex(self.matrix, 2, "density matrix")
        adj = mat.conj().T
        herm_dev = _max_abs(mat - adj)
        if herm_dev > _tol(tol, TOL_HERM):
            raise ValidationError(
                f"density matrix is not Hermitian (max deviation {herm_dev:.3e})",
                deviation=herm_dev,
            )
        trace = complex(mat.trace())
        if abs(trace - 1.0) > _tol(tol, TOL_NORM):
            raise ValidationError(f"density matrix has trace {trace}, expected 1", trace=trace)
        lo = float(np.linalg.eigvalsh((mat + adj) / 2.0)[0])  # eigenvalues ascend
        if lo < -_tol(tol_psd, TOL_PSD):
            raise ValidationError(
                f"density matrix has negative eigenvalue {lo:.3e}", min_eigenvalue=lo
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """General d x d complex matrix; no Hermiticity assumed."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _frozen_complex(self.matrix, 2, "operator matrix")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.matrix.conj().T)


@dataclass(frozen=True, eq=False)
class OrthonormalBasis:
    """Ordered orthonormal basis; column k of ``matrix`` is the k-th vector."""

    matrix: np.ndarray
    label: str = ""
    tol: InitVar[float | None] = None

    def __post_init__(self, tol):
        mat = _frozen_complex(self.matrix, 2, "basis matrix")
        gram = mat.conj().T @ mat
        gram.ravel()[:: mat.shape[0] + 1] -= 1.0  # gram - identity
        gram_dev = _max_abs(gram)
        if gram_dev > _tol(tol, TOL_ORTHO):
            raise ValidationError(
                f"basis vectors are not orthonormal (max Gram deviation {gram_dev:.3e})",
                deviation=gram_dev,
            )
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def vector(self, k: int) -> StateVector:
        return StateVector(self.matrix[:, k])

    @property
    def vectors(self) -> tuple[StateVector, ...]:
        return tuple(self.vector(k) for k in range(self.dim))

    def projector(self, k: int) -> np.ndarray:
        """Rank-1 projector onto the k-th basis vector, as a raw array."""
        v = self.matrix[:, k]
        return np.outer(v, v.conj())


def _require_same_dim(x: int, y: int) -> None:
    if x != y:
        raise DimMismatchError(f"dimension mismatch: {x} vs {y}", dims=(x, y))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValidationError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


def make_pure_density(psi: StateVector, tol: float | None = None) -> DensityOperator:
    """Rank-1 density operator |psi><psi|."""
    return DensityOperator(np.outer(psi.amplitudes, psi.amplitudes.conj()), tol=tol)


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim, dtype=np.complex128) / dim)


def overlap(bra: StateVector, ket: StateVector) -> complex:
    """Inner product <bra|ket>, conjugate-linear in ``bra``."""
    _require_same_dim(bra.dim, ket.dim)
    return complex(np.vdot(bra.amplitudes, ket.amplitudes))


def product_trace(op: LinearOperator, rho: DensityOperator) -> complex:
    """Tr(op . rho) = sum_ij op[i,j] rho[j,i]."""
    _require_same_dim(op.dim, rho.dim)
    return complex(np.einsum("ij,ji->", op.matrix, rho.matrix))


def computational_basis(dim: int) -> OrthonormalBasis:
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    return OrthonormalBasis(np.eye(dim, dtype=np.complex128), label="computational")


def fourier_basis(dim: int) -> OrthonormalBasis:
    """Discrete Fourier basis: vector k has entries exp(2*pi*i*j*k/d)/sqrt(d)."""
    if dim < 2:
        raise ValidationError(f"fourier basis needs dim >= 2, got {dim}")
    j = np.arange(dim)
    mat = np.exp(2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    return OrthonormalBasis(mat, label="fourier")


def random_density(dim: int, rank: int, seed: int) -> DensityOperator:
    """Random density operator rho = G G^dag / Tr(G G^dag), G complex Gaussian d x rank."""
    if not 1 <= rank <= dim:
        raise BadRankError(f"rank must satisfy 1 <= rank <= dim, got rank={rank}, dim={dim}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    mat = g @ g.conj().T
    mat /= np.trace(mat).real
    return DensityOperator(mat)


def random_state(dim: int, seed: int) -> StateVector:
    """Haar-like random pure state (normalized complex Gaussian vector)."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(z / np.linalg.norm(z))


def random_state_orthogonal_to(v: StateVector, seed: int) -> StateVector:
    """Random normalized state in the orthogonal complement of ``v``."""
    if v.dim < 2:
        raise ValidationError("orthogonal complement is empty for dim < 2")
    return StateVector(_complement_samples(np.random.default_rng(seed), v.amplitudes, 1)[0])


def _complement_samples(rng: np.random.Generator, v: np.ndarray, samples: int) -> np.ndarray:
    """``samples`` random unit states orthogonal to ``v``.

    Each sample takes its real then imaginary parts from the next 2d draws
    of ``rng``; near-zero projections are dropped and topped up in order,
    so a seed always yields the same states.  ``np.vecdot`` runs the same
    BLAS dot per sample as ``np.vdot`` and ``np.linalg.norm`` on one vector.
    """
    d = v.size
    out = np.empty((samples, d), dtype=np.complex128)
    n = 0
    while n < samples:
        x = rng.standard_normal((samples - n, 2, d))
        z = x[:, 0] + 1j * x[:, 1]
        z = z - v * np.vecdot(v, z)[:, None]
        nrm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
        keep = nrm > 1e-8
        kept = int(keep.sum())
        out[n : n + kept] = z[keep] / nrm[keep, None]
        n += kept
    return out


def random_basis(dim: int, seed: int) -> OrthonormalBasis:
    """Random orthonormal basis from the QR decomposition of a Gaussian matrix."""
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase freedom so the output is a deterministic function of the seed
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    q = q * phases.conj()
    return OrthonormalBasis(q, label=f"random-{seed}")


def states_equal_up_to_phase(x: StateVector, y: StateVector, tol: float = TOL_NORM) -> bool:
    """Equality of pure states modulo a global phase: | |<x|y>| - 1 | <= tol."""
    if x.dim != y.dim:
        return False
    return abs(abs(overlap(x, y)) - 1.0) <= tol
