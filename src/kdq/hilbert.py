"""Finite-dimensional complex Hilbert-space primitives.

State vectors, density operators, orthonormal bases, general (possibly
non-Hermitian) operators, product traces, and seeded random generation.
All containers freeze their arrays after validation: a caller's array is copied, while an
array kdq formed itself is adopted (the ``kd_transform`` table, the ``kd_inverse`` matrix).
Every operation is a pure function of its arguments, so objects are safe to share between
threads.  A ``DensityOperator`` keeps the read-only products, AB table and table sums the kd
functions formed for the last basis pair it met, as one flat tuple that a call replaces whole:
concurrent calls may form a product again, but never read one of another pair.

Every value type of kdq is a ``_Value``: ``__slots__`` fields set once in ``__init__``,
``AttributeError`` on assignment or deletion, a dataclass's ``repr``, pickle and ``copy``
that restore arrays read-only, and identity equality (a ``_Record`` compares its fields).

Randomness uses ``numpy.random.default_rng`` (PCG64); the same seed always
reproduces the same output within this implementation.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo as _cholesky_lo  # private; tests/test_positivity.py pins it

from .errors import (
    BadRankError,
    DimMismatchError,
    NotNormalizedError,
    ValidationError,
)

TOL = 1e-10  # every library tol's default: a norm, trace, Hermiticity, Gram, sum or audit deviation
TOL_PSD = 1e-9

# no single array may exceed this; larger requests are refused before allocation
MAX_ARRAY_BYTES = 1 << 30

_setattr = object.__setattr__  # sets a _Value field: once in __init__, or a private cache


def _tol(value, source: str = "tolerance") -> float:
    """``TOL`` for None, else ``value``: finite and positive, as a NaN would skip the check."""
    if value is None:
        return TOL
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        shown = value.item() if isinstance(value, np.generic) else value  # nan, not np.float64(nan)
        raise ValidationError(f"{source} must be a finite positive number, got {shown!r}", source=source)
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
    return float(np.maximum.reduce(abs(x), None))  # abs(x).max()'s bits, without its Python wrapper


def _shaped(data, ndim: int) -> tuple[np.ndarray, bool]:
    """A read-only complex128 copy of ``data``; is it of rank ``ndim``, non-empty and, as a matrix, square?"""
    arr = np.array(data, dtype=np.complex128)
    arr.setflags(write=False)
    return arr, arr.ndim == ndim and arr.size > 0 and arr.shape[0] == arr.shape[-1]


def _require_shaped(arr: np.ndarray, ndim: int, what: str) -> None:
    """Refuse ``arr`` unless of the given rank, non-empty, finite and, as a matrix, square: the first fault wins."""
    if arr.ndim != ndim:
        raise ValidationError(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{what} must be non-empty")
    if not np.logical_and.reduce(np.isfinite(arr), None):
        raise ValidationError(f"{what} contains non-finite entries")
    if arr.shape[0] != arr.shape[-1]:
        raise ValidationError(f"{what} must be square, got shape {arr.shape}")


def _accepts(arr: np.ndarray, ndim: int, what: str, deviation: float, tol) -> bool:
    """``deviation <= tol``, or else the ordered checks: ``_require_shaped``, ``_tol``, then that test (NaN fails)."""
    try:
        if deviation <= _tol(tol):  # NaN or inf for a non-finite entry: accepted arrays are finite
            return True
    except ValidationError:
        pass
    _require_shaped(arr, ndim, what)
    return deviation <= _tol(tol)


class _Value:
    """Immutable value: ``__slots__`` fields, set once in ``__init__``."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__qualname__}({fields})"

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            for arr in value if type(value) is tuple else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            _setattr(self, name, value)


class _Record(_Value):
    """A ``_Value`` equal to one of its class with equal fields, and hashed by them."""

    __slots__ = ()

    def __eq__(self, other):
        return self.__getstate__() == other.__getstate__() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__getstate__().values()))


class StateVector(_Value):
    """Normalized pure state: a length-d complex vector."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes: np.ndarray, tol: float | None = None):
        amps, shaped = _shaped(amplitudes, 1)
        norm_sq = float(np.add.reduce(abs(amps) ** 2, None)) if shaped else math.nan
        if not _accepts(amps, 1, "state vector", abs(norm_sq - 1.0), tol):
            raise NotNormalizedError(
                f"state vector has squared norm {norm_sq!r}, expected 1", norm_sq=norm_sq
            )
        _setattr(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@np.errstate(all="ignore")  # as a decorator np.errstate costs 0.7 us a call, as a with-block 2.2 us
def _factors(twice: np.ndarray) -> bool:
    """Does LAPACK's Cholesky gufunc factor ``twice``? A failed factor, or an overflowed pivot, ends in NaN."""
    return math.isfinite(_cholesky_lo(twice, signature="D->D")[-1, -1].real)


class DensityOperator(_Value):
    """Hermitian, unit-trace, positive-semidefinite d x d matrix."""

    # private _kd: None, or (basis_a, basis_b, <b|a>, <a|rho|b>, AB table, its total, (2, d) sums, their two largest
    # |imag|) of the last basis pair kdq.kd met: flat, so that __setstate__ restores every array read-only
    __slots__ = ("matrix", "_kd")

    def __init__(self, matrix: np.ndarray, tol: float | None = None):
        self._own(*_shaped(matrix, 2), tol)

    def _own(self, mat: np.ndarray, shaped: bool, tol) -> DensityOperator:
        """Check ``mat`` and take it as it is, not copied: ``_shaped``'s copy, or a matrix kdq formed itself."""
        adj = mat.conj().T
        herm_dev = _max_abs(mat - adj) if shaped else math.nan
        if not _accepts(mat, 2, "density matrix", herm_dev, tol):
            raise ValidationError(
                f"density matrix is not Hermitian (max deviation {herm_dev:.3e})",
                deviation=herm_dev,
            )
        trace = complex(np.add.reduce(mat.diagonal()))  # mat.trace()'s reduction, called directly
        if abs(trace - 1.0) > _tol(tol):
            raise ValidationError(f"density matrix has trace {trace}, expected 1", trace=trace)
        # Cholesky of sym + TOL_PSD I, sym = (mat + adj) / 2, succeeds exactly when
        # sym's smallest eigenvalue exceeds -TOL_PSD, within d eps |rho| (Higham,
        # ch. 10); twice that matrix has the same verdict.  The eigenvalue is
        # computed only when the factorization fails.
        twice = mat + adj
        twice.ravel()[:: mat.shape[0] + 1] += 2.0 * TOL_PSD
        if not _factors(twice):
            lo = float(np.linalg.eigvalsh((mat + adj) / 2.0)[0])  # unshifted; eigenvalues ascend
            if lo < -TOL_PSD:
                raise ValidationError(f"density matrix has negative eigenvalue {lo:.3e}", min_eigenvalue=lo)
        mat.setflags(write=False)
        _setattr(self, "matrix", mat)
        _setattr(self, "_kd", None)
        return self

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class LinearOperator(_Value):
    """General d x d complex matrix; no Hermiticity assumed."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        mat = _shaped(matrix, 2)[0]
        _require_shaped(mat, 2, "operator matrix")
        _setattr(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


class OrthonormalBasis(_Value):
    """Ordered orthonormal basis; column k of ``matrix`` is the k-th vector."""

    __slots__ = ("matrix", "label")

    def __init__(self, matrix: np.ndarray, label: str = "", tol: float | None = None):
        mat, shaped = _shaped(matrix, 2)
        gram_dev = math.nan
        if shaped:
            gram = mat.conj().T @ mat
            gram.ravel()[:: mat.shape[0] + 1] -= 1.0  # gram - identity
            gram_dev = _max_abs(gram)
        if not _accepts(mat, 2, "basis matrix", gram_dev, tol):
            raise ValidationError(
                f"basis vectors are not orthonormal (max Gram deviation {gram_dev:.3e})",
                deviation=gram_dev,
            )
        _setattr(self, "matrix", mat)
        _setattr(self, "label", label)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def vector(self, k: int) -> StateVector:
        return StateVector(self.matrix[:, _basis_index(k, self.dim)])

    def projector(self, k: int) -> np.ndarray:
        """Rank-1 projector onto the k-th basis vector, as a raw array."""
        v = self.matrix[:, _basis_index(k, self.dim)]
        return np.outer(v, v.conj())


def _basis_index(index, dim: int) -> int:
    """``index``, refused unless an integer (not a bool) in 0 .. dim - 1."""
    if isinstance(index, bool) or not isinstance(index, numbers.Integral) or not 0 <= index < dim:
        raise ValidationError(f"basis index {index} out of range for dim {dim}")
    return index


def _require_same_dim(x: int, y: int) -> None:
    if x != y:
        raise DimMismatchError(f"dimension mismatch: {x} vs {y}", dims=(x, y))


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in dimension ``dim``."""
    return StateVector(np.eye(1, dim, _basis_index(index, dim), dtype=np.complex128)[0])


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
