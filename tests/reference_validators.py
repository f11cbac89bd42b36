"""The ordered validators the shells in ``kdq.hilbert`` and ``kdq.kd`` replaced, kept as a test oracle.

Each one runs every check in its fixed order, finiteness scan included,
before it compares a deviation with its tolerance, and returns the array
the shell would store or raises the first error in that order.  The shells
compare the deviation first and run these checks only to explain a
failure; ``tests/test_validation_order.py`` holds them to the same
verdicts, errors and stored arrays.  A deviation that overflows to NaN
from finite entries (a Gram matrix or a table total past the float range)
fails its check here, as it does in the shells.
"""

from __future__ import annotations

import math

import numpy as np

from kdq import NotNormalizedError, ValidationError
from kdq.hilbert import TOL_PSD, _require_same_dim, _tol


def _max_abs(x: np.ndarray) -> float:
    return float(abs(x).max())


def frozen_complex(data, ndim: int, what: str) -> np.ndarray:
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


def state_vector(amplitudes, tol=None) -> np.ndarray:
    amps = frozen_complex(amplitudes, 1, "state vector")
    norm_sq = float((abs(amps) ** 2).sum())
    if not abs(norm_sq - 1.0) <= _tol(tol):
        raise NotNormalizedError(
            f"state vector has squared norm {norm_sq!r}, expected 1", norm_sq=norm_sq
        )
    return amps


def density_operator(matrix, tol=None) -> np.ndarray:
    mat = frozen_complex(matrix, 2, "density matrix")
    adj = mat.conj().T
    herm_dev = _max_abs(mat - adj)
    if not herm_dev <= _tol(tol):
        raise ValidationError(
            f"density matrix is not Hermitian (max deviation {herm_dev:.3e})",
            deviation=herm_dev,
        )
    trace = complex(mat.trace())
    if abs(trace - 1.0) > _tol(tol):
        raise ValidationError(f"density matrix has trace {trace}, expected 1", trace=trace)
    tol_psd = TOL_PSD
    twice = mat + adj
    twice.ravel()[:: mat.shape[0] + 1] += 2.0 * tol_psd
    try:
        factored = math.isfinite(np.linalg.cholesky(twice)[-1, -1].real)
    except np.linalg.LinAlgError:
        factored = False
    if not factored:
        lo = float(np.linalg.eigvalsh((mat + adj) / 2.0)[0])
        if lo < -tol_psd:
            raise ValidationError(
                f"density matrix has negative eigenvalue {lo:.3e}", min_eigenvalue=lo
            )
    return mat


def orthonormal_basis(matrix, tol=None) -> np.ndarray:
    mat = frozen_complex(matrix, 2, "basis matrix")
    gram = mat.conj().T @ mat
    gram.ravel()[:: mat.shape[0] + 1] -= 1.0
    gram_dev = _max_abs(gram)
    if not gram_dev <= _tol(tol):
        raise ValidationError(
            f"basis vectors are not orthonormal (max Gram deviation {gram_dev:.3e})",
            deviation=gram_dev,
        )
    return mat


def kd_table(basis_a, basis_b, table, tol=None) -> np.ndarray:
    d = basis_a.dim
    _require_same_dim(d, basis_b.dim)
    tab = np.array(table, dtype=np.complex128)
    if tab.shape != (d, d):
        raise ValidationError(f"table must have shape {(d, d)}, got {tab.shape}")
    if not np.isfinite(tab).all():
        raise ValidationError("table contains non-finite entries")
    total = complex(tab.sum())
    if not abs(total - 1.0) <= _tol(tol):
        raise ValidationError(f"table sums to {total}, expected 1", total=total)
    worst_imag = max(_max_abs(tab.sum(axis=1).imag), _max_abs(tab.sum(axis=0).imag))
    if worst_imag > _tol(tol):
        raise ValidationError(
            f"row/column sums have imaginary part {worst_imag:.3e}",
            worst_imag=worst_imag,
        )
    tab.setflags(write=False)
    return tab
