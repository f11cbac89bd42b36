"""The positivity test calls LAPACK's Cholesky gufunc without numpy's wrapper.

``DensityOperator`` factors twice its shifted Hermitian part with the
private ``numpy.linalg._umath_linalg.cholesky_lo``.  These tests pin that
entry point: it must exist with the same signature, give
``np.linalg.cholesky``'s factor bit for bit, and return a non-finite last
pivot exactly where the wrapper raises ``LinAlgError`` (or passes OpenBLAS's
overflowed NaN pivot), without a floating-point warning.  The verdicts,
messages and contexts must stay those of ``reference_validators``.
"""

import math
import warnings

import numpy as np
import pytest

import kdq.hilbert
import reference_validators as ref
from kdq import TOL_PSD, DensityOperator, ValidationError


def _gufunc_factor(a: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        return kdq.hilbert._cholesky_lo(a, signature="D->D")


def _wrapper_factored(a: np.ndarray) -> bool:
    try:
        return math.isfinite(np.linalg.cholesky(a)[-1, -1].real)
    except np.linalg.LinAlgError:
        return False


def _hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + g.conj().T


def test_the_private_gufunc_is_still_there():
    from numpy.linalg import _umath_linalg

    assert kdq.hilbert._cholesky_lo is _umath_linalg.cholesky_lo
    assert _umath_linalg.cholesky_lo.signature == "(m,m)->(m,m)"
    assert "D->D" in _umath_linalg.cholesky_lo.types


@pytest.mark.parametrize("d", [1, 2, 3, 8, 64])
def test_factor_is_the_wrappers_bit_for_bit(d):
    rng = np.random.default_rng(d)
    for _ in range(20):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = g @ g.conj().T + 1e-3 * np.eye(d)
        ours = _gufunc_factor(a)
        theirs = np.linalg.cholesky(a)
        assert ours.dtype == theirs.dtype == np.complex128 and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def _hard_cases():
    rng = np.random.default_rng(2024)
    yield np.zeros((3, 3), dtype=complex)  # singular: a zero pivot
    yield -np.eye(2, dtype=complex)
    yield np.array([[1, 2], [2, 1]], dtype=complex)  # indefinite
    yield np.array([[1e200, 1e200], [1e200, 1e200]], dtype=complex) * 3  # overflows to a NaN pivot
    yield np.array([[1e-300, 5e9], [5e9, 1.0]], dtype=complex)  # overflows, then fails
    yield np.array([[math.inf, 0], [0, 1.0]], dtype=complex)
    yield np.array([[1.0, 0], [0, math.nan]], dtype=complex)
    for scale in (1.0, 1e150, 1e200, 1e-200):
        for d in (2, 3, 5, 16):
            yield _hermitian(rng, d) * scale


def test_last_pivot_is_non_finite_exactly_where_the_wrapper_fails():
    seen = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in _hard_cases():
            factored = math.isfinite(_gufunc_factor(a)[-1, -1].real)
            assert factored is _wrapper_factored(a)
            seen.add(factored)
    assert seen == {True, False}


def test_density_operator_no_longer_calls_the_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    assert DensityOperator(np.eye(3) / 3).dim == 3
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        DensityOperator(np.diag([1.5, -0.5]))


def test_overflow_then_failure_raises_the_eigenvalue_error_without_a_warning():
    # Hermitian with unit trace; the factorization overflows, then meets a
    # negative pivot, so only the unwrapped gufunc's flags could warn here
    mat = np.array([[1e-300, 1e160], [1e160, 1.0 - 1e-300]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="negative eigenvalue") as err:
            DensityOperator(mat)
        with pytest.raises(ValidationError) as expected:
            ref.density_operator(mat)
    assert str(err.value) == str(expected.value) and err.value.context == expected.value.context


def _outcome(build):
    try:
        arr = build()
    except ValidationError as exc:
        return type(exc), str(exc), repr(exc.context)
    return "accepted", arr.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_verdicts_messages_and_contexts_match_the_reference_near_the_bound(seed):
    # spectra placed on both sides of -TOL_PSD and of 0, in several dimensions:
    # where the factorization's verdict could differ from the eigenvalue test
    rng = np.random.default_rng(seed)
    bound = TOL_PSD
    outcomes = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(150):
            d = int(rng.choice([1, 2, 3, 4, 8, 16, 33]))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            lam = rng.random(d)
            lam /= lam.sum()
            k = int(rng.integers(d))
            lam[k] = float(rng.choice([0.0, -bound, -bound * (1 + 1e-6), -bound * (1 - 1e-6), -2 * bound, 1e-17]))
            lam[(k + 1) % d] += 1.0 - lam.sum() if d > 1 else 0.0
            mat = (q * lam) @ q.conj().T
            mat = (mat + mat.conj().T) / 2
            got = _outcome(lambda: DensityOperator(mat).matrix)
            assert got == _outcome(lambda: ref.density_operator(mat))
            outcomes.add(got[0])
    assert outcomes == {"accepted", ValidationError}
