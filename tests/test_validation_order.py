"""The shells accept on one deviation and explain only a failure, as the ordered validators did.

``StateVector``, ``DensityOperator``, ``OrthonormalBasis`` and
``KDDistribution`` compare one deviation with its tolerance first, since a
non-finite entry makes that deviation NaN or inf; the ordered checks of
``reference_validators`` run only after a failed comparison.  Fuzzed
inputs (non-finite entries, overflow, wrong ranks, empty and non-square
arrays, tolerances on and off the boundary and invalid ones) must get the
oracle's verdict, its first error (type, message and context) and, when
accepted, its stored array.  A valid object never runs the finiteness
scan, and a table from ``kd_transform`` keeps the overlaps ``kd_inverse``
divides by.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdq.kd
import reference_validators as ref
from kdq import (
    DensityOperator,
    KDDistribution,
    LinearOperator,
    Ordering,
    OrthonormalBasis,
    StateVector,
    ValidationError,
    computational_basis,
    fourier_basis,
    kd_inverse,
    kd_marginal_a,
    kd_marginal_b,
    kd_transform,
    make_pure_density,
    random_basis,
    random_density,
    random_state,
)
from kdq.io import kd_from_dict, kd_to_dict

inf, nan = math.inf, math.nan
SPECIALS = [
    nan, inf, -inf, complex(inf, nan), complex(nan, inf), complex(-inf, inf), complex(0.0, nan),
    1e200, -1e200j, complex(1e308, -1e308), 1e-320,
]
# valid tolerances, weighted 3:1 against invalid ones
TOLS = [None] * 6 + [1e-12, 1e-10, 1e-6, 0.5, 2.0, 1e300, 1, np.float64(1e-3), np.float32(1e-3)] * 2 + [
    nan, inf, -inf, 0.0, -1e-3, "1e-10", True, False,
]
SHAPES = ["keep"] * 12 + ["ravel", "add_axis", "empty", "empty_rows", "drop_column", "scalar"]


def _outcome(build):
    """("accepted", stored array) or the first error's type, message and context."""
    try:
        with np.errstate(all="ignore"):
            arr = build()
    except Exception as exc:  # any error at all must be the oracle's
        return type(exc), str(exc), repr(getattr(exc, "context", None))
    return "accepted", arr.dtype, arr.shape, arr.tobytes(), arr.flags.writeable


def _mutate(draw, arr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``arr`` scaled, with noise, with non-finite or huge entries and reshaped, as drawn."""
    arr = arr * draw(st.sampled_from([1.0, 1.0, 1.0 + 1e-11, 1.0 + 1e-9, 1.5, 0.0, -1.0, 1e200]))
    noise = draw(st.sampled_from([0.0, 0.0, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3]))
    arr = arr + noise * (rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape))
    flat = arr.reshape(-1)
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2, 3]))):
        flat[rng.integers(flat.size)] = draw(st.sampled_from(SPECIALS))
    shape = draw(st.sampled_from(SHAPES))
    if shape == "ravel":
        return arr.reshape(-1)
    if shape == "add_axis":
        return arr[None]
    if shape == "empty":
        return arr[:0]
    if shape == "empty_rows":
        return arr[..., :0]
    if shape == "drop_column":
        return arr[..., :-1] if arr.ndim == 2 else arr[:-1]
    if shape == "scalar":
        return arr.reshape(-1)[0]
    return arr


@st.composite
def _cases(draw, kind: str):
    d = draw(st.sampled_from([1, 2, 2, 3, 4, 8, 16]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if kind == "state":
        base = random_state(d, seed).amplitudes
    elif kind == "density":
        base = random_density(d, draw(st.integers(1, d)), seed).matrix.copy()
        if d >= 2:  # shift two eigenvalues by +-c: Hermitian, unit trace, and indefinite for large c
            c = draw(st.sampled_from([0.0, 1e-10, 1e-9, 1e-6, 0.3, 2.0]))
            base[0, 0] += c
            base[1, 1] -= c
    else:
        base = random_basis(d, seed).matrix
    return _mutate(draw, base, rng), draw(st.sampled_from(TOLS))


@settings(max_examples=400, deadline=None)
@given(_cases("state"))
def test_state_vector_matches_the_ordered_validator(case):
    data, tol = case
    assert _outcome(lambda: StateVector(data, tol=tol).amplitudes) == _outcome(
        lambda: ref.state_vector(data, tol=tol)
    )


@settings(max_examples=400, deadline=None)
@given(_cases("density"))
def test_density_operator_matches_the_ordered_validator(case):
    data, tol = case
    assert _outcome(lambda: DensityOperator(data, tol=tol).matrix) == _outcome(
        lambda: ref.density_operator(data, tol=tol)
    )


@settings(max_examples=400, deadline=None)
@given(_cases("basis"))
def test_orthonormal_basis_matches_the_ordered_validator(case):
    data, tol = case
    assert _outcome(lambda: OrthonormalBasis(data, tol=tol).matrix) == _outcome(
        lambda: ref.orthonormal_basis(data, tol=tol)
    )


@st.composite
def _tables(draw):
    d = draw(st.sampled_from([2, 2, 3, 4, 8, 16]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    a, b = computational_basis(d), draw(st.sampled_from([fourier_basis(d), random_basis(d, seed)]))
    table = kd_transform(random_density(d, d, seed), a, b, draw(st.sampled_from(list(Ordering)))).table.copy()
    eps = draw(st.sampled_from([0.0, 0.0, 1e-11, 1e-10, 1e-9, 1e-6]))  # imaginary parts of two column sums
    table[0, 0] += 1j * eps
    table[0, 1] -= 1j * eps
    return a, b, _mutate(draw, table, rng), draw(st.sampled_from(TOLS))


@settings(max_examples=400, deadline=None)
@given(_tables())
def test_kd_distribution_matches_the_ordered_validator(case):
    a, b, table, tol = case
    built = _outcome(lambda: KDDistribution(a, b, Ordering.AB, table, tol=tol).table)
    assert built == _outcome(lambda: ref.kd_table(a, b, table, tol=tol))


@pytest.mark.parametrize(
    "build, oracle",
    [
        (lambda x, tol: StateVector(x, tol=tol).amplitudes, ref.state_vector),
        (lambda x, tol: DensityOperator(x, tol=tol).matrix, ref.density_operator),
        (lambda x, tol: OrthonormalBasis(x, tol=tol).matrix, ref.orthonormal_basis),
    ],
    ids=["state", "density", "basis"],
)
@pytest.mark.parametrize("tol", [None, nan, -1.0, "1e-10"], ids=repr)
def test_an_invalid_array_is_explained_before_an_invalid_tolerance(build, oracle, tol):
    invalid = [[nan, 0.0], [[nan, 0.0], [0.0, 1.0]], [[inf, 0.0, 0.0], [0.0, 1.0, 0.0]], [], [[1.0]] * 3, 7.0]
    for data in invalid:
        expected = _outcome(lambda: oracle(data, tol=tol))
        assert _outcome(lambda: build(data, tol)) == expected
        assert expected[0] is ValidationError


def test_huge_finite_bases_keep_the_ordered_verdict():
    # the Gram matrix of entries near 1e200 overflows to NaN; a NaN deviation
    # fails the check, in the ordered validator and in the shell alike
    rng = np.random.default_rng(3)
    for d in (2, 3, 8):
        x = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * 1e200
        expected = _outcome(lambda: ref.orthonormal_basis(x))
        assert expected[0] is ValidationError and "Gram deviation nan" in expected[1], expected
        assert _outcome(lambda: OrthonormalBasis(x).matrix) == expected


def _count(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_valid_objects_never_run_the_finiteness_scan(monkeypatch):
    calls = _count(monkeypatch, np, "isfinite")
    for d in (1, 2, 3, 8, 16, 64):
        a, b = computational_basis(d), random_basis(d, seed=d)
        rho = make_pure_density(random_state(d, seed=d))
        StateVector(random_state(d, seed=d).amplitudes)
        DensityOperator(random_density(d, d, seed=d).matrix)
        OrthonormalBasis(b.matrix)
        dist = kd_transform(rho, a, b)
        KDDistribution(a, b, Ordering.BA, dist.table.conj())
        if d >= 2:
            kd_inverse(kd_transform(rho, a, fourier_basis(d)))
    assert calls == []
    with pytest.raises(ValidationError, match="non-finite"):
        StateVector([nan, 1.0])
    assert calls == ["isfinite"]
    LinearOperator(np.eye(2))  # no deviation implies finiteness: the scan stays
    assert calls == ["isfinite"] * 2


@pytest.mark.parametrize("ordering", list(Ordering))
@pytest.mark.parametrize("dim", [2, 3, 16, 64])
def test_a_round_trip_forms_one_overlap_product(monkeypatch, dim, ordering):
    rho = random_density(dim, dim, seed=dim)
    a, b = computational_basis(dim), fourier_basis(dim)
    calls = _count(monkeypatch, kdq.kd, "_cross_overlaps")
    dist = kd_transform(rho, a, b, ordering)
    back = kd_inverse(dist)
    assert len(calls) == 1
    # a loaded or user-built table has no overlaps yet: kd_inverse forms them once
    for other in (kd_from_dict(kd_to_dict(dist)), KDDistribution(a, b, ordering, dist.table)):
        calls.clear()
        assert kd_inverse(other).matrix.tobytes() == back.matrix.tobytes()
        assert len(calls) == 1


def test_marginals_are_the_sums_the_imaginary_part_check_took():
    rho = random_density(5, 3, seed=1)
    for b in (fourier_basis(5), random_basis(5, seed=2)):
        dist = kd_transform(rho, computational_basis(5), b)
        assert kd_marginal_a(dist).tobytes() == dist.table.sum(axis=1).real.tobytes()
        assert kd_marginal_b(dist).tobytes() == dist.table.sum(axis=0).real.tobytes()
        kd_marginal_a(dist)[0] = 7.0  # a marginal is the caller's copy
        assert not any(s.flags.writeable for s in dist._sums)
        assert kd_marginal_a(dist).tobytes() == dist.table.sum(axis=1).real.tobytes()
