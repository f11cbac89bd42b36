"""Hilbert-space primitive tests: frozen examples plus random-property sweeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdq
from kdq import (
    BadRankError,
    DensityOperator,
    DimMismatchError,
    KDDistribution,
    KdqError,
    LinearOperator,
    NotNormalizedError,
    Ordering,
    OrthonormalBasis,
    QuasiProbRep,
    TOL_PSD,
    StateVector,
    ValidationError,
    WignerTable,
    basis_state,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    condition3_violation_report,
    discrete_wigner,
    double_slit_state,
    fourier_basis,
    kd_inverse,
    kd_marginal_a,
    kd_marginal_b,
    kd_rep,
    kd_transform,
    make_pure_density,
    maximally_mixed,
    overlap,
    product_trace,
    random_basis,
    random_density,
    random_state,
)

SQ2 = np.sqrt(2.0)


def plus_state():
    return StateVector(np.array([1, 1]) / SQ2)


def i_state():
    return StateVector(np.array([1, 1j]) / SQ2)


# ---------------------------------------------------------------------------
# construction and validation


def test_state_vector_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_nan():
    with pytest.raises(ValidationError):
        StateVector(np.array([np.nan, 0.0]))


def test_state_vector_is_frozen():
    psi = plus_state()
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        DensityOperator(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_rejects_bad_trace():
    with pytest.raises(ValidationError):
        DensityOperator(np.eye(2))


def test_density_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([1.5, -0.5]))


def test_basis_rejects_non_orthonormal():
    with pytest.raises(ValidationError):
        OrthonormalBasis(np.array([[1.0, 1.0], [0.0, 0.1]]))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: basis_state(2, 2), "basis index 2 out of range for dim 2"),
        (lambda: basis_state(2, -1), "basis index -1 out of range for dim 2"),
        (lambda: basis_state(2, 1.0), "basis index 1.0 out of range for dim 2"),
        (lambda: basis_state(2, True), "basis index True out of range for dim 2"),
        (lambda: fourier_basis(3).vector(-1), "basis index -1 out of range for dim 3"),
        (lambda: fourier_basis(3).vector(3), "basis index 3 out of range for dim 3"),
        (lambda: fourier_basis(3).vector(1.0), "basis index 1.0 out of range for dim 3"),
        (lambda: fourier_basis(3).projector(-1), "basis index -1 out of range for dim 3"),
        (lambda: fourier_basis(3).projector(3), "basis index 3 out of range for dim 3"),
        (lambda: fourier_basis(3).projector(1.0), "basis index 1.0 out of range for dim 3"),
        (lambda: fourier_basis(1), "fourier basis needs dim >= 2, got 1"),
        (lambda: random_state(0, seed=0), "dimension must be positive, got 0"),
        (lambda: random_basis(0, seed=0), "dimension must be positive, got 0"),
    ],
    ids=["basis-index-high", "basis-index-negative", "basis-index-float", "basis-index-bool",
         "vector-index-negative", "vector-index-high", "vector-index-float",
         "projector-index-negative", "projector-index-high", "projector-index-float",
         "fourier-d1", "random-state-d0", "random-basis-d0"],
)
def test_generators_refuse_out_of_range_arguments(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build()


BAD_TOLS = [np.nan, np.inf, -np.inf, 0.0, -1e-3, "1e-10", True, np.float64("nan"), np.float64(-1e-3)]


@pytest.mark.parametrize("tol", BAD_TOLS, ids=repr)
@pytest.mark.parametrize(
    "build",
    [
        lambda tol: StateVector(np.array([1.0, 0.0]), tol=tol),
        lambda tol: DensityOperator(np.eye(2) / 2, tol=tol),
        lambda tol: DensityOperator(np.diag([1.5, -0.5]), tol=tol),
        lambda tol: OrthonormalBasis(np.eye(2), tol=tol),
        lambda tol: make_pure_density(basis_state(2, 0), tol=tol),
    ],
    ids=["state", "density-tol", "density-tol-indefinite", "basis", "pure-density"],
)
def test_tolerance_must_be_finite_and_positive(build, tol):
    # a NaN tolerance used to make every "deviation > tol" test false; an
    # indefinite matrix, which the fixed TOL_PSD refuses, meets the tolerance's error first
    with pytest.raises(ValidationError, match="tolerance must be a finite positive number") as err:
        build(tol)
    # a numpy scalar reads as the plain number it holds, not as np.float64(...)
    plain = float(tol) if isinstance(tol, np.float64) else tol
    assert str(err.value).endswith(f"got {plain!r}")


def _dev_rho(dev: float, dim: int = 2) -> DensityOperator:
    """A diagonal state of trace 1 + ``dev``, built under a loose bound for a call that judges it under its own."""
    return DensityOperator(np.diag([0.5 + dev] + [0.5 / (dim - 1)] * (dim - 1)), tol=1e-6)


def _dev_table(dev: float) -> KDDistribution:
    """``_dev_rho(dev)``'s table over computational x fourier: it and both its marginals sum to 1 + ``dev``."""
    return kd_transform(_dev_rho(dev), computational_basis(2), fourier_basis(2), tol=1e-6)


def _dev_rep(check, dev: float) -> QuasiProbRep:
    """The KD family with cell (0, 0) moved along |0><0| until ``check``'s worst violation is ``dev``."""
    a, b = computational_basis(2), fourier_basis(2)
    ops = kd_rep(a, b).operators

    def moved(step):
        shifted = ops.copy()
        shifted[0, 0, 0, 0] += step
        return QuasiProbRep(a, b, shifted)

    return moved(dev * 1e-3 / check(moved(1e-3)).worst_violation)  # each check's worst is linear in the step


def _dark_row_rho(dev: float) -> DensityOperator:
    """The d=3 double slit at 0 and 2 with weight ``dev`` moved to the midpoint |1>: its marginal there is ``dev``."""
    psi = double_slit_state(3, 0, 2).amplitudes
    return DensityOperator((1 - dev) * np.outer(psi, psi.conj()) + np.diag([0.0, dev, 0.0]))


def _audit_probe(check):
    def probe(dev, tol):
        report = check(_dev_rep(check, dev), tol=tol)
        return report.passed, report
    return probe


# every library entry point that takes tol, fed an input whose deviation at that tol's check is ``dev``:
# each returns (is the deviation within the bound?, what the call made, comparable with ==)
TOL_PROBES = {
    "state": lambda dev, tol: (True, StateVector([np.sqrt(1 + dev), 0.0], tol=tol).amplitudes.tobytes()),
    "density-hermitian": lambda dev, tol: (True, DensityOperator([[0.5, dev], [0, 0.5]], tol=tol).matrix.tobytes()),
    "density-trace": lambda dev, tol: (True, DensityOperator(_dev_rho(dev).matrix, tol=tol).matrix.tobytes()),
    "basis": lambda dev, tol: (True, OrthonormalBasis(np.diag([np.sqrt(1 + dev), 1]), tol=tol).matrix.tobytes()),
    "kd-table-total": lambda dev, tol: (True, KDDistribution(
        computational_basis(2), fourier_basis(2), Ordering.AB, _dev_table(dev).table, tol=tol).table.tobytes()),
    "kd-table-imag": lambda dev, tol: (True, KDDistribution(
        computational_basis(2), fourier_basis(2), Ordering.AB, [[0.5, dev * 1j], [-dev * 1j, 0.5]], tol=tol
    ).table.tobytes()),
    "kd-transform": lambda dev, tol: (True, kd_transform(
        _dev_rho(dev), computational_basis(2), fourier_basis(2), tol=tol).table.tobytes()),
    "kd-marginal-a": lambda dev, tol: (True, kd_marginal_a(_dev_table(dev), tol=tol).tobytes()),
    "kd-marginal-b": lambda dev, tol: (True, kd_marginal_b(_dev_table(dev), tol=tol).tobytes()),
    "kd-inverse": lambda dev, tol: (True, kd_inverse(_dev_table(dev), tol=tol).matrix.tobytes()),
    "wigner-table": lambda dev, tol: (True, WignerTable(np.full((3, 3), (1 + dev) / 9), tol=tol).table.tobytes()),
    "discrete-wigner": lambda dev, tol: (True, discrete_wigner(_dev_rho(dev, 3), tol=tol).table.tobytes()),
    # a row whose marginal is within the bound reads as dark, and its nonzero Wigner cells as violations
    "condition3-report": lambda dev, tol: (bool(report := condition3_violation_report(_dark_row_rho(dev), tol=tol)),
                                           report),
    "c1": _audit_probe(check_condition1),
    "c2": _audit_probe(check_condition2),
    "c3": _audit_probe(check_condition3),
    "span": _audit_probe(check_span),
}


@pytest.mark.parametrize("probe", TOL_PROBES.values(), ids=TOL_PROBES.keys())
def test_tol_none_is_kdq_TOL(probe):
    # one default for every library bound: None decides as kdq.TOL does, on either side of it
    def outcome(dev, tol):
        try:
            return probe(dev, tol)
        except KdqError as err:
            return False, (type(err), str(err), err.context)

    for dev, within in ((0.5 * kdq.TOL, True), (2 * kdq.TOL, False)):
        default = outcome(dev, None)
        assert default == outcome(dev, kdq.TOL)
        assert default[0] is within, default


def test_nan_tolerances_no_longer_accept_bad_inputs():
    with pytest.raises(ValidationError):
        DensityOperator([[5, 2], [7, -4]], tol=np.nan)
    with pytest.raises(ValidationError):
        StateVector([3, 0], tol=np.nan)


def test_tolerance_accepts_any_finite_positive_real():
    for tol in (1, 1e-3, np.float64(1e-3), np.float32(1e-3)):
        StateVector(np.array([1.0, 1e-4]), tol=tol)
        DensityOperator(np.eye(2) / 2, tol=tol)
        OrthonormalBasis(np.eye(2), tol=tol)


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("dim", [2, 3, 5, 16])
def test_rejected_values_match_the_plain_numpy_expressions(dim):
    """Each error's context holds the value the check compared, bit for bit."""
    rng = np.random.default_rng(dim)
    for _ in range(10):
        z = _random_complex(rng, dim)
        with pytest.raises(NotNormalizedError) as err:
            StateVector(z)
        assert err.value.context["norm_sq"] == float(np.sum(np.abs(z) ** 2))

        m = _random_complex(rng, dim, dim)
        with pytest.raises(ValidationError, match="not Hermitian") as err:
            DensityOperator(m)
        assert err.value.context["deviation"] == float(np.max(np.abs(m - m.conj().T)))

        h = m + m.conj().T
        with pytest.raises(ValidationError, match="trace") as err:
            DensityOperator(h)
        assert err.value.context["trace"] == complex(np.trace(h))

        h = h - np.eye(dim) * (np.trace(h).real - 1.0) / dim  # unit trace, indefinite
        with pytest.raises(ValidationError, match="negative eigenvalue") as err:
            DensityOperator(h, tol=1e-6)
        expected = float(np.linalg.eigvalsh((h + h.conj().T) / 2.0).min())
        assert err.value.context["min_eigenvalue"] == expected

        with pytest.raises(ValidationError, match="orthonormal") as err:
            OrthonormalBasis(m)
        assert err.value.context["deviation"] == float(
            np.max(np.abs(m.conj().T @ m - np.eye(dim)))
        )


# ---------------------------------------------------------------------------
# positivity: one Cholesky factorization accepts, eigvalsh only reports


def _unit_trace_hermitian(rng, dim, lo):
    """U diag(lam) U^dag with lam_min = ``lo`` and unit trace, Hermitian bit for bit."""
    rest = rng.uniform(0.5, 1.5, dim - 1)
    lam = np.concatenate([[lo], rest * (1.0 - lo) / rest.sum()])
    u = np.linalg.qr(_random_complex(rng, dim, dim))[0]
    m = (u * lam) @ u.conj().T
    return (m + m.conj().T) / 2.0


def _smallest_sym_eigenvalue(h):
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2.0)[0])


@pytest.mark.parametrize("tol", [None, 1e-6, 1e-3], ids=["default", "1e-6", "1e-3"])
@pytest.mark.parametrize("dim", [2, 3, 16, 64])
def test_psd_verdict_matches_the_smallest_eigenvalue_at_the_bound(dim, tol):
    # the bound is the fixed TOL_PSD, whatever tol the caller passes for the trace and hermiticity
    bound = TOL_PSD
    rng = np.random.default_rng(dim)
    for factor in (-0.5, -0.999, -1.001, -2.0):
        for _ in range(5):
            h = _unit_trace_hermitian(rng, dim, factor * bound)
            lo = _smallest_sym_eigenvalue(h)
            assert (lo < -bound) == (factor < -1.0)  # the cases sit on both sides
            if lo < -bound:
                with pytest.raises(ValidationError, match="negative eigenvalue") as err:
                    DensityOperator(h, tol=tol)
                assert err.value.context["min_eigenvalue"] == lo
            else:
                assert DensityOperator(h, tol=tol).dim == dim


@pytest.mark.parametrize("rank", [1, 2, 32, 63])
def test_rank_deficient_densities_are_accepted_at_d64(rank):
    # their zero eigenvalues are rounding noise of either sign
    for seed in range(5):
        assert random_density(64, rank, seed=seed).dim == 64
        assert make_pure_density(random_state(64, seed)).dim == 64


def test_huge_indefinite_matrix_reports_the_eigenvalue():
    # their Cholesky pivots overflow to NaN rather than failing
    rng = np.random.default_rng(200)
    for dim in (2, 16, 64):
        x = _random_complex(rng, dim, dim) * 1e200
        h = x + x.conj().T
        np.fill_diagonal(h, 1.0 / dim)
        with pytest.raises(ValidationError, match="negative eigenvalue") as err:
            DensityOperator(h)
        assert err.value.context["min_eigenvalue"] == _smallest_sym_eigenvalue(h)
        assert err.value.context["min_eigenvalue"] < -1e199


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_valid_densities_never_call_eigvalsh(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    for dim in range(2, 65):
        a, b = computational_basis(dim), fourier_basis(dim)
        for rho in (
            random_density(dim, 1, seed=dim),
            random_density(dim, dim, seed=dim),
            make_pure_density(random_state(dim, seed=dim)),
            maximally_mixed(dim),
        ):
            for ordering in Ordering:
                assert kd_inverse(kd_transform(rho, a, b, ordering)).dim == dim
    assert calls == []


def test_a_rejected_density_calls_eigvalsh_once(monkeypatch):
    calls = _count_eigvalsh(monkeypatch)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        DensityOperator(np.diag([1.5, -0.5]))
    assert calls == [(2, 2)]


# ---------------------------------------------------------------------------
# make_pure_density


def test_pure_density_basis_state():
    rho = make_pure_density(basis_state(2, 0))
    np.testing.assert_allclose(rho.matrix, np.array([[1, 0], [0, 0]]), atol=1e-15)


def test_pure_density_plus_state():
    rho = make_pure_density(plus_state())
    np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)


def test_pure_density_matches_outer_product_oracle():
    psi = i_state()
    expected = np.outer(psi.amplitudes, psi.amplitudes.conj())
    rho = make_pure_density(psi)
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)
    assert abs(rho.matrix[0, 1] - (-0.5j)) < 1e-15
    # rank 1 and it fixes psi
    np.testing.assert_allclose(rho.matrix @ psi.amplitudes, psi.amplitudes, atol=1e-14)


# ---------------------------------------------------------------------------
# overlap


def test_overlap_examples():
    zero, one = basis_state(2, 0), basis_state(2, 1)
    assert overlap(zero, zero) == pytest.approx(1.0)
    assert overlap(zero, plus_state()) == pytest.approx(1 / SQ2)
    assert overlap(i_state(), plus_state()) == pytest.approx((1 - 1j) / 2)
    assert overlap(zero, one) == pytest.approx(0.0)


def test_overlap_dim_mismatch():
    with pytest.raises(DimMismatchError):
        overlap(basis_state(2, 0), basis_state(3, 0))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 10_000), st.integers(2, 6))
def test_overlap_conjugate_symmetry_and_norm(seed_x, seed_y, dim):
    x, y = random_state(dim, seed_x), random_state(dim, seed_y)
    assert overlap(x, y) == pytest.approx(np.conj(overlap(y, x)), abs=1e-12)
    assert overlap(x, x) == pytest.approx(1.0, abs=1e-12)


def test_overlap_linear_in_ket_conjugate_linear_in_bra():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        sx, sy = StateVector(x), StateVector(y)
        direct = np.vdot(x, alpha * y)
        assert alpha * overlap(sx, sy) == pytest.approx(direct, abs=1e-12)
        assert np.conj(alpha) * overlap(sy, sx) == pytest.approx(np.conj(direct), abs=1e-12)


# ---------------------------------------------------------------------------
# product_trace


def test_product_trace_identity_gives_one():
    rho = random_density(5, 3, seed=11)
    assert product_trace(LinearOperator(np.eye(5)), rho) == pytest.approx(1.0, abs=1e-12)


def test_product_trace_born_rule():
    rho = make_pure_density(plus_state())
    proj0 = LinearOperator(np.array([[1, 0], [0, 0]], dtype=complex))
    assert product_trace(proj0, rho) == pytest.approx(0.5, abs=1e-13)


def test_product_trace_non_hermitian_example():
    # op = |+><+|0><0|, rho = |i><i|
    plus, zero = plus_state(), basis_state(2, 0)
    op_mat = np.outer(plus.amplitudes, plus.amplitudes.conj()) @ np.outer(
        zero.amplitudes, zero.amplitudes.conj()
    )
    rho = make_pure_density(i_state())
    got = product_trace(LinearOperator(op_mat), rho)
    oracle = np.trace(op_mat @ rho.matrix)  # independent matrix-product route
    assert got == pytest.approx(oracle, abs=1e-14)
    assert got == pytest.approx((1 - 1j) / 4, abs=1e-13)


def test_product_trace_hermitian_is_real():
    worst = 0.0
    for dim in range(2, 9):
        for k in range(100):
            rng = np.random.default_rng(1000 * dim + k)
            h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = h + h.conj().T
            rho = random_density(dim, dim, seed=2000 * dim + k)
            worst = max(worst, abs(product_trace(LinearOperator(h), rho).imag))
    assert worst <= 1e-12


def test_product_trace_linear_in_operator():
    rng = np.random.default_rng(17)
    rho = random_density(4, 4, seed=5)
    for _ in range(50):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        lhs = product_trace(LinearOperator(a * x + b * y), rho)
        rhs = a * product_trace(LinearOperator(x), rho) + b * product_trace(
            LinearOperator(y), rho
        )
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# bases


def test_fourier_basis_d2_is_hadamard():
    f = fourier_basis(2)
    np.testing.assert_allclose(f.matrix[:, 0], np.array([1, 1]) / SQ2, atol=1e-15)
    np.testing.assert_allclose(f.matrix[:, 1], np.array([1, -1]) / SQ2, atol=1e-15)


def test_fourier_basis_entry_formula():
    f = fourier_basis(3)
    assert f.matrix[2, 1] == pytest.approx(np.exp(4j * np.pi / 3) / np.sqrt(3), abs=1e-15)


def test_fourier_basis_gram_matrix():
    f = fourier_basis(4)
    gram = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            gram[i, j] = overlap(f.vector(i), f.vector(j))
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-14)


@pytest.mark.parametrize("dim", range(2, 9))
def test_generated_bases_are_orthonormal(dim):
    for basis in (computational_basis(dim), fourier_basis(dim), random_basis(dim, seed=dim)):
        gram = basis.matrix.conj().T @ basis.matrix
        off = gram - np.eye(dim)
        assert np.abs(off).max() <= 1e-12


# ---------------------------------------------------------------------------
# random generation


def test_random_density_contract():
    rho = random_density(5, 5, seed=0)
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-12)
    assert eigs.min() >= -1e-9


def test_random_density_rank_one_is_pure():
    rho = random_density(4, 1, seed=3)
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert purity == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_rank_one_density_validates(dim):
    # the smallest eigenvalue of a projector is rounding noise of either sign
    for seed in range(10):
        rho = random_density(dim, 1, seed=seed)
        assert make_pure_density(random_state(dim, seed)).dim == dim
        lo = np.linalg.eigvalsh(rho.matrix)[0]
        assert lo == np.linalg.eigvalsh(rho.matrix).min() and abs(lo) <= 1e-9


def test_random_density_requested_rank():
    rho = random_density(6, 3, seed=9)
    eigs = np.linalg.eigvalsh(rho.matrix)
    assert int(np.sum(eigs > 1e-9)) == 3


def test_random_density_deterministic():
    a = random_density(4, 2, seed=42)
    b = random_density(4, 2, seed=42)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_density_invariants_many_seeds():
    # 1000 seeds spread over dims 2..16
    for seed in range(1000):
        dim = 2 + seed % 15
        rho = random_density(dim, 1 + seed % dim, seed=seed)
        assert np.abs(rho.matrix - rho.matrix.conj().T).max() <= 1e-10
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-9


def test_random_density_bad_rank():
    with pytest.raises(BadRankError):
        random_density(3, 4, seed=0)
    with pytest.raises(BadRankError):
        random_density(3, 0, seed=0)


def test_maximally_mixed():
    rho = maximally_mixed(3)
    np.testing.assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-15)
