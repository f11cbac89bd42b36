"""Discrete phase-space baseline tests, including the double-slit contrast."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdq import (
    BadSlitsError,
    DensityOperator,
    EvenDimensionError,
    StateVector,
    ValidationError,
    WignerTable,
    basis_state,
    check_condition1,
    check_condition3,
    computational_basis,
    condition3_violation_report,
    discrete_wigner,
    double_slit_state,
    evaluate,
    fourier_basis,
    kd_transform,
    make_pure_density,
    maximally_mixed,
    momentum_basis,
    phase_point_operator,
    position_marginal,
    random_density,
    wigner_as_rep,
)


def _wigner_oracle(rho_mat: np.ndarray) -> np.ndarray:
    """Independent elementwise kernel sum (no vectorization shared with the library)."""
    d = rho_mat.shape[0]
    out = np.zeros((d, d), dtype=complex)
    for q in range(d):
        for p in range(d):
            for x in range(d):
                out[q, p] += np.exp(4j * np.pi * p * x / d) * rho_mat[(q + x) % d, (q - x) % d]
    return out / d


# ---------------------------------------------------------------------------
# discrete_wigner


# Displacement covariance (Wootters, Ann. Phys. 176, 1 (1987)): with X_s|j> = |j+s> and
# Z_k|j> = exp(2 pi i k j / d)|j>, the state X_s Z_k rho Z_k^dag X_s^dag has the table
# W'(q, p) = W(q - s, p + k), indices mod d.  Largest |W' - shifted W| over 2,000 draws
# (odd d <= 15, either function): 6.8e-16 (3.1 eps), from rounding in the displaced state alone.
DISPLACEMENT_BOUND = 8 * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from(range(3, 16, 2)), data=st.data())
def test_a_displaced_state_has_the_displaced_table(d, data):
    s, k = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    rho = random_density(d, data.draw(st.integers(1, d)), seed=data.draw(st.integers(0, 2**31)))
    j = np.arange(d)
    xz = np.eye(d)[:, (j + s) % d] * np.exp(2j * np.pi * k * j / d)  # X_s Z_k: column j is e^{2 pi i k j/d} |j+s>
    displaced = DensityOperator(xz @ rho.matrix @ xz.conj().T)
    shift = (s, -k), (0, 1)  # rolled[q, p] = table[q - s, p + k]
    expected = np.roll(discrete_wigner(rho).table, *shift)
    assert np.abs(discrete_wigner(displaced).table - expected).max() <= DISPLACEMENT_BOUND
    rep = wigner_as_rep(d)
    expected = np.roll(evaluate(rep, rho), *shift)
    assert np.abs(evaluate(rep, displaced) - expected).max() <= DISPLACEMENT_BOUND


def test_wigner_maximally_mixed_is_uniform():
    w = discrete_wigner(maximally_mixed(3))
    np.testing.assert_allclose(w.table, np.full((3, 3), 1 / 9), atol=1e-14)


def test_wigner_position_eigenstate_single_row():
    rho = make_pure_density(basis_state(5, 3))
    w = discrete_wigner(rho)
    expected = np.zeros((5, 5))
    expected[3, :] = 1 / 5
    np.testing.assert_allclose(w.table, expected, atol=1e-14)


def test_wigner_matches_elementwise_oracle():
    for dim in (3, 5, 7):
        rho = random_density(dim, dim, seed=77 + dim)
        oracle = _wigner_oracle(rho.matrix)
        assert np.abs(oracle.imag).max() <= 1e-12
        np.testing.assert_allclose(discrete_wigner(rho).table, oracle.real, atol=1e-12)


def _loop_wigner(rho_mat: np.ndarray) -> np.ndarray:
    """The row-by-row gather the table used before one fancy index, as a test oracle."""
    d = rho_mat.shape[0]
    x = np.arange(d)
    kernel = np.exp(4j * np.pi * np.outer(x, x) / d)
    anti = np.empty((d, d), dtype=np.complex128)
    for q in range(d):
        anti[q] = rho_mat[(q + x) % d, (q - x) % d]
    return (anti @ kernel.T / d).real


def _loop_report(rho, tol):
    """The cell-by-cell violation scan the mask replaced, as a test oracle."""
    w = _loop_wigner(rho.matrix)
    marg = np.diagonal(rho.matrix).real
    out = []
    for q in range(rho.dim):
        if marg[q] <= tol:
            for p in range(rho.dim):
                if abs(w[q, p]) > tol:
                    out.append((q, p, float(w[q, p])))
    return out


@pytest.mark.parametrize("dim", [1, 3, 5, 9, 31])
def test_table_and_report_equal_the_loops_byte_for_byte(dim):
    states = [random_density(dim, max(1, dim // 2), seed=dim)]
    states += [make_pure_density(double_slit_state(dim, s, s + 2)) for s in range(dim - 2)]
    for rho in states:
        assert discrete_wigner(rho).table.tobytes() == _loop_wigner(rho.matrix).tobytes()
        for tol in (1e-10, 1e-3, 0.1):
            report = condition3_violation_report(rho, tol=tol)
            assert report == _loop_report(rho, tol)
            assert [tuple(map(type, cell)) for cell in report] == [(int, int, float)] * len(report)


def test_wigner_even_dimension_rejected():
    with pytest.raises(EvenDimensionError):
        discrete_wigner(maximally_mixed(4))


@pytest.mark.parametrize(
    "table, error, message",
    [
        (np.full((3, 2), 1 / 6), ValidationError, r"table must be square, got shape \(3, 2\)"),
        (np.full(9, 1 / 9), ValidationError, r"table must be 2-dimensional, got shape \(9,\)"),
        (np.full((2, 2), 0.25), EvenDimensionError, "dimension must be odd, got 2"),
        (np.where(np.eye(3), np.nan, 0.0), ValidationError, "table contains non-finite entries"),
        (np.full((3, 3), 0.2), ValidationError, "table sums to 1.8"),
    ],
    ids=["rectangular", "flat", "even", "nan", "sum"],
)
def test_wigner_table_refuses_what_no_state_makes(table, error, message):
    with pytest.raises(error, match=message):
        WignerTable(table)


def test_wigner_marginals_many_random_states():
    worst_q = worst_p = 0.0
    for dim in (3, 5, 7):
        pbasis = momentum_basis(dim)
        for k in range(334):
            rho = random_density(dim, 1 + k % dim, seed=1000 * dim + k)
            table = discrete_wigner(rho).table
            born_q = np.diagonal(rho.matrix).real
            born_p = np.real(
                np.diagonal(pbasis.matrix.conj().T @ rho.matrix @ pbasis.matrix)
            )
            worst_q = max(worst_q, np.abs(table.sum(axis=1) - born_q).max())
            worst_p = max(worst_p, np.abs(table.sum(axis=0) - born_p).max())
    assert worst_q <= 1e-10
    assert worst_p <= 1e-10


# ---------------------------------------------------------------------------
# double-slit state


def test_double_slit_amplitudes():
    psi = double_slit_state(5, 1, 3)
    expected = np.zeros(5, dtype=complex)
    expected[1] = expected[3] = 1 / np.sqrt(2)
    np.testing.assert_allclose(psi.amplitudes, expected, atol=1e-15)
    rho = make_pure_density(psi)
    assert position_marginal(rho)[2] == pytest.approx(0.0, abs=1e-15)
    assert rho.matrix[1, 3] == pytest.approx(0.5, abs=1e-15)


def test_double_slit_bad_slits():
    with pytest.raises(BadSlitsError):
        double_slit_state(5, 1, 1)
    with pytest.raises(BadSlitsError):
        double_slit_state(5, 1, 2)  # midpoint off the grid
    with pytest.raises(BadSlitsError):
        double_slit_state(5, 0, 7)
    with pytest.raises(EvenDimensionError):
        double_slit_state(4, 0, 2)


def test_double_slit_midpoint_value():
    rho = make_pure_density(double_slit_state(5, 1, 3))
    w = discrete_wigner(rho)
    assert w.table[2, 0] == pytest.approx(0.2, abs=1e-12)


# ---------------------------------------------------------------------------
# violation report


def test_violation_report_position_eigenstate_empty():
    assert condition3_violation_report(make_pure_density(basis_state(5, 2))) == []


def test_violation_report_maximally_mixed_empty():
    assert condition3_violation_report(maximally_mixed(5)) == []


def test_violation_report_double_slit_contains_midpoint():
    rho = make_pure_density(double_slit_state(5, 1, 3))
    report = condition3_violation_report(rho)
    assert any(q == 2 and p == 0 and abs(w - 0.2) <= 1e-12 for q, p, w in report)
    assert all(q == 2 for q, _, _ in report)  # only the midpoint row can violate


def test_violation_report_tol_judges_zero_marginals():
    # amplitude 10**-4.5 at the midpoint q=2 of slits 0 and 4: its occupation
    # 1e-9 counts as nonzero at the default 1e-10 and as zero at 1e-8
    eps = 10**-4.5
    amps = np.zeros(5, dtype=complex)
    amps[[0, 4]], amps[2] = np.sqrt((1 - eps**2) / 2), eps
    rho = make_pure_density(StateVector(amps))
    assert all(q != 2 for q, _, _ in condition3_violation_report(rho))
    assert any(q == 2 for q, _, _ in condition3_violation_report(rho, tol=1e-8))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-3], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: WignerTable(np.full((3, 3), 1 / 9), tol=tol),
        lambda tol: discrete_wigner(maximally_mixed(3), tol=tol),
        lambda tol: condition3_violation_report(maximally_mixed(3), tol=tol),
    ],
    ids=["table", "discrete_wigner", "violation_report"],
)
def test_tolerance_must_be_finite_and_positive(call, tol):
    with pytest.raises(ValidationError, match="tolerance must be a finite positive number"):
        call(tol)


def test_violation_report_d3():
    rho = make_pure_density(double_slit_state(3, 0, 2))
    report = condition3_violation_report(rho)
    assert any(q == 1 for q, _, _ in report)


# ---------------------------------------------------------------------------
# representation bridge


def test_phase_point_operators_are_hermitian_unit_trace_family():
    d = 5
    for q in range(d):
        for p in range(d):
            mat = phase_point_operator(d, q, p)
            assert np.abs(mat - mat.conj().T).max() <= 1e-15
            assert np.trace(mat) == pytest.approx(1 / d, abs=1e-15)


def test_wigner_rep_agrees_with_direct_table():
    rep = wigner_as_rep(5)
    worst = 0.0
    for k in range(100):
        rho = random_density(5, 1 + k % 5, seed=4000 + k)
        diff = np.abs(evaluate(rep, rho) - discrete_wigner(rho).table)
        worst = max(worst, float(diff.max()))
    assert worst <= 1e-12


def test_wigner_rep_passes_marginal_check():
    assert check_condition1(wigner_as_rep(5), tol=1e-12).passed


def test_wigner_rep_fails_orthogonality_check():
    report = check_condition3(wigner_as_rep(5), tol=1e-10)
    assert not report.passed
    # compression of a phase-point operator keeps all d-1 off-cell entries
    assert report.worst_violation == pytest.approx(np.sqrt(4) / 5, abs=1e-12)


def test_wigner_rep_even_dim_rejected():
    with pytest.raises(EvenDimensionError):
        wigner_as_rep(4)


def test_wigner_rep_negative_dim_rejected():
    # the sign is checked before evenness: -3 is odd to Python's %, and 0 and -2 are even
    for dim in (-3, -2, 0):
        with pytest.raises(ValidationError, match=f"^dimension must be positive, got {dim}$"):
            wigner_as_rep(dim)


def test_kd_contrast_double_slit_row_vanishes():
    # same state, joint table over (position, fourier): the midpoint row is zero
    rho = make_pure_density(double_slit_state(5, 1, 3))
    dist = kd_transform(rho, computational_basis(5), fourier_basis(5))
    assert np.abs(dist.table[2, :]).max() <= 1e-12
