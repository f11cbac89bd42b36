"""Representation audit tests: the three condition checks, span residuals,
the marginal-preserving violator, and a numerical uniqueness sweep."""

import numpy as np
import pytest

from kdq import (
    BadEpsilonError,
    BadSampleCountError,
    Ordering,
    QuasiProbRep,
    ValidationError,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    evaluate,
    fourier_basis,
    kd_rep,
    kd_transform,
    make_condition2_violator,
    mixed_rep,
    random_basis,
    random_density,
    span_residual,
)


def comp_fourier(dim):
    return computational_basis(dim), fourier_basis(dim)


# ---------------------------------------------------------------------------
# kd_rep and evaluate


def test_kd_rep_agrees_with_transform():
    for dim in (2, 3, 5):
        a, b = comp_fourier(dim)
        rep = kd_rep(a, b)
        for k in range(5):
            rho = random_density(dim, dim, seed=31 * dim + k)
            table = evaluate(rep, rho)
            dist = kd_transform(rho, a, b)
            assert np.abs(table - dist.table).max() <= 1e-13


def test_kd_rep_same_basis_is_diagonal_projector_family():
    basis = computational_basis(3)
    rep = kd_rep(basis, basis)
    for a in range(3):
        for b in range(3):
            expected = basis.projector(a) if a == b else np.zeros((3, 3))
            assert np.abs(rep.operators[a, b] - expected).max() <= 1e-15


def test_evaluate_zero_rep_gives_zero_table():
    a, b = comp_fourier(2)
    rep = QuasiProbRep(a, b, np.zeros((2, 2, 2, 2), dtype=complex), label="zero")
    table = evaluate(rep, random_density(2, 2, seed=1))
    assert np.abs(table).max() == 0.0


def test_kd_rep_passes_all_checks_small_dims():
    for dim in range(2, 7):
        a, b = comp_fourier(dim)
        rep = kd_rep(a, b)
        assert check_condition1(rep, tol=1e-12).passed
        assert check_condition2(rep, tol=1e-12).passed
        assert check_condition3(rep, samples=20, seed=dim, tol=1e-12).passed


# ---------------------------------------------------------------------------
# condition 1


def test_condition1_engineered_failure_names_the_row():
    a, b = comp_fourier(3)
    ops = np.array(kd_rep(a, b).operators)
    ops[1, 2] *= 2.0  # break row a=1 and column b=2
    report = check_condition1(QuasiProbRep(a, b, ops, label="broken"), tol=1e-10)
    assert not report.passed
    assert "a=1" in report.witness or "b=2" in report.witness


def test_condition1_violator_passes():
    for dim in (3, 4):  # odd and even sign patterns
        a, b = comp_fourier(dim)
        report = check_condition1(make_condition2_violator(a, b, 0.1), tol=1e-12)
        assert report.passed


# ---------------------------------------------------------------------------
# condition 2


def test_condition2_violator_fails_at_epsilon_scale():
    a, b = comp_fourier(4)
    report = check_condition2(make_condition2_violator(a, b, 0.1), tol=1e-10)
    assert not report.passed
    assert 0.01 <= report.worst_violation <= 0.1


def test_condition2_violator_forbidden_cell_via_evaluate():
    # independent route: evaluate the corrupted family on a second-basis
    # eigenstate and look for weight outside its own column
    a, b = comp_fourier(4)
    rep = make_condition2_violator(a, b, 0.1)
    rho_b0 = np.outer(b.matrix[:, 0], b.matrix[:, 0].conj())
    table = np.einsum("abij,ji->ab", rep.operators, rho_b0)
    forbidden = np.abs(table[:, 1:])  # every cell with b != 0 must vanish
    assert forbidden.max() > 1e-3


def test_condition2_mixed_ordering_passes():
    a, b = comp_fourier(3)
    assert check_condition2(mixed_rep(a, b, 0.5), tol=1e-12).passed


def test_condition2_violation_linear_in_epsilon():
    a, b = comp_fourier(4)
    worst = [
        check_condition2(make_condition2_violator(a, b, eps), tol=0).worst_violation
        for eps in (0.1, 0.01, 0.001)
    ]
    assert worst[0] / worst[1] == pytest.approx(10.0, rel=1e-6)
    assert worst[1] / worst[2] == pytest.approx(10.0, rel=1e-6)


def test_condition2_epsilon_zero_rejected():
    a, b = comp_fourier(2)
    with pytest.raises(BadEpsilonError):
        make_condition2_violator(a, b, 0.0)


# ---------------------------------------------------------------------------
# condition 3


def test_condition3_kd_rep_compression_is_algebraically_zero():
    a = random_basis(4, seed=101)
    b = random_basis(4, seed=102)
    report = check_condition3(kd_rep(a, b), samples=50, seed=7, tol=1e-12)
    assert report.passed
    assert report.worst_violation <= 1e-13


def test_condition3_symmetrized_rep_passes():
    a, b = comp_fourier(3)
    ab = kd_rep(a, b).operators
    sym = (ab + np.conj(np.transpose(ab, (0, 1, 3, 2)))) / 2.0
    rep = QuasiProbRep(a, b, sym, label="hermitian-part")
    assert check_condition3(rep, samples=30, seed=3, tol=1e-12).passed


def test_condition3_bad_sample_count():
    a, b = comp_fourier(2)
    with pytest.raises(BadSampleCountError):
        check_condition3(kd_rep(a, b), samples=0, seed=0)


def test_condition3_negative_seed_rejected():
    # numpy's default_rng would raise a bare ValueError only after the compressions
    a, b = comp_fourier(2)
    with pytest.raises(ValidationError, match="seed must be a non-negative integer, got -1"):
        check_condition3(kd_rep(a, b), samples=5, seed=-1)


def test_condition3_deterministic_reports():
    a, b = comp_fourier(3)
    rep = kd_rep(a, b)
    r1 = check_condition3(rep, samples=25, seed=99, tol=1e-12)
    r2 = check_condition3(rep, samples=25, seed=99, tol=1e-12)
    assert r1 == r2


# ---------------------------------------------------------------------------
# span residuals


def test_span_residual_kd_rep_both_orderings():
    a, b = comp_fourier(4)
    for ordering in (Ordering.AB, Ordering.BA):
        res = span_residual(kd_rep(a, b, ordering))
        assert res.residuals.max() <= 1e-12
        assert not res.degenerate.any()


def test_span_residual_mixture_in_span():
    a, b = comp_fourier(3)
    for lam in (0.0, 0.25, 0.5, 1.0):
        assert span_residual(mixed_rep(a, b, lam)).residuals.max() <= 1e-12


def test_span_residual_violator_large():
    a, b = comp_fourier(4)
    res = span_residual(make_condition2_violator(a, b, 0.1))
    assert res.residuals.max() >= 0.01


def test_span_residual_degenerate_cells_flagged():
    basis = computational_basis(3)
    res = span_residual(kd_rep(basis, basis))
    # identical bases: off-diagonal overlaps vanish, diagonal cells are fine
    assert res.degenerate.sum() == 6
    assert not res.degenerate.diagonal().any()
    assert res.residuals.max() <= 1e-12  # off-diagonal operators are zero too


def test_check_span_report():
    a, b = comp_fourier(3)
    assert check_span(kd_rep(a, b), tol=1e-10).passed
    bad = check_span(make_condition2_violator(a, b, 0.1), tol=1e-10)
    assert not bad.passed


# ---------------------------------------------------------------------------
# uniqueness at desk scale


def _compression_kernel_basis(pa, pb):
    """Orthonormal basis (columns) of {X : Q_a X Q_a = 0 and Q_b X Q_b = 0}."""
    d = pa.shape[0]
    qa, qb = np.eye(d) - pa, np.eye(d) - pb
    constraint = np.vstack([np.kron(qa, qa.T), np.kron(qb, qb.T)])
    _, s, vh = np.linalg.svd(constraint)
    null_mask = np.zeros(d * d, dtype=bool)
    null_mask[: s.size] = s < 1e-10
    null_mask[s.size :] = True
    return vh.conj().T[:, null_mask]


def test_uniqueness_compression_kernel_is_the_ordering_span():
    # perturb a projector-product cell, project back onto the set allowed by
    # the deterministic orthogonality check, and verify the result never
    # leaves the span of the two orderings
    for dim in (2, 3, 4, 5):
        a = random_basis(dim, seed=900 + dim)
        b = random_basis(dim, seed=950 + dim)
        rep_ops = kd_rep(a, b).operators
        rng = np.random.default_rng(dim)
        ops = np.array(rep_ops)
        for cell_a in range(dim):
            for cell_b in range(dim):
                noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                kernel = _compression_kernel_basis(a.projector(cell_a), b.projector(cell_b))
                assert kernel.shape[1] == 2
                x = (rep_ops[cell_a, cell_b] + 0.3 * noise).ravel()
                ops[cell_a, cell_b] = (kernel @ (kernel.conj().T @ x)).reshape(dim, dim)
        projected = QuasiProbRep(a, b, ops, label="projected")
        res = span_residual(projected)
        assert res.residuals[~res.degenerate].max() <= 1e-10
        assert check_condition3(projected, samples=10, seed=1, tol=1e-10).passed


# ---------------------------------------------------------------------------
# report serialization


def _overflowing_reps():
    # every cell sum overflows: a dense family with every entry 1.7e308, and a
    # term rep whose one term has that coefficient in every cell
    a, b = fourier_basis(3), computational_basis(3)
    yield QuasiProbRep(a, b, np.full((3, 3, 3, 3), 1.7e308))
    yield QuasiProbRep(a, b, terms=[(np.full((3, 3), 1.7e308), a.matrix[:, :, None], b.matrix[:, None, :])])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_deviation_fails_the_check():
    for rep in _overflowing_reps():
        c1 = check_condition1(rep)
        assert not c1.passed
        assert not np.isfinite(c1.worst_violation)
        assert c1.witness.startswith("non-finite deviation: row a=0:"), c1.witness
        c3 = check_condition3(rep, samples=4)
        assert not c3.passed
        assert c3.witness.startswith("non-finite deviation: compression"), c3.witness
        span = check_span(rep)
        assert not span.passed
        assert span.witness.startswith("non-finite residual: cell (a=0, b=0)"), span.witness


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_non_finite_cell_is_the_witness():
    # C2 on the dense family: the first eigenstate table holds NaN in its
    # first forbidden cell, and a later table's finite 1.7e308 cannot replace it
    dense = next(_overflowing_reps())
    c2 = check_condition2(dense)
    assert not c2.passed and np.isnan(c2.worst_violation)
    expected = "non-finite deviation: eigenstate |A_0>: forbidden cell (a=1, b=0)"
    assert c2.witness.startswith(expected), c2.witness


def test_report_json_dict_fields():
    a, b = comp_fourier(2)
    report = check_condition1(kd_rep(a, b))
    doc = report.to_json_dict()
    assert set(doc) == {"condition", "passed", "worst_violation", "witness", "samples_used", "seed"}
    assert doc["condition"] == "C1"
    assert isinstance(doc["passed"], bool)
