"""Representation audit tests: the three condition checks, span residuals,
the marginal-preserving violator, and a numerical uniqueness sweep."""

import numpy as np
import pytest

from kdq import (
    BadEpsilonError,
    DensityOperator,
    KDDistribution,
    LinearOperator,
    Ordering,
    QuasiProbRep,
    ValidationError,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    conditional_weak_value,
    evaluate,
    fourier_basis,
    kd_inverse,
    kd_marginal_a,
    kd_marginal_b,
    kd_rep,
    kd_transform,
    make_condition2_violator,
    maximally_mixed,
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


def test_kd_rep_takes_an_ordering_by_its_value():
    a, b = random_basis(3, seed=41), random_basis(3, seed=42)
    for value, member in (("AB", Ordering.AB), ("BA", Ordering.BA)):
        rep, expected = kd_rep(a, b, value), kd_rep(a, b, member)
        assert rep.label == expected.label
        assert rep.operators.tobytes() == expected.operators.tobytes()


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
        assert check_condition3(rep, tol=1e-12).passed


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
        check_condition2(make_condition2_violator(a, b, eps)).worst_violation
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
    report = check_condition3(kd_rep(a, b), tol=1e-12)
    assert report.passed
    assert report.worst_violation <= 1e-13


def test_condition3_symmetrized_rep_passes():
    a, b = comp_fourier(3)
    ab = kd_rep(a, b).operators
    sym = (ab + np.conj(np.transpose(ab, (0, 1, 3, 2)))) / 2.0
    rep = QuasiProbRep(a, b, sym, label="hermitian-part")
    assert check_condition3(rep, tol=1e-12).passed


def test_condition3_deterministic_reports():
    a, b = comp_fourier(3)
    rep = kd_rep(a, b)
    r1 = check_condition3(rep, tol=1e-12)
    r2 = check_condition3(rep, tol=1e-12)
    assert r1 == r2


def test_tolerances_after_a_removed_parameter_are_keyword_only():
    # check_condition3 once took samples and seed, and kd_inverse tol_overlap, before tol:
    # such a call must not read its number as a tolerance
    a, b = comp_fourier(2)
    with pytest.raises(TypeError):
        check_condition3(kd_rep(a, b), 100)
    with pytest.raises(TypeError):
        check_condition3(kd_rep(a, b), 100, 0)
    with pytest.raises(TypeError):
        kd_inverse(kd_transform(maximally_mixed(2), a, b), 1e-9)


def _mixed_table(a, b):
    return kd_transform(maximally_mixed(2), a, b)


@pytest.mark.parametrize(
    "call, keyword",
    [
        (lambda a, b, kw: KDDistribution(a, b, Ordering.AB, _mixed_table(a, b).table, **kw), "tol_imag"),
        (lambda a, b, kw: kd_transform(maximally_mixed(2), a, b, **kw), "tol_imag"),
        (lambda a, b, kw: kd_marginal_a(_mixed_table(a, b), **kw), "tol_imag"),
        (lambda a, b, kw: kd_marginal_b(_mixed_table(a, b), **kw), "tol_imag"),
        (lambda a, b, kw: DensityOperator(np.eye(2) / 2, **kw), "tol_psd"),
        (lambda a, b, kw: kd_inverse(_mixed_table(a, b), **kw), "tol_overlap"),
        (lambda a, b, kw: conditional_weak_value(LinearOperator(np.eye(2)), a.vector(0), b.vector(0), **kw),
         "tol_overlap"),
        (lambda a, b, kw: span_residual(kd_rep(a, b), **kw), "tol_overlap"),
        (lambda a, b, kw: check_condition3(kd_rep(a, b), **kw), "samples"),
        (lambda a, b, kw: check_condition3(kd_rep(a, b), **kw), "seed"),
    ],
    ids=["dist", "transform", "marginal_a", "marginal_b", "density", "inverse", "weak_value", "span_residual",
         "c3-samples", "c3-seed"],
)
def test_removed_keywords_are_refused(call, keyword):
    # the PSD bound, the overlap floor and the imaginary-part default are constants, and C3 draws nothing:
    # a call that still names one of these knobs fails rather than being silently ignored
    a, b = comp_fourier(2)
    call(a, b, {})
    with pytest.raises(TypeError, match=keyword):
        call(a, b, {keyword: 1e-3 if keyword.startswith("tol") else 1})


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
        assert check_condition3(projected, tol=1e-10).passed


# ---------------------------------------------------------------------------
# report serialization


def _overflowing_reps():
    # every cell sum overflows: a dense family with every entry 1.7e308, and a
    # term rep whose one term has that coefficient in every cell.  The term is
    # |a><a'|, a' from a third basis: neither |b><a| nor |a><b|, which lie in
    # the span and vanish under both compressions, so Q_b and the span see it
    a, b = fourier_basis(3), computational_basis(3)
    yield QuasiProbRep(a, b, np.full((3, 3, 3, 3), 1.7e308))
    a2 = random_basis(3, seed=3).matrix[:, :, None]
    yield QuasiProbRep(a, b, terms=[(np.full((3, 3), 1.7e308), a.matrix[:, :, None], a2)])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_deviation_fails_the_check():
    for rep in _overflowing_reps():
        c1 = check_condition1(rep)
        assert not c1.passed
        assert not np.isfinite(c1.worst_violation)
        assert c1.witness.startswith("non-finite deviation: row a=0:"), c1.witness
        c3 = check_condition3(rep)
        assert not c3.passed
        assert c3.witness.startswith("non-finite deviation: compression"), c3.witness
        span = check_span(rep)
        assert not span.passed
        assert span.witness.startswith("non-finite deviation: cell (a=0, b=0)"), span.witness


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_non_finite_cell_is_the_witness():
    # C2 on the dense family: the first eigenstate table holds NaN in its
    # first forbidden cell, and a later table's finite 1.7e308 cannot replace it
    dense = next(_overflowing_reps())
    c2 = check_condition2(dense)
    assert not c2.passed and np.isnan(c2.worst_violation)
    expected = "non-finite deviation: eigenstate |A_0>: forbidden cell (a=1, b=0)"
    assert c2.witness.startswith(expected), c2.witness


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")], ids=["nan", "negative", "inf"])
@pytest.mark.parametrize("check", [check_condition1, check_condition2, check_condition3, check_span],
                         ids=["c1", "c2", "c3", "span"])
def test_checks_refuse_a_nan_negative_or_infinite_tol(check, tol):
    # an inf bound would pass the overflowing family's inf deviations, and a NaN or negative one
    # would fail every check; None is the default bound, and 0, as for every library tol, is refused
    rep = next(_overflowing_reps())
    with pytest.raises(ValidationError, match="tolerance must be a finite positive number") as err:
        check(rep, tol=tol)
    assert err.value.context == {"source": "tolerance"}
    rep = kd_rep(*comp_fourier(2))
    assert check(rep, tol=None) == check(rep, tol=1e-10)
    with pytest.raises(ValidationError, match="tolerance must be a finite positive number, got 0$"):
        check(rep, tol=0)


@pytest.mark.parametrize(
    "operators, message",
    [(np.zeros((2, 2, 2)), r"operators must have shape \(2, 2, 2, 2\), got \(2, 2, 2\)"),
     (np.full((2, 2, 2, 2), np.nan), "operators contain non-finite entries"),
     (np.full((2, 2, 2, 2), np.inf * 1j), "operators contain non-finite entries")],
    ids=["shape", "nan", "inf"],
)
def test_dense_family_refuses_a_wrong_shape_or_non_finite_entries(operators, message):
    with pytest.raises(ValidationError, match=message):
        QuasiProbRep(*comp_fourier(2), operators)


def _term_lists(d):
    """Malformed term lists at ``d``: none, a coefficient that does not broadcast to (d, d), and kets or bras not
    of shape (d, 1 or d, 1 or d)."""
    am = random_basis(d, seed=d).matrix
    ket, bra = am[:, None, :], am[:, :, None]
    return {
        "empty": [],
        "coef (2, 2)": [(np.ones((2, 2)), ket, bra)],
        "coef 3-D": [(np.ones((d, d, d)), ket, bra)],
        "ket (2, 1, 1)": [(1.0, np.ones((2, 1, 1)), bra)],
        "ket 2-D": [(1.0, am, bra)],
        "bra (1, d, d)": [(1.0, ket, np.ones((1, d, d)))],
        "bra (d, 2, 1)": [(1.0, ket, np.ones((d, 2, 1)))],
        "second term": [(1.0, ket, bra), (np.ones(d + 1), ket, bra)],
    }


@pytest.mark.parametrize("case", list(_term_lists(3)))
def test_term_rep_refuses_a_malformed_term_list(case):
    # refused on construction, as a dense family of the wrong shape is, before numpy meets the terms
    expected = r"^terms must be a non-empty list of \(coef, ket, bra\), coef broadcasting to \(3, 3\) and ket and bra "
    with pytest.raises(ValidationError, match=expected + r"of shape \(3, 1 or 3, 1 or 3\)$") as err:
        QuasiProbRep(*comp_fourier(3), terms=_term_lists(3)[case])
    assert err.value.context == {}


def test_term_rep_refuses_operators_given_beside_its_terms():
    # neither may be dropped silently: the checks would read the terms and ``operators`` the other family
    a, b = comp_fourier(3)
    rep = kd_rep(a, b)
    with pytest.raises(ValidationError, match="^a representation takes operators or terms, not both$"):
        QuasiProbRep(a, b, rep.operators, terms=rep.terms)


def test_term_rep_takes_every_shape_that_broadcasts():
    d = 3
    a, b = comp_fourier(d)
    coefs = [1.0, np.ones(1), np.ones(d), np.ones((1, d)), np.ones((d, 1)), np.ones((d, d))]
    kets = [np.ones(shape) / d for shape in ((d, 1, 1), (d, d, 1), (d, 1, d), (d, d, d))]
    for coef in coefs:
        for ket in kets:
            rep = QuasiProbRep(a, b, terms=[(coef, ket, kets[0]), (coef, kets[-1], ket)])
            assert rep.operators.shape == (d, d, d, d)
            assert check_condition1(rep).worst_violation >= 0.0


def test_violator_needs_dim_two():
    one = computational_basis(1)
    with pytest.raises(ValidationError, match="violator construction needs dim >= 2"):
        make_condition2_violator(one, one, 1e-3)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda a, b: kd_rep(a, b, "ba"), "ordering must be 'AB' or 'BA', got 'ba'"),
        (lambda a, b: kd_rep(a, b, 0), "ordering must be 'AB' or 'BA', got 0"),
        (lambda a, b: mixed_rep(a, b, "x"), "mixture weight must be a finite number, got 'x'"),
        (lambda a, b: mixed_rep(a, b, None), "mixture weight must be a finite number, got None"),
        (lambda a, b: make_condition2_violator(a, b, "x"), "epsilon must be a finite number, got 'x'"),
    ],
    ids=["kd-ordering-lower", "kd-ordering-int", "mixed-weight-str", "mixed-weight-none", "violator-epsilon-str"],
)
def test_rep_builders_refuse_an_ordering_or_weight_of_the_wrong_kind(build, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        build(*comp_fourier(2))


def test_report_json_dict_fields():
    a, b = comp_fourier(2)
    report = check_condition1(kd_rep(a, b))
    doc = report.to_json_dict()
    assert set(doc) == {"condition", "passed", "worst_violation", "witness", "samples_used", "seed"}
    assert doc["condition"] == "C1"
    assert isinstance(doc["passed"], bool)
