"""Joint quasi-probability tests: cell operators, transform, inverse, weak values."""

import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdq.hilbert
import kdq.kd
from kdq import (
    TOL_OVERLAP,
    DensityOperator,
    KDDistribution,
    LinearOperator,
    Ordering,
    OrthonormalBasis,
    SingularOverlapError,
    StateVector,
    ValidationError,
    basis_state,
    computational_basis,
    conditional_weak_value,
    fourier_basis,
    kd_inverse,
    kd_marginal_a,
    kd_marginal_b,
    kd_operator,
    kd_rep,
    kd_transform,
    make_pure_density,
    maximally_mixed,
    overlap,
    product_trace,
    random_basis,
    random_density,
    span_residual,
    total_probability,
)
from kdq.hilbert import _max_abs
from test_validation_order import _count

SQ2 = np.sqrt(2.0)


def hadamard_basis():
    return fourier_basis(2)


def plus_state():
    return StateVector(np.array([1, 1]) / SQ2)


def i_state():
    return StateVector(np.array([1, 1j]) / SQ2)


# ---------------------------------------------------------------------------
# kd_operator


def test_kd_operator_commuting_case_is_projector():
    zero = basis_state(2, 0)
    op = kd_operator(zero, zero, Ordering.AB)
    np.testing.assert_allclose(op.matrix, np.diag([1.0, 0.0]), atol=1e-15)


def test_kd_operator_orthogonal_pair_is_zero():
    op = kd_operator(basis_state(2, 0), basis_state(2, 1), Ordering.AB)
    np.testing.assert_allclose(op.matrix, np.zeros((2, 2)), atol=1e-15)


def test_kd_operator_half_half_example():
    op = kd_operator(basis_state(2, 0), plus_state(), Ordering.AB)
    # oracle: <b|a> |b><a| built directly from outer products
    b, a = plus_state().amplitudes, basis_state(2, 0).amplitudes
    oracle = np.vdot(b, a) * np.outer(b, a.conj())
    np.testing.assert_allclose(op.matrix, oracle, atol=1e-15)
    np.testing.assert_allclose(op.matrix, np.array([[0.5, 0.0], [0.5, 0.0]]), atol=1e-15)


def test_kd_operator_adjoint_flips_ordering():
    a, b = i_state(), plus_state()
    ab = kd_operator(a, b, Ordering.AB)
    ba = kd_operator(a, b, Ordering.BA)
    np.testing.assert_allclose(ab.matrix.conj().T, ba.matrix, atol=1e-15)


def test_kd_operator_rank_at_most_one():
    a, b = i_state(), plus_state()
    s = np.linalg.svd(kd_operator(a, b, Ordering.AB).matrix, compute_uv=False)
    assert np.sum(s > 1e-12) <= 1


# ---------------------------------------------------------------------------
# kd_transform


def test_kd_transform_eigenstate_delta_structure():
    # input |0><0| over computational / hadamard bases
    dist = kd_transform(
        make_pure_density(basis_state(2, 0)), computational_basis(2), hadamard_basis()
    )
    np.testing.assert_allclose(dist.table, np.array([[0.5, 0.5], [0.0, 0.0]]), atol=1e-14)


def test_kd_transform_maximally_mixed_is_real_born_table():
    a, b = computational_basis(3), fourier_basis(3)
    dist = kd_transform(maximally_mixed(3), a, b)
    born = np.abs(b.matrix.conj().T @ a.matrix).T ** 2 / 3
    np.testing.assert_allclose(dist.table, born, atol=1e-14)
    assert np.abs(dist.table.imag).max() <= 1e-14


def test_kd_transform_circular_state_frozen_values():
    dist = kd_transform(make_pure_density(i_state()), computational_basis(2), hadamard_basis())
    expected = np.array([[(1 - 1j) / 4, (1 + 1j) / 4], [(1 + 1j) / 4, (1 - 1j) / 4]])
    np.testing.assert_allclose(dist.table, expected, atol=1e-14)
    np.testing.assert_allclose(kd_marginal_a(dist), [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(kd_marginal_b(dist), [0.5, 0.5], atol=1e-14)


def test_kd_transform_matches_cell_operator_traces():
    # dual route: every table cell equals the product trace of its cell operator
    a, b = computational_basis(3), fourier_basis(3)
    rho = random_density(3, 2, seed=33)
    for ordering in (Ordering.AB, Ordering.BA):
        dist = kd_transform(rho, a, b, ordering)
        for i in range(3):
            for j in range(3):
                cell = product_trace(kd_operator(a.vector(i), b.vector(j), ordering), rho)
                assert dist.table[i, j] == pytest.approx(cell, abs=1e-13)


def test_marginal_examples():
    comp, had = computational_basis(2), hadamard_basis()
    dist = kd_transform(make_pure_density(basis_state(2, 0)), comp, had)
    np.testing.assert_allclose(kd_marginal_a(dist), [1.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(kd_marginal_b(dist), [0.5, 0.5], atol=1e-14)
    uniform = kd_transform(maximally_mixed(4), computational_basis(4), fourier_basis(4))
    np.testing.assert_allclose(kd_marginal_a(uniform), np.full(4, 0.25), atol=1e-14)
    np.testing.assert_allclose(kd_marginal_b(uniform), np.full(4, 0.25), atol=1e-14)


def test_marginals_match_born_rule():
    for dim in range(2, 7):
        a = random_basis(dim, seed=dim)
        b = random_basis(dim, seed=100 + dim)
        rho = random_density(dim, dim, seed=200 + dim)
        dist = kd_transform(rho, a, b)
        born_a = np.real(np.diagonal(a.matrix.conj().T @ rho.matrix @ a.matrix))
        born_b = np.real(np.diagonal(b.matrix.conj().T @ rho.matrix @ b.matrix))
        np.testing.assert_allclose(kd_marginal_a(dist), born_a, atol=1e-12)
        np.testing.assert_allclose(kd_marginal_b(dist), born_b, atol=1e-12)


def test_condition1_operator_identity():
    # sum_b Pi(a,b) = P_a and sum_a Pi(a,b) = P_b for random basis pairs
    for dim in range(2, 9):
        a = random_basis(dim, seed=3 * dim)
        b = random_basis(dim, seed=3 * dim + 1)
        for i in range(dim):
            total = sum(
                kd_operator(a.vector(i), b.vector(j), Ordering.AB).matrix for j in range(dim)
            )
            assert np.abs(total - a.projector(i)).max() <= 1e-12
        for j in range(dim):
            total = sum(
                kd_operator(a.vector(i), b.vector(j), Ordering.AB).matrix for i in range(dim)
            )
            assert np.abs(total - b.projector(j)).max() <= 1e-12


def test_ordering_conjugation():
    for dim in range(2, 7):
        a = random_basis(dim, seed=7 * dim)
        b = random_basis(dim, seed=7 * dim + 1)
        rho = random_density(dim, dim, seed=7 * dim + 2)
        ab = kd_transform(rho, a, b, Ordering.AB)
        ba = kd_transform(rho, a, b, Ordering.BA)
        assert ba.table.tobytes() == ab.table.conj().tobytes()


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
def test_ba_table_and_its_inverse_are_read_off_the_ab_product(dim):
    rho = random_density(dim, 2, seed=dim + 70)
    for a, b in ((random_basis(dim, seed=dim + 71), random_basis(dim, seed=dim + 72)),
                 (computational_basis(dim), fourier_basis(dim))):
        ab = kd_transform(rho, a, b, Ordering.AB)
        ba = kd_transform(DensityOperator(rho.matrix), a, b, Ordering.BA)  # a fresh state: BA formed first
        assert ba.table.tobytes() == ab.table.conj().tobytes()
        assert kd_inverse(ba).matrix.tobytes() == kd_inverse(ab).matrix.tobytes()
        loaded = KDDistribution(a, b, Ordering.BA, ba.table)  # no kept overlaps: formed by kd_inverse
        assert kd_inverse(loaded).matrix.tobytes() == kd_inverse(ab).matrix.tobytes()


def test_an_ordering_given_by_its_value_is_its_member():
    a, b = random_basis(3, seed=81), random_basis(3, seed=82)
    rho = random_density(3, 2, seed=83)
    for value, member in (("AB", Ordering.AB), ("BA", Ordering.BA)):
        dist = kd_transform(rho, a, b, value)
        assert dist.ordering is member
        assert dist.table.tobytes() == kd_transform(DensityOperator(rho.matrix), a, b, member).table.tobytes()
        va, vb = a.vector(0), b.vector(1)
        assert kd_operator(va, vb, value).matrix.tobytes() == kd_operator(va, vb, member).matrix.tobytes()
        assert KDDistribution(a, b, value, dist.table).ordering is member


@pytest.mark.parametrize(
    "call",
    [
        lambda d: kd_transform(maximally_mixed(3), d.basis_a, d.basis_b, "ba"),
        lambda d: kd_transform(maximally_mixed(3), d.basis_a, d.basis_b, ["BA"]),
        lambda d: KDDistribution(d.basis_a, d.basis_b, "XY", d.table),
        lambda d: kd_operator(d.basis_a.vector(0), d.basis_b.vector(0), 1),
    ],
    ids=["transform-lower", "transform-list", "dist-xy", "operator-int"],
)
def test_an_ordering_that_is_no_member_is_refused(call):
    with pytest.raises(ValidationError, match="^ordering must be 'AB' or 'BA', got "):
        call(_valid_dist())


def test_commuting_reduction_same_basis():
    for dim in (2, 4, 6):
        basis = random_basis(dim, seed=dim + 50)
        rho = random_density(dim, dim, seed=dim + 60)
        dist = kd_transform(rho, basis, basis)
        born = np.real(np.diagonal(basis.matrix.conj().T @ rho.matrix @ basis.matrix))
        off_diag = dist.table - np.diag(np.diagonal(dist.table))
        assert np.abs(off_diag).max() <= 1e-12
        np.testing.assert_allclose(np.diagonal(dist.table).real, born, atol=1e-12)
        assert np.abs(dist.table.imag).max() <= 1e-12


# ---------------------------------------------------------------------------
# kd_inverse


def test_inverse_round_trip_circular_state():
    rho = make_pure_density(i_state())
    dist = kd_transform(rho, computational_basis(2), hadamard_basis())
    rec = kd_inverse(dist)
    assert np.linalg.norm(rec.matrix - rho.matrix) <= 1e-10


@pytest.mark.parametrize("ordering", [Ordering.AB, Ordering.BA])
def test_inverse_round_trip_random_states(ordering):
    worst = 0.0
    for dim in range(2, 9):
        a, b = computational_basis(dim), fourier_basis(dim)
        for k in range(50):
            rho = random_density(dim, 1 + k % dim, seed=10_000 + 97 * dim + k)
            dist = kd_transform(rho, a, b, ordering)
            rec = kd_inverse(dist)
            worst = max(worst, float(np.linalg.norm(rec.matrix - rho.matrix)))
    assert worst <= 1e-9


def test_inverse_reproduces_table():
    # forward(inverse(dist)) == dist
    rho = random_density(4, 4, seed=77)
    a, b = computational_basis(4), fourier_basis(4)
    dist = kd_transform(rho, a, b)
    again = kd_transform(kd_inverse(dist), a, b)
    assert np.abs(again.table - dist.table).max() <= 1e-12


def test_round_trip_at_dimension_ceiling():
    # the numerics are rated up to d = 64
    dim = 64
    rho = random_density(dim, dim // 2, seed=640)
    a, b = computational_basis(dim), fourier_basis(dim)
    dist = kd_transform(rho, a, b)
    rec = kd_inverse(dist)
    assert np.linalg.norm(rec.matrix - rho.matrix) <= 1e-9


def test_inverse_tol_reaches_the_density_validation():
    # a real 1e-7 perturbation with zero row and column sums keeps the table
    # valid, but the reconstructed matrix is then not Hermitian at 1e-10
    rho = random_density(3, 3, seed=12)
    dist = kd_transform(rho, computational_basis(3), fourier_basis(3))
    table = np.array(dist.table)
    table[:2, :2] += 1e-7 * np.array([[1, -1], [-1, 1]])
    loose = KDDistribution(dist.basis_a, dist.basis_b, dist.ordering, table, tol=1e-5)
    with pytest.raises(ValidationError, match="not Hermitian"):
        kd_inverse(loose)
    assert np.abs(kd_inverse(loose, tol=1e-5).matrix - rho.matrix).max() <= 1e-6


def test_inverse_singular_overlap_reports_pair():
    rho = random_density(3, 3, seed=5)
    basis = computational_basis(3)
    dist = kd_transform(rho, basis, basis)
    with pytest.raises(SingularOverlapError) as err:
        kd_inverse(dist)
    assert "a" in err.value.context and "b" in err.value.context
    a_bad, b_bad = err.value.context["a"], err.value.context["b"]
    assert a_bad != b_bad  # off-diagonal overlaps vanish in identical bases


# ---------------------------------------------------------------------------
# conditional_weak_value


def test_weak_value_no_postselection_is_expectation():
    rng = np.random.default_rng(4)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    op = LinearOperator(h)
    a = StateVector(np.linalg.qr(rng.standard_normal((3, 3)) + 0j)[0][:, 0])
    expectation = np.vdot(a.amplitudes, h @ a.amplitudes)
    assert conditional_weak_value(op, a, a) == pytest.approx(expectation, abs=1e-12)


def test_weak_value_frozen_example():
    proj0 = LinearOperator(np.array([[1, 0], [0, 0]], dtype=complex))
    # oracle: direct quotient
    num = np.vdot(i_state().amplitudes, proj0.matrix @ plus_state().amplitudes)
    den = overlap(i_state(), plus_state())
    assert num / den == pytest.approx((1 + 1j) / 2, abs=1e-14)
    got = conditional_weak_value(proj0, plus_state(), i_state())
    assert got == pytest.approx((1 + 1j) / 2, abs=1e-13)


def test_weak_value_identity_is_one():
    a = plus_state()
    b = i_state()
    got = conditional_weak_value(LinearOperator(np.eye(2)), a, b)
    assert got == pytest.approx(1.0, abs=1e-13)


def test_weak_value_singular_overlap():
    proj0 = LinearOperator(np.array([[1, 0], [0, 0]], dtype=complex))
    with pytest.raises(SingularOverlapError):
        conditional_weak_value(proj0, basis_state(2, 0), basis_state(2, 1))


# ---------------------------------------------------------------------------
# total_probability


def test_total_probability_identity():
    rho = random_density(4, 4, seed=8)
    got = total_probability(
        LinearOperator(np.eye(4)), rho, computational_basis(4), fourier_basis(4)
    )
    assert got == pytest.approx(1.0, abs=1e-12)


def test_total_probability_projector_example():
    rho = make_pure_density(plus_state())
    proj0 = LinearOperator(np.array([[1, 0], [0, 0]], dtype=complex))
    got = total_probability(proj0, rho, computational_basis(2), hadamard_basis())
    assert got == pytest.approx(product_trace(proj0, rho), abs=1e-13)
    assert got == pytest.approx(0.5, abs=1e-13)


def test_total_probability_matches_direct_trace():
    worst = 0.0
    for dim in range(2, 7):
        a, b = computational_basis(dim), fourier_basis(dim)
        for k in range(20):
            rng = np.random.default_rng(500 * dim + k)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            m_op = LinearOperator(np.outer(v, v.conj()))
            rho = random_density(dim, dim, seed=600 * dim + k)
            diff = abs(total_probability(m_op, rho, a, b) - product_trace(m_op, rho))
            worst = max(worst, diff)
    assert worst <= 1e-10


def test_total_probability_real_for_hermitian():
    rng = np.random.default_rng(6)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = h + h.conj().T
    rho = random_density(3, 3, seed=61)
    got = total_probability(LinearOperator(h), rho, computational_basis(3), fourier_basis(3))
    assert abs(got.imag) <= 1e-10


@settings(max_examples=200, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 4))
def test_total_probability_is_the_trace_within_its_rounding_bound(dim, seed):
    """|P(m) - Tr(M rho)| <= 16 d^2 eps |M|_F |rho|_F for a Gaussian M, a state of random rank and random bases.

    <b|M|a> and <a|rho|b> are each two products with unitaries, off by a few d^1.5 eps times |M|_F or
    |rho|_F; their d^2-term dot adds a few d^2 eps |M|_F |rho|_F, the trace a few d, and the bases' own
    deviation from unitarity a few d.  Over 3,000 draws at each d <= 5 and 800 at d = 8 and 16 the largest
    |P(m) - Tr(M rho)| / (eps |M|_F |rho|_F) was 6.6 at d=1, 4.3 at d=2, 2.2 at d=5 and 0.67 at d=16.
    """
    rng = np.random.default_rng(seed)
    m = LinearOperator(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rho = random_density(dim, int(rng.integers(1, dim + 1)), seed=seed + 1)
    a, b = random_basis(dim, seed=seed + 2), random_basis(dim, seed=seed + 3)
    bound = 16 * dim**2 * np.finfo(float).eps * np.linalg.norm(m.matrix) * np.linalg.norm(rho.matrix)
    assert abs(total_probability(m, rho, a, b) - product_trace(m, rho)) <= bound


# ---------------------------------------------------------------------------
# distribution validation


def test_distribution_rejects_bad_total():
    a, b = computational_basis(2), hadamard_basis()
    from kdq import KDDistribution

    with pytest.raises(ValidationError):
        KDDistribution(a, b, Ordering.AB, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_distribution_rejects_imaginary_row_sums():
    a, b = computational_basis(2), hadamard_basis()
    from kdq import KDDistribution

    table = np.array([[0.5 + 0.1j, 0.5], [0.0, 0.0 - 0.1j]])
    with pytest.raises(ValidationError):
        KDDistribution(a, b, Ordering.AB, table)


def _valid_dist():
    return kd_transform(random_density(3, 3, seed=4), random_basis(3, seed=5), fourier_basis(3))


def _imag_sums_table(d):
    """``d``'s table with row and column sums 1e-3 off the real axis and its total kept: the one tol judges them."""
    tab = np.array(d.table)
    tab[0, 0] += 1e-3j
    tab[1, 1] -= 1e-3j
    return tab


def _imag_sums_state():
    """A state within 1e-3 of Hermitian whose a-marginal has imaginary parts of 1e-4."""
    return DensityOperator(np.eye(3) / 3 + 1e-4j * np.diag([1.0, -1.0, 0.0]), tol=1e-3)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-3, "1e-10", True], ids=repr)
@pytest.mark.parametrize(
    "call",
    [
        lambda d, tol: KDDistribution(d.basis_a, d.basis_b, d.ordering, d.table, tol=tol),
        lambda d, tol: kd_transform(maximally_mixed(3), d.basis_a, d.basis_b, tol=tol),
        lambda d, tol: kd_marginal_a(d, tol=tol),
        lambda d, tol: kd_marginal_b(d, tol=tol),
        lambda d, tol: kd_inverse(d, tol=tol),
        lambda d, tol: KDDistribution(d.basis_a, d.basis_b, d.ordering, _imag_sums_table(d), tol=tol),
        lambda d, tol: kd_transform(_imag_sums_state(), d.basis_a, d.basis_b, tol=tol),
        lambda d, tol: kd_marginal_a(KDDistribution(d.basis_a, d.basis_b, d.ordering, _imag_sums_table(d), tol=1e-2), tol=tol),
        lambda d, tol: kd_marginal_b(KDDistribution(d.basis_a, d.basis_b, d.ordering, _imag_sums_table(d), tol=1e-2), tol=tol),
    ],
    ids=["dist-tol", "transform-tol", "marginal_a-tol", "marginal_b-tol", "inverse-tol",
         "dist-imag_sums", "transform-imag_sums", "marginal_a-imag_sums", "marginal_b-imag_sums"],
)
def test_tolerance_must_be_finite_and_positive(call, tol):
    # the imag_sums cases hold sums whose imaginary parts the default refuses: the one tol, which
    # also bounds them, is checked before it judges them
    with pytest.raises(ValidationError, match="tolerance must be a finite positive number"):
        call(_valid_dist(), tol)


def _refuses(call) -> bool:
    try:
        call()
    except SingularOverlapError:
        return True
    return False


@pytest.mark.parametrize("phase", [1.0, -1.0, 1j], ids=["1", "-1", "1j"])
@pytest.mark.parametrize("scale", [1 - 1e-3, 1.0, 1 + 1e-3])
@pytest.mark.parametrize(
    "verdicts",
    [
        lambda a, b: _refuses(lambda: kd_inverse(kd_transform(maximally_mixed(2), a, b))),  # one, for the table
        lambda a, b: [[_refuses(lambda: conditional_weak_value(LinearOperator(np.eye(2)), a.vector(i), b.vector(j)))
                       for j in range(2)] for i in range(2)],
        lambda a, b: span_residual(kd_rep(a, b)).degenerate.tolist(),
    ],
    ids=["inverse", "weak_value", "span_residual"],
)
def test_every_overlap_guard_sits_at_tol_overlap(verdicts, scale, phase):
    """kd_inverse, the weak value and span_residual refuse or flag |<b|a>| <= TOL_OVERLAP, the one fixed floor.

    The overlaps carry a phase, so a guard must read their modulus.
    """
    c = scale * TOL_OVERLAP
    s = np.sqrt(1.0 - c * c)
    rot = np.array([[c * phase, -s * phase], [s, c]])  # |<b_0|a_0>| = |<b_1|a_1>| = c, the least
    a, b = computational_basis(2), OrthonormalBasis(rot)
    singular = c <= TOL_OVERLAP
    got = verdicts(a, b)
    assert got == (singular if isinstance(got, bool) else [[singular, False], [False, singular]])


@pytest.mark.parametrize("dim", [2, 3, 5, 16])
def test_rejected_sums_match_the_plain_numpy_expressions(dim):
    """total and worst_imag in each error's context are the old values, bit for bit."""
    rng = np.random.default_rng(dim)
    a, b = random_basis(dim, seed=dim), fourier_basis(dim)
    for _ in range(10):
        tab = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        with pytest.raises(ValidationError, match="sums to") as err:
            KDDistribution(a, b, Ordering.AB, tab)
        assert err.value.context["total"] == complex(tab.sum())

        tab = tab / tab.sum()
        with pytest.raises(ValidationError, match="row/column sums") as err:
            KDDistribution(a, b, Ordering.AB, tab)
        assert err.value.context["worst_imag"] == max(
            float(np.max(np.abs(tab.sum(axis=1).imag))),
            float(np.max(np.abs(tab.sum(axis=0).imag))),
        )

        loose = KDDistribution(a, b, Ordering.AB, tab, tol=1e3)
        for marginal, axis in ((kd_marginal_a, 1), (kd_marginal_b, 0)):
            with pytest.raises(ValidationError, match="imaginary part") as err:
                marginal(loose)
            expected = float(np.max(np.abs(tab.sum(axis=axis).imag)))
            assert err.value.context["worst_imag"] == expected


# ---------------------------------------------------------------------------
# products kept on the state for its last basis pair


def _fresh(rho, a, b):
    return DensityOperator(rho.matrix), OrthonormalBasis(a.matrix), OrthonormalBasis(b.matrix)


def _run(calls, rho, a, b, m):
    """Bytes of each named call on these objects; ``inv-AB`` inverts the table ``AB`` made before it."""
    out, dists = {}, {}
    for name in calls:
        if name in ("AB", "BA"):
            dists[name] = kd_transform(rho, a, b, Ordering[name])
            out[name] = dists[name].table.tobytes()
        elif name == "prob":
            out[name] = np.complex128(total_probability(m, rho, a, b)).tobytes()
        else:
            out[name] = kd_inverse(dists[name[4:]]).matrix.tobytes()
    return out


CALLS = ("AB", "BA", "inv-AB", "inv-BA", "prob")


@pytest.mark.parametrize("dim", [2, 3, 16, 64])
def test_every_call_order_on_one_state_gives_the_fresh_objects_bytes(dim):
    rho = random_density(dim, 2, seed=dim)
    a, b = random_basis(dim, seed=dim + 1), fourier_basis(dim)
    m = LinearOperator(random_density(dim, 1, seed=dim + 2).matrix)
    expected = {name: _run([name.replace("inv-", ""), name], *_fresh(rho, a, b), m)[name] for name in CALLS}
    orders = [
        order
        for order in itertools.permutations(CALLS)
        if order.index("inv-AB") > order.index("AB") and order.index("inv-BA") > order.index("BA")
    ]
    assert len(orders) == 30
    for order in orders:
        assert _run(order, *_fresh(rho, a, b), m) == expected, order


def test_a_new_basis_pair_never_reads_a_stale_entry(monkeypatch):
    dim = 5
    rho = random_density(dim, 3, seed=5)
    a, b = random_basis(dim, seed=1), random_basis(dim, seed=2)
    m = LinearOperator(random_density(dim, 1, seed=3).matrix)
    calls = _count(monkeypatch, kdq.kd, "_cross_overlaps")
    # the same bases in new objects, swapped, or replaced by another basis; then the first pair again
    pairs = [(a, b), (OrthonormalBasis(a.matrix), b), (a, OrthonormalBasis(b.matrix)), (b, a),
             (a, fourier_basis(dim)), (computational_basis(dim), b), (a, b)]
    for pair in pairs:
        expected = _run(CALLS, *_fresh(rho, *pair), m)
        calls.clear()
        assert _run(CALLS, rho, *pair, m) == expected
        assert len(calls) == 1  # formed for this pair, then read by every later call


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_both_orderings_and_the_inverse_form_one_overlap_product(monkeypatch, dim):
    rho = random_density(dim, dim, seed=dim)
    a, b = computational_basis(dim), fourier_basis(dim)
    calls = _count(monkeypatch, kdq.kd, "_cross_overlaps")
    ab = kd_transform(rho, a, b, Ordering.AB)
    ba = kd_transform(rho, a, b, Ordering.BA)
    kd_inverse(ab)
    kd_inverse(ba)
    assert len(calls) == 1
    assert ab._cross is ba._cross is rho._kd[2]
    # total_probability reads <a|rho|b> as the AB table formed it
    entry = rho._kd
    total_probability(LinearOperator(np.eye(dim)), rho, a, b)
    assert rho._kd is entry and not entry[3].flags.writeable and not entry[2].flags.writeable


@pytest.mark.parametrize("dim", [2, 5, 16])
def test_ba_of_a_state_within_tol_of_hermitian_is_within_its_deviation(dim):
    """BA = AB conjugated is Tr(Pi_BA rho) up to |<a|b><b|(rho - rho^dag)|a>| <= ||rho - rho^dag||_2 per cell."""
    rng = np.random.default_rng(dim)
    skew = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 1e-5 * (skew - skew.conj().T)
    skew -= np.trace(skew) / dim * np.eye(dim)
    rho = DensityOperator(random_density(dim, dim, seed=dim).matrix + skew, tol=1e-3)
    a, b = random_basis(dim, seed=dim + 1), random_basis(dim, seed=dim + 2)
    ba = kd_transform(rho, a, b, Ordering.BA, tol=1e-3).table
    exact = (a.matrix.conj().T @ b.matrix) * (b.matrix.conj().T @ rho.matrix @ a.matrix).T  # <a|b><b|rho|a>
    assert np.abs(ba - exact).max() <= np.linalg.norm(rho.matrix - rho.matrix.conj().T, 2) + 1e-15


@pytest.mark.parametrize("first", ["AB", "BA", "prob"])
def test_any_first_kd_call_keeps_both_products(first):
    dim = 5
    rho = random_density(dim, 2, seed=11)
    a, b = random_basis(dim, seed=12), fourier_basis(dim)
    _run([first], rho, a, b, LinearOperator(np.eye(dim)))
    basis_a, basis_b, cross, mixed = rho._kd[:4]
    assert basis_a is a and basis_b is b
    assert cross.tobytes() == (b.matrix.conj().T @ a.matrix).T.tobytes()
    assert mixed.tobytes() == (a.matrix.conj().T @ rho.matrix @ b.matrix).tobytes()
    assert not cross.flags.writeable and not mixed.flags.writeable


@settings(max_examples=100, deadline=None)
@given(dim=st.integers(1, 16), seed=st.integers(0, 2**32 - 3), first=st.sampled_from(["AB", "BA", "prob"]))
def test_the_kept_cross_is_a_read_only_c_ordered_table_of_b_dagger_a(dim, seed, first):
    rho = random_density(dim, dim, seed=seed)
    a, b = random_basis(dim, seed=seed + 1), random_basis(dim, seed=seed + 2)
    _run([first], rho, a, b, LinearOperator(np.eye(dim)))
    cross = rho._kd[2]
    assert cross.flags.c_contiguous and not cross.flags.writeable
    assert cross.tobytes() == (b.matrix.conj().T @ a.matrix).T.tobytes()  # cross[a, b] = <b|a>


@settings(max_examples=100, deadline=None)
@given(dim=st.one_of(st.integers(1, 16), st.just(64)), seed=st.integers(0, 2**32 - 4),
       ordering=st.sampled_from(Ordering))
def test_every_product_of_the_kd_path_has_the_bits_of_its_matmul(dim, seed, ordering):
    """The kd path forms its 2-D products with ndarray.dot; each must equal its @ expression byte for byte."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = random_density(dim, int(rng.integers(1, dim + 1)), seed=seed + 1)
    a = random_basis(dim, seed=seed + 2)
    b = fourier_basis(dim) if dim > 1 and seed % 2 else random_basis(dim, seed=seed + 3)
    am, bm = a.matrix, b.matrix
    dist = kd_transform(rho, a, b, ordering)
    cross, mixed = rho._kd[2:4]
    assert cross.tobytes() == (bm.conj().T @ am).T.tobytes()
    assert mixed.tobytes() == (am.conj().T @ rho.matrix @ bm).tobytes()
    assert kd_inverse(dist).matrix.tobytes() == (am @ (cross * mixed / cross) @ bm.conj().T).tobytes()
    cond_t = am.T @ m.T @ bm.conj()
    assert cond_t.tobytes() == am.T.dot(m.T).dot(bm.conj()).tobytes()
    assert total_probability(LinearOperator(m), rho, a, b) == complex(np.dot(cond_t.ravel(), mixed.ravel()))
    assert (am.conj().T @ am).tobytes() == am.conj().T.dot(am).tobytes()  # OrthonormalBasis's Gram matrix
    ket, bra = a.vector(0), b.vector(0)  # contiguous copies of the columns
    assert (m @ ket.amplitudes).tobytes() == m.dot(ket.amplitudes).tobytes()
    ov = complex(np.vdot(bra.amplitudes, ket.amplitudes))
    if abs(ov) > TOL_OVERLAP:
        weak = conditional_weak_value(LinearOperator(m), ket, bra)
        assert weak == complex(np.vdot(bra.amplitudes, m @ ket.amplitudes)) / ov


def test_kept_products_leave_no_cycle():
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        dim = 16
        rho = random_density(dim, 2, seed=1)
        a, b = random_basis(dim, seed=2), fourier_basis(dim)
        m = LinearOperator(random_density(dim, 1, seed=3).matrix)
        _run(CALLS, rho, a, b, m)
        kd_marginal_a(kd_transform(rho, a, b))
        conditional_weak_value(m, a.vector(0), b.vector(1))
        alive = weakref.ref(rho)
        del rho
        assert alive() is None  # freed by reference counting
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        assert not [x for x in gc.garbage if type(x).__module__.startswith("kdq")]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# one AB table and its checked sums kept per basis pair; a BA table is their conjugate


def _public(rho, a, b, ordering, **tols):
    """The table by the plain expressions, through the public constructor, which copies and checks it."""
    table = (b.matrix.conj().T @ a.matrix).T * (a.matrix.conj().T @ rho.matrix @ b.matrix)
    return KDDistribution(a, b, ordering, table.conj() if ordering is Ordering.BA else table, **tols)


def _read(dist):
    """Bytes of the table, marginals and inverse; the kept sums by value (a BA zero may be -0.0)."""
    return [dist.table.tobytes(), dist._sums.tolist(), dist._imag, kd_marginal_a(dist).tobytes(),
            kd_marginal_b(dist).tobytes(), kd_inverse(dist).matrix.tobytes()]


@pytest.mark.parametrize("dim", [2, 16, 64])
@pytest.mark.parametrize("calls", [("AB", "BA"), ("BA", "AB"), ("AB", "AB"), ("BA", "BA")], ids="-".join)
def test_each_call_order_gives_the_public_constructors_bytes(dim, calls):
    rho = random_density(dim, 2, seed=dim + 80)
    a, b = random_basis(dim, seed=dim + 81), fourier_basis(dim)
    m = LinearOperator(random_density(dim, 1, seed=dim + 82).matrix)
    cond_t, mixed = a.matrix.T @ m.matrix.T @ b.matrix.conj(), a.matrix.conj().T @ rho.matrix @ b.matrix
    prob = np.complex128(np.dot(cond_t.ravel(), mixed.ravel())).tobytes()
    for name in calls:
        dist = kd_transform(rho, a, b, Ordering[name])
        assert _read(dist) == _read(_public(rho, a, b, Ordering[name])), name
        assert np.complex128(total_probability(m, rho, a, b)).tobytes() == prob


def test_the_tables_reductions_run_once_per_basis_pair(monkeypatch):
    dim = 5
    rho = random_density(dim, 3, seed=5)
    pairs = [(random_basis(dim, seed=1), fourier_basis(dim)), (computational_basis(dim), random_basis(dim, seed=2))]
    sums = _count(monkeypatch, kdq.kd, "_sums")
    verdicts = _count(monkeypatch, kdq.kd, "_accepts")
    for a, b in pairs + pairs:
        sums.clear()
        verdicts.clear()
        for ordering in (Ordering.BA, Ordering.AB, Ordering.BA, Ordering.AB):
            dist = kd_transform(rho, a, b, ordering)
            for read in (kd_marginal_a, kd_marginal_b, kd_inverse):
                read(dist)
        total_probability(LinearOperator(np.eye(dim)), rho, a, b)
        assert len(sums) == 1  # formed on the pair's first call, read by the others
        assert len(verdicts) == 4  # each transform judges the sums by its own tolerances


def _verdict(call):
    try:
        call()
    except ValidationError as err:
        return type(err), str(err), err.context
    return "ok"


@pytest.mark.parametrize("trace_imag", [0.0, 1e-9])  # BA conjugates a total with a nonzero imaginary part
@pytest.mark.parametrize("ordering", list(Ordering), ids=str)
def test_each_call_judges_the_kept_sums_by_its_own_tolerances(ordering, trace_imag):
    """A total 1e-7 off 1 and sums with imaginary parts near 4e-6: a tighter call raises the constructor's error."""
    dim = 5
    rng = np.random.default_rng(dim)
    skew = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 1e-6 * (skew - skew.conj().T)
    skew += (trace_imag * 1j - np.trace(skew)) / dim * np.eye(dim)
    mat = random_density(dim, dim, seed=dim).matrix * (1 + 1e-7) + skew
    a, b = random_basis(dim, seed=dim + 1), fourier_basis(dim)
    loose = {"tol": 1e-3}
    tight_tol = {"tol": 1e-8}  # fails the total
    tight_imag = {"tol": 1e-6}  # passes the total, fails the imaginary parts
    for order in ([loose, tight_tol, tight_imag, {}, loose], [tight_imag, {}, loose, tight_tol, loose]):
        rho = DensityOperator(mat, tol=1e-3)
        for tols in order:
            expected = _verdict(lambda: _public(rho, a, b, ordering, **tols))
            assert _verdict(lambda: kd_transform(rho, a, b, ordering, **tols)) == expected, tols
            assert (expected == "ok") == (tols is loose)


def test_an_ab_table_is_the_kept_table_and_a_ba_table_its_own_conjugate():
    dim = 16
    rho = random_density(dim, 2, seed=3)
    a, b = random_basis(dim, seed=4), fourier_basis(dim)
    ab, ba, again = (kd_transform(rho, a, b, ordering) for ordering in (Ordering.AB, Ordering.BA, Ordering.AB))
    table, sums = rho._kd[4], rho._kd[6]
    assert ab.table is table and again.table is table and ab._sums is sums and again._sums is sums
    assert not np.shares_memory(ba.table, table) and not np.shares_memory(ba._sums, sums)
    for arr in (table, sums, ba.table, ba._sums):
        assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ab.table[0, 0] = 0.0


# ---------------------------------------------------------------------------
# kd_inverse adopts the matrix it forms: DensityOperator's checks, run on it in place


def _product(dist):
    """The matrix kd_inverse reconstructs, by the plain expressions: a BA table is conjugated back to AB."""
    am, bm = dist.basis_a.matrix, dist.basis_b.matrix
    table = dist.table if dist.ordering is Ordering.AB else dist.table.conj()
    return am @ (table / (bm.conj().T @ am).T) @ bm.conj().T


@pytest.mark.parametrize("dim", [2, 5, 64])
@pytest.mark.parametrize("ordering", list(Ordering), ids=str)
def test_the_inverse_adopts_the_matrix_a_density_operator_would_copy(monkeypatch, dim, ordering):
    rho = random_density(dim, dim, seed=dim + 90)
    a, b = random_basis(dim, seed=dim + 91), fourier_basis(dim)
    copies = _count(monkeypatch, kdq.hilbert, "_shaped")
    for dist in (kd_transform(rho, a, b, ordering), _public(rho, a, b, ordering)):  # overlaps kept, and formed
        copies.clear()
        out = kd_inverse(dist).matrix
        assert copies == []
        assert not out.flags.writeable
        assert out.tobytes() == DensityOperator(_product(dist)).matrix.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            out[0, 0] = 0.0


def _doctored(dim, ordering):
    """Tables built with a loose tol whose reconstruction fails one density check, each with the tol it is
    inverted with: not Hermitian, a trace 1e-6 off 1 inverted with tol 1e-8, and an eigenvalue of -0.1."""
    rng = np.random.default_rng(dim + 95)
    rho = random_density(dim, dim, seed=dim + 96).matrix
    a, b = random_basis(dim, seed=dim + 97), fourier_basis(dim)
    skew = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = 1e-3 * (skew - skew.conj().T)
    skew -= np.trace(skew) / dim * np.eye(dim)  # anti-Hermitian and traceless: the total stays 1
    v = random_basis(dim, seed=dim + 98).matrix
    negative = (v * np.r_[1.1, -0.1, np.zeros(dim - 2)]) @ v.conj().T
    for mat, tol, fault in ((rho + skew, None, "not Hermitian"), (rho * (1 + 1e-6), 1e-8, "has trace"),
                            (negative, None, "negative eigenvalue")):
        table = (b.matrix.conj().T @ a.matrix).T * (a.matrix.conj().T @ mat @ b.matrix)
        yield KDDistribution(a, b, ordering, table.conj() if ordering is Ordering.BA else table, tol=1e-2), tol, fault


@pytest.mark.parametrize("dim", [2, 5, 64])
@pytest.mark.parametrize("ordering", list(Ordering), ids=str)
def test_an_adopted_matrix_is_refused_as_a_density_operator_refuses_it(dim, ordering):
    for dist, tol, fault in _doctored(dim, ordering):
        expected = _verdict(lambda: DensityOperator(_product(dist), tol=tol))
        assert expected != "ok" and fault in expected[1], expected
        assert _verdict(lambda: kd_inverse(dist, tol=tol)) == expected


# ---------------------------------------------------------------------------
# the sums check, taken once on construction and kept for the marginals


def _plain_marginal(tab, axis, name, tol=1e-10):
    """What the plain numpy expressions make of ``tab``'s sums along ``axis``: the bytes, or the error."""
    sums = tab.sum(axis=axis)
    worst = float(np.max(np.abs(sums.imag)))
    if worst > tol:
        return "error", f"{name} marginal has imaginary part {worst:.3e}", {"worst_imag": worst}
    probs = sums.real.copy()
    if float(probs.min()) < -tol:
        return "error", f"{name} marginal has negative entry {probs.min():.3e}", {}
    if abs(float(probs.sum()) - 1.0) > tol:
        return "error", f"{name} marginal sums to {float(probs.sum())!r}", {}
    return "ok", probs.tobytes()


def _marginal_verdict(marginal, dist, **tols):
    try:
        return "ok", marginal(dist, **tols).tobytes()
    except ValidationError as err:
        return "error", str(err), err.context


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 64])
def test_marginals_of_a_transform_run_no_imaginary_part_scan(monkeypatch, dim):
    """The marginals compare the largest |imaginary part| the table's check kept: no ``_max_abs``, the same bytes."""
    dist = kd_transform(random_density(dim, 2, seed=dim), random_basis(dim, seed=1), fourier_basis(dim))
    calls = []

    def counted(x):
        calls.append(x)
        return _max_abs(x)

    for owner in (kdq.hilbert, kdq.kd):
        monkeypatch.setattr(owner, "_max_abs", counted, raising=False)
    assert kd_marginal_a(dist).tobytes() == dist.table.sum(axis=1).real.tobytes()
    assert kd_marginal_b(dist).tobytes() == dist.table.sum(axis=0).real.tobytes()
    assert calls == []


@pytest.mark.parametrize("dim", [2, 3, 5, 16])
@pytest.mark.parametrize("built_with", [5e-8, 1e-6])
def test_marginal_tolerances_judge_as_the_plain_expressions(dim, built_with):
    """Row sums with imaginary parts of +-1e-8, a negative row and column sum, and a total of 1 + 3e-9,
    judged by a tol tighter or looser than the table's."""
    rng = np.random.default_rng(dim)
    base = kd_transform(random_density(dim, dim, seed=dim), random_basis(dim, seed=dim + 1), fourier_basis(dim))
    tables = []
    for _ in range(5):
        tab = np.array(base.table)
        signs = rng.choice([-1.0, 1.0], size=dim)
        tab[:, rng.integers(dim)] += 1e-8j * signs  # row i's sum moves by +-1e-8 i; one column's by their total
        tables.append(tab)
    shifted = np.array(base.table)  # row 0 and column 0 sum to theirs less 2, the total stays
    shifted[0, 1] -= 2.0
    shifted[1, 1] += 4.0
    shifted[1, 0] -= 2.0
    over = np.array(base.table)
    over[0, 0] += 3e-9  # row 0, column 0 and the total move by 3e-9
    for tab in (*tables, shifted, over):
        dist = KDDistribution(base.basis_a, base.basis_b, Ordering.AB, tab, tol=built_with)
        for tol in (None, 1e-9, 9.99e-9, 1e-8, 1.0001e-8, 3e-8, built_with, 1e-6, 1e-3):
            tols = {} if tol is None else {"tol": tol}
            for marginal, axis, name in ((kd_marginal_a, 1, "a"), (kd_marginal_b, 0, "b")):
                assert _marginal_verdict(marginal, dist, **tols) == _plain_marginal(tab, axis, name, tol or 1e-10)


def _d64_inputs(seed):
    rng = np.random.default_rng(seed)

    def unitary():
        q, r = np.linalg.qr(rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
        return q * (np.diagonal(r) / abs(np.diagonal(r)))

    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    ua, ub = unitary(), unitary()
    psi = ub[:, 1] + ua[:, 2]
    psi /= np.linalg.norm(psi)
    return rho, ua, ub, ua[:, 0].copy(), ub[:, 0].copy(), np.outer(psi, psi.conj())


def _kd_stream_op(rho, ua, ub, a, b, m):
    """What one kd-stream op of the benchmark calls, from raw arrays to outputs."""
    rho, basis_a, basis_b = DensityOperator(rho), OrthonormalBasis(ua), OrthonormalBasis(ub)
    a, b, m = StateVector(a), StateVector(b), LinearOperator(m)
    ab = kd_transform(rho, basis_a, basis_b, Ordering.AB)
    ba = kd_transform(rho, basis_a, basis_b, Ordering.BA)
    out = [ab.table, ba.table, kd_marginal_a(ab), kd_marginal_b(ab), kd_inverse(ab).matrix]
    return out + [conditional_weak_value(m, a, b), total_probability(m, rho, basis_a, basis_b)]


# tracemalloc peak of one d=64 op on _d64_inputs(0) in this test before DensityOperator
# factored positivity in its adjoint's buffer (numpy 2.4, CPython 3.11; 797,416 since): glibc
# returns a heap above its ~1 MB trim threshold to the kernel, and the d=64 ops fault pages in
# again once they pass it
D64_OP_PEAK_BYTES = 829_720


def test_a_d64_op_allocates_no_more_than_before():
    inputs = _d64_inputs(0)
    _kd_stream_op(*inputs)  # warm: lazy imports and first-call caches
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = _kd_stream_op(*inputs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(out) == 7
    assert peak <= D64_OP_PEAK_BYTES, peak
