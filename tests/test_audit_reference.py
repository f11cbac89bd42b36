"""The vectorized audit against the cell-by-cell reference in reference_audit.py.

Every shipped family is checked at small d over three kinds of basis pair:
random bases, identical bases (every off-diagonal overlap vanishes, so the
span check has degenerate cells), and bases that share one vector up to a
phase (those cells have a rank-1 two-ordering span).
"""

import numpy as np
import pytest

import reference_audit as ref
from kdq import (
    Ordering,
    OrthonormalBasis,
    QuasiProbRep,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
    random_basis,
    span_residual,
    wigner_as_rep,
)

DIMS = (2, 3, 4, 5, 8)
SAMPLES = 16


def _sharing_basis(basis: OrthonormalBasis, seed: int) -> OrthonormalBasis:
    """Basis whose first vector is exp(i*0.7) times the first vector of ``basis``."""
    d = basis.dim
    rng = np.random.default_rng(seed)
    rest = basis.matrix[:, 1:] @ np.linalg.qr(
        rng.standard_normal((d - 1, d - 1)) + 1j * rng.standard_normal((d - 1, d - 1))
    )[0]
    return OrthonormalBasis(np.column_stack([np.exp(0.7j) * basis.matrix[:, 0], rest]))


def _basis_pairs(dim):
    a = random_basis(dim, seed=100 + dim)
    comp = computational_basis(dim)
    return {
        "random": (a, random_basis(dim, seed=200 + dim)),
        "identical": (comp, comp),  # off-diagonal overlaps exactly zero
        "identical-random": (a, a),  # off-diagonal overlaps at rounding level
        "shared": (a, _sharing_basis(a, seed=300 + dim)),
    }


def _families(basis_a, basis_b):
    """Each shipped family with its cell-by-cell reference operators."""
    yield kd_rep(basis_a, basis_b), ref.kd_operators(basis_a, basis_b)
    yield kd_rep(basis_a, basis_b, Ordering.BA), ref.kd_operators(basis_a, basis_b, Ordering.BA)
    yield mixed_rep(basis_a, basis_b, 0.3), ref.mixed_operators(basis_a, basis_b, 0.3)
    yield mixed_rep(basis_a, basis_b, 1.7), ref.mixed_operators(basis_a, basis_b, 1.7)
    yield make_condition2_violator(basis_a, basis_b, 1e-3), ref.violator_operators(basis_a, basis_b, 1e-3)


def _assert_same_report(new, old, cells):
    assert new.condition == old.condition
    assert new.passed == old.passed, (new, old)
    assert abs(new.worst_violation - old.worst_violation) <= 1e-12, (new, old)
    assert (new.samples_used, new.seed) == (old.samples_used, old.seed)
    key = ref.witness_key(new.witness)
    if key != ref.witness_key(old.witness):
        # summing in another order may break an exact tie differently: the
        # cell named must still carry the reference's worst violation
        assert key in cells, (new.witness, old.witness)
        assert cells[key] >= old.worst_violation - 1e-12, (new.witness, old.witness)


def _assert_checks_match(rep, seed):
    pairs = (
        (check_condition1(rep), ref.check_condition1),
        (check_condition2(rep), ref.check_condition2),
        (check_condition3(rep), lambda r, cells: ref.check_condition3(
            r, samples=SAMPLES, seed=seed, cells=cells)),
        (check_span(rep), ref.check_span),
    )
    for new, oracle in pairs:
        cells = {}
        old = oracle(rep, cells=cells)
        _assert_same_report(new, old, cells)

    new_res, old_res = span_residual(rep), ref.span_residual(rep)
    np.testing.assert_array_equal(new_res.degenerate, old_res.degenerate)
    # the reference's residual is defined by the operator wherever <b|a> is
    # not a rounding-level nonzero: there its lstsq spans two noise matrices
    cross = rep.basis_b.matrix.conj().T @ rep.basis_a.matrix
    defined = ~old_res.degenerate | (cross.T == 0)
    np.testing.assert_allclose(new_res.residuals[defined], old_res.residuals[defined], rtol=0, atol=1e-12)


@pytest.mark.parametrize("pair", ["random", "identical", "identical-random", "shared"])
@pytest.mark.parametrize("dim", DIMS)
def test_families_and_checks_match_reference(dim, pair):
    basis_a, basis_b = _basis_pairs(dim)[pair]
    for i, (rep, ref_ops) in enumerate(_families(basis_a, basis_b)):
        np.testing.assert_allclose(rep.operators, ref_ops, rtol=0, atol=1e-15)
        # the family as built (terms) and as a dense rep of its operators
        for form in (rep, QuasiProbRep(basis_a, basis_b, rep.operators)):
            _assert_checks_match(form, seed=10 * dim + i)


@pytest.mark.parametrize("dim", [d for d in DIMS if d % 2])
def test_wigner_family_and_checks_match_reference(dim):
    rep = wigner_as_rep(dim)
    np.testing.assert_allclose(rep.operators, ref.wigner_operators(dim), rtol=0, atol=1e-15)
    _assert_checks_match(rep, seed=dim)


def test_failing_families_name_the_reference_witness():
    # strict violations with a unique worst cell: the witness text matches
    a, b = _basis_pairs(4)["random"]
    p3 = np.outer(a.matrix[:, 3], a.matrix[:, 3].conj())
    ops = np.array(kd_rep(a, b).operators)
    ops[1, 2] += 0.01 * p3
    ops[1, 3] += 0.005 * p3
    rep = QuasiProbRep(a, b, ops)
    for new, old in (
        (check_condition1(rep), ref.check_condition1(rep)),
        (check_condition2(rep), ref.check_condition2(rep)),
        (check_condition3(rep), ref.check_condition3(rep, samples=SAMPLES, seed=5)),
        (check_span(rep), ref.check_span(rep)),
    ):
        assert not new.passed
        assert ref.witness_key(new.witness) == ref.witness_key(old.witness)


def test_rep_operators_are_c_contiguous():
    a, b = _basis_pairs(5)["random"]
    reps = [
        kd_rep(a, b),
        kd_rep(a, b, Ordering.BA),
        mixed_rep(a, b, 0.3),
        make_condition2_violator(a, b, 1e-3),
        wigner_as_rep(5),
        QuasiProbRep(a, b, np.asfortranarray(kd_rep(a, b).operators)),
    ]
    for rep in reps:
        assert rep.operators.flags.c_contiguous
        assert rep.operators.shape == (5, 5, 5, 5)
