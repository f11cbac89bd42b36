"""The paper's derivation, computed: requirements 1 and 3 leave one line of families.

Take a family as its d^4 unknown entries Pi(a, b)[i, j] and set every
requirement homogeneous.  Condition 3 asks both compressions Q_a Pi Q_a
and Q_b Pi Q_b of each cell to vanish (Q_a = 1 - P_a); condition 1 asks
each operator row sum sum_b Pi(a, b) and column sum sum_a Pi(a, b) to
vanish.  Condition 3 alone leaves each cell a 2-dimensional kernel, so
2 d^2 dimensions in all.  With condition 1 the null space is the single
complex line spanned by AB - BA, where AB(a, b) = P_b P_a and
BA(a, b) = P_a P_b.  The families that meet condition 1 are therefore
AB plus that null space: lambda AB + (1 - lambda) BA, one lambda for
every cell.

Each cell alone does not force one lambda.  A per-cell mixture
lambda_ab AB + (1 - lambda_ab) BA passes conditions 2 and 3 and the span,
and fails condition 1 alone.

The null space is read off an SVD of the stacked system, whose largest
singular value is at most 3.1 here.  A singular value counts as zero
below ``RANK_CUT``.  Over 520 seeded random basis pairs at d = 2..4, the
smallest singular value was at most 1.03e-15 and the next one at least
0.068, so the cut sits nine orders of magnitude inside that gap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdq import (
    Ordering,
    QuasiProbRep,
    check_condition1,
    check_condition2,
    check_condition3,
    check_span,
    computational_basis,
    fourier_basis,
    kd_rep,
    random_basis,
)

RANK_CUT = 1e-9


def _compressions(am, bm):
    """Condition 3's rows: Q_a Pi(a, b) Q_a and Q_b Pi(a, b) Q_b for every cell, on the row-major d^4 entries."""
    d = am.shape[0]
    n = d * d
    rows = np.zeros((2 * d**4, d**4), dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            cell = a * d + b
            for side, q in enumerate((np.eye(d) - np.outer(am[:, a], am[:, a].conj()),
                                      np.eye(d) - np.outer(bm[:, b], bm[:, b].conj()))):
                top = (2 * cell + side) * n
                rows[top : top + n, cell * n : (cell + 1) * n] = np.kron(q, q.T)  # vec(Q X Q), row-major
    return rows


def _marginals(d):
    """Condition 1's rows: sum_b Pi(a, b) for every a, then sum_a Pi(a, b) for every b."""
    n = d * d
    return np.vstack([np.kron(np.eye(d), np.kron(np.ones((1, d)), np.eye(n))),
                      np.kron(np.ones((1, d)), np.eye(d * n))])


def _null_space(system):
    """Orthonormal columns spanning the vectors the system sends to zero, by ``RANK_CUT``."""
    _, s, vh = np.linalg.svd(system)
    rank = int(np.count_nonzero(s > RANK_CUT))
    return vh[rank:].conj().T


def _assert_one_line(a, b):
    d = a.dim
    am, bm = a.matrix, b.matrix
    c3 = _compressions(am, bm)
    assert _null_space(c3).shape[1] == 2 * d * d  # each cell keeps span{P_b P_a, P_a P_b}
    null = _null_space(np.vstack([_marginals(d), c3]))
    assert null.shape[1] == 1
    line = (kd_rep(a, b).operators - kd_rep(a, b, Ordering.BA).operators).ravel()  # AB - BA
    assert np.linalg.norm(line) > 0.1
    assert np.linalg.norm(line - null @ (null.conj().T @ line)) <= 1e-12 * np.linalg.norm(line)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(2, 4), seed=st.integers(0, 2**31))
def test_conditions_1_and_3_leave_the_line_through_ab_and_ba(d, seed):
    _assert_one_line(random_basis(d, seed=seed), random_basis(d, seed=seed + 1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_computational_and_fourier_leave_the_same_line(d):
    _assert_one_line(computational_basis(d), fourier_basis(d))


def _per_cell_mixtures(d, seed):
    """lambda_ab AB + (1 - lambda_ab) BA with lambda_ab drawn from [0, 1]: as terms, and as dense operators."""
    a, b = random_basis(d, seed=seed), random_basis(d, seed=seed + 1)
    lam = np.random.default_rng(seed).uniform(size=(d, d))
    (ab,), (ba,) = kd_rep(a, b).terms, kd_rep(a, b, Ordering.BA).terms
    yield QuasiProbRep(a, b, label="per-cell", terms=[(lam * ab[0], *ab[1:]), ((1 - lam) * ba[0], *ba[1:])])
    lam = lam[..., None, None]
    dense = lam * kd_rep(a, b).operators + (1 - lam) * kd_rep(a, b, Ordering.BA).operators
    yield QuasiProbRep(a, b, dense, label="per-cell")


@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_per_cell_mixture_fails_condition_1_alone(d):
    for rep in _per_cell_mixtures(d, seed=70 + d):
        reports = [check(rep) for check in (check_condition1, check_condition2, check_condition3, check_span)]
        assert [r.passed for r in reports] == [False, True, True, True], reports
        assert reports[0].worst_violation > 1e-2
