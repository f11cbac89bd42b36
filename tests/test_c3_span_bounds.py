"""C3 and Span bound each other, cell by cell: the paper's uniqueness claim as a number.

For a cell (a, b) write Pi = Pi(a, b), c = <b|a>, Q_a = 1 - |a><a|,
Q_b = 1 - |b><b|, C3_a = ||Q_a Pi Q_a||_F, C3_b = ||Q_b Pi Q_b||_F, and r
for the span residual, the Frobenius distance from Pi to
S = span{P_b P_a, P_a P_b} = span{|b><a|, |a><b|} (c != 0).  Then

    max(C3_a, C3_b) <= r <= sqrt(C3_a^2 + C3_b^2) / sigma(c),

    sigma(c) = sqrt(1 - |c|) for d >= 3,  sqrt(1 - |c|^2) at d = 2.

Derivation.  Let T(X) = (Q_a X Q_a, Q_b X Q_b) on d x d matrices with the
Frobenius inner product.  Each map Q_v(X) = Q X Q is an orthogonal
projector, so T*T = Q_a + Q_b; ker T = S when |c| < 1 (Q X Q = 0 for Q = Q_a
and Q = Q_b leaves exactly |b><a| and |a><b|: a 2-dim kernel, as
``tests/test_audit.py::test_uniqueness_compression_kernel_is_the_ordering_span``
checks).  Split Pi = S' + X with S' in S and X orthogonal to it, so r = ||X||.

* Lower: T(S') = 0, so C3_a = ||Q_a X Q_a|| <= ||X|| = r (a projector has
  norm 1), and so for C3_b.
* Upper: ||T X||^2 = C3_a^2 + C3_b^2 >= sigma^2 ||X||^2, with sigma^2 the
  smallest nonzero eigenvalue of Q_a + Q_b.  For two orthogonal projectors
  that is 1 - cos(theta), theta the smallest nonzero principal angle between
  their ranges, and cos^2(theta) the largest eigenvalue below 1 of
  Q_a Q_b Q_a on the range of Q_a.  There it acts as X -> M X M with
  M = Q_a Q_b Q_a on a^perp, whose eigenvalues are 1 (on a^perp and b^perp's
  common (d-2)-dim part) and |c|^2 (the angle between a and b).  X -> M X M
  has the products mu_i mu_j as eigenvalues: 1, |c|^2 (only if d >= 3, which
  needs a 1 beside |c|^2) and |c|^4.  So cos(theta) = |c| for d >= 3 and
  |c|^2 at d = 2, which gives sigma(c).  (At d = 2, Q_a and Q_b have rank 1.)

The property takes r from ``span_residual`` and C3_a, C3_b from the
cell-by-cell reference, and ties ``check_condition3``'s worst value to
them: with no degenerate cell, the worst compression is at most the worst
residual, and every r sigma(c) is at most sqrt(2) times the worst
compression.  A C3 that dropped a term that does not vanish breaks the
upper bound; a span that folded a term that is neither |b><a| nor |a><b|
breaks the lower one.

Rounding allowance: both sides are Frobenius norms of about ||Pi||_F, and
the residual rounds with the span's conditioning 1 - |c|^4 (see
``tests/test_audit_symmetries.py``).  Over d = 2..17 and four random basis
pairs each, the inequalities were off by at most 4.8 (lower) and 7.9
(upper) times eps ||Pi||_F; the allowance is 32 eps ||Pi||_F / (1 - |c|^4).
r reached 0.991 of the upper bound, so sigma(c) is not loose.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_audit as ref
from kdq import (
    check_condition3,
    kd_rep,
    make_condition2_violator,
    mixed_rep,
    random_basis,
    span_residual,
    wigner_as_rep,
)

EPS = np.finfo(float).eps
FAMILIES = {
    "kd": lambda a, b: kd_rep(a, b),
    "mixed:0.3": lambda a, b: mixed_rep(a, b, 0.3),
    "violator:1e-3": lambda a, b: make_condition2_violator(a, b, 1e-3),
    "violator:0.5": lambda a, b: make_condition2_violator(a, b, 0.5),
    "wigner": None,
}


def sigma(c: np.ndarray, d: int) -> np.ndarray:
    """Smallest nonzero singular value of X -> (Q_a X Q_a, Q_b X Q_b), for |<b|a>| = c."""
    return np.sqrt(1.0 - c) if d >= 3 else np.sqrt(1.0 - c**2)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(list(FAMILIES)), d=st.integers(2, 17), seed=st.integers(0, 2**31))
def test_compressions_and_span_residual_bound_each_other(family, d, seed):
    if family == "wigner":
        rep = wigner_as_rep(d | 1 if d > 2 else 3)  # odd d only
    else:
        rep = FAMILIES[family](random_basis(d, seed=seed), random_basis(d, seed=seed + 1))
    d = rep.dim
    res = span_residual(rep)
    assert not res.degenerate.any()  # random bases and the Wigner pair have |<b|a>| > 0 everywhere
    r = res.residuals
    c3 = ref.compression_norms(rep)  # (side, a, b)
    c = np.abs(rep.basis_b.matrix.conj().T @ rep.basis_a.matrix).T  # c[a, b] = |<b|a>|
    s = sigma(c, d)
    allow = 32 * EPS * np.linalg.norm(rep.operators, axis=(2, 3)) / (1.0 - c**4)
    lower, upper = c3.max(axis=0), np.sqrt((c3**2).sum(axis=0)) / s
    assert (lower <= r + allow).all(), (lower - r - allow).max()
    assert (r <= upper + allow).all(), (r - upper - allow).max()
    # the vectorized C3's worst value lies between the same bounds
    worst = check_condition3(rep).worst_violation
    assert worst <= (r + allow).max(), (worst, r.max())
    assert (r * s <= np.sqrt(2) * worst + allow * s).all(), ((r * s).max(), worst)
