"""Mechanical audit of candidate joint-probability representations.

A representation is a family of d^2 operators, one per outcome pair (a, b);
its table for a state is the product trace of each operator with the
density matrix.  The checks here decide three requirements:

* condition 1 - operator row/column sums equal the basis projectors, so
  the table's marginals reproduce single-observable probabilities;
* condition 2 - eigenstate inputs of either basis produce a table
  supported only on their own outcome;
* condition 3 - any state orthogonal to |a> (or |b>) gets joint value
  exactly zero in that row (column).

Condition 3 over *all* states of the complement is decided by one matrix
norm: over the complex field, <m|X|m> = 0 for every m in a subspace iff
the compression Q X Q of X to that subspace vanishes.  Random sampling of
complement states is kept alongside as an independent witness generator.

The checks work on one row Pi(a, .) or column Pi(., b) of the dense family
at a time, so each step is a (d, d, d) array operation or matrix product
and no temporary reaches the size of the family itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadEpsilonError,
    BadSampleCountError,
    ValidationError,
)
from .hilbert import (
    LinearOperator,
    DensityOperator,
    OrthonormalBasis,
    _require_same_dim,
)
from .kd import Ordering

DEFAULT_AUDIT_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuasiProbRep:
    """Candidate representation: operators[a, b] is the cell operator."""

    basis_a: OrthonormalBasis
    basis_b: OrthonormalBasis
    operators: np.ndarray  # shape (d, d, d, d), complex, C-contiguous
    label: str = ""

    def __post_init__(self):
        d = self.basis_a.dim
        _require_same_dim(d, self.basis_b.dim)
        ops = np.array(self.operators, dtype=np.complex128, order="C")
        if ops.shape != (d, d, d, d):
            raise ValidationError(
                f"operators must have shape {(d, d, d, d)}, got {ops.shape}"
            )
        if not np.all(np.isfinite(ops)):
            raise ValidationError("operators contain non-finite entries")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.basis_a.dim

    def operator(self, a: int, b: int) -> LinearOperator:
        return LinearOperator(self.operators[a, b])


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one condition check."""

    condition: str  # "C1" | "C2" | "C3" | "Span"
    passed: bool
    worst_violation: float
    witness: str
    samples_used: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "worst_violation": self.worst_violation,
            "witness": self.witness,
            "samples_used": self.samples_used,
            "seed": self.seed,
        }


class SpanResidual(NamedTuple):
    """Per-cell distance to span{P_b P_a, P_a P_b}; degenerate marks <b|a> ~ 0."""

    residuals: np.ndarray  # (d, d) float
    degenerate: np.ndarray  # (d, d) bool


def _family(terms) -> np.ndarray:
    """Dense family Pi(a,b) = sum_t coef_t[a, b] |ket_t(a, b)><bra_t(a, b)|.

    Each term is ``(coef, ket, bra)``: ``coef`` broadcasts to (d, d) over
    (a, b), and ``ket``/``bra`` broadcast to (d, d, d) over (i, a, b).  One
    einsum writes the whole (d, d, d, d) family, so it is the only
    allocation of that size.
    """
    d = terms[0][1].shape[0]
    coef = np.stack([np.broadcast_to(c, (d, d)) for c, _, _ in terms])
    kets = np.stack([np.broadcast_to(k, (d, d, d)) for _, k, _ in terms])
    bras = np.stack([np.broadcast_to(b, (d, d, d)) for _, _, b in terms]).conj()
    return np.einsum("tab,tiab,tjab->abij", coef, kets, bras, order="C")


def _kd_term(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, ordering: Ordering, weight: float = 1.0
):
    """``_family`` term for weight * |b><b|a><a| (AB) or weight * |a><a|b><b| (BA)."""
    _require_same_dim(basis_a.dim, basis_b.dim)
    am, bm = basis_a.matrix, basis_b.matrix
    ov = (bm.conj().T @ am).T  # ov[a, b] = <b|a>
    if ordering is Ordering.AB:
        return weight * ov, bm[:, None, :], am[:, :, None]
    return weight * ov.conj(), am[:, :, None], bm[:, None, :]


def kd_rep(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, ordering: Ordering = Ordering.AB
) -> QuasiProbRep:
    """Representation built from ordered projector products."""
    ops = _family([_kd_term(basis_a, basis_b, ordering)])
    return QuasiProbRep(basis_a, basis_b, ops, label=f"kd-{ordering.value.lower()}")


def mixed_rep(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, weight_ab: float
) -> QuasiProbRep:
    """Convex (or affine) mixture of the two orderings, cell by cell."""
    ops = _family(
        [
            _kd_term(basis_a, basis_b, Ordering.AB, weight_ab),
            _kd_term(basis_a, basis_b, Ordering.BA, 1.0 - weight_ab),
        ]
    )
    return QuasiProbRep(basis_a, basis_b, ops, label=f"mixed:{weight_ab:g}")


def evaluate(rep: QuasiProbRep, rho: DensityOperator) -> np.ndarray:
    """Complex table: table[a, b] = Tr(operators[a, b] . rho)."""
    _require_same_dim(rep.dim, rho.dim)
    return np.einsum("abij,ji->ab", rep.operators, rho.matrix)


class _Worst:
    """Largest violation seen so far, with the witness of the first cell to reach it."""

    def __init__(self, witness: str):
        self.value = 0.0
        self.witness = witness

    def bump(self, devs: np.ndarray, describe: Callable[..., str]) -> None:
        """Scan ``devs`` in C order; a cell must strictly exceed every earlier one to win.

        ``describe`` gets the winning index and returns its witness text.
        """
        idx = np.unravel_index(int(np.argmax(devs)), devs.shape)
        if devs[idx] > self.value:
            self.value = float(devs[idx])
            self.witness = describe(*(int(i) for i in idx))

    def report(self, condition: str, tol: float, samples_used: int = 0, seed: int = 0) -> AuditReport:
        return AuditReport(condition, self.value <= tol, self.value, self.witness, samples_used, seed)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||X_c||_F for every operator X_c of a stack x (c, d, d)."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(flat, flat).real)


def _projectors(mat: np.ndarray) -> np.ndarray:
    """Stack of rank-1 projectors: out[k] = |k><k| for the columns |k> of ``mat``."""
    return np.einsum("ik,jk->kij", mat, mat.conj())


def check_condition1(rep: QuasiProbRep, tol: float = DEFAULT_AUDIT_TOL) -> AuditReport:
    """Operator marginals: sum_b Pi(a,b) = P_a and sum_a Pi(a,b) = P_b."""
    ops = rep.operators
    worst = _Worst("all operator sums match the basis projectors")
    rows = _frobenius(ops.sum(axis=1) - _projectors(rep.basis_a.matrix))
    worst.bump(rows, lambda a: f"row a={a}: ||sum_b Pi(a,b) - P_a||_F = {rows[a]:.3e}")
    cols = _frobenius(ops.sum(axis=0) - _projectors(rep.basis_b.matrix))
    worst.bump(cols, lambda b: f"column b={b}: ||sum_a Pi(a,b) - P_b||_F = {cols[b]:.3e}")
    return worst.report("C1", tol)


def _eigenstate_tables(rep: QuasiProbRep) -> np.ndarray:
    """tables[s, k, a, b] = <k|Pi(a,b)|k> for |k> = |A_k> (s = 0) or |B_k> (s = 1)."""
    d = rep.dim
    vecs = np.concatenate([rep.basis_a.matrix, rep.basis_b.matrix], axis=1)  # (d, 2d)
    tables = np.empty((2 * d, d, d), dtype=np.complex128)
    for a in range(d):
        # ops_v[b, i, k] = (Pi(a,b) |k>)_i, one GEMM for the whole row
        ops_v = (rep.operators[a].reshape(d * d, d) @ vecs).reshape(d, d, 2 * d)
        tables[:, a, :] = np.einsum("ik,bik->kb", vecs.conj(), ops_v)
    return tables.reshape(2, d, d, d)


def check_condition2(rep: QuasiProbRep, tol: float = DEFAULT_AUDIT_TOL) -> AuditReport:
    """Eigenstate inputs: forbidden cells vanish, allowed cells equal |<a|b>|^2."""
    d = rep.dim
    cross = rep.basis_b.matrix.conj().T @ rep.basis_a.matrix  # cross[b, a] = <b|a>
    born = np.abs(cross.T) ** 2  # born[a, b] = |<a|b>|^2
    tables = _eigenstate_tables(rep)
    k = np.arange(d)[:, None, None]
    cell = np.arange(d)
    # |A_k> may only populate row a = k, |B_k> only column b = k
    allowed = np.stack(
        [np.broadcast_to(k == cell[:, None], (d, d, d)), np.broadcast_to(k == cell, (d, d, d))]
    )
    # devs[s, k, 0] forbidden-cell magnitudes, devs[s, k, 1] allowed-cell deviations:
    # C order visits each table's forbidden scan before its allowed scan
    devs = np.stack(
        [np.where(allowed, 0.0, np.abs(tables)), np.where(allowed, np.abs(tables - born), 0.0)],
        axis=2,
    )

    def describe(s, k, kind, a, b):
        tag = f"eigenstate |{'AB'[s]}_{k}>"
        if kind == 0:
            return f"{tag}: forbidden cell (a={a}, b={b}) has |{tables[s, k, a, b]:.3e}|"
        return f"{tag}: allowed cell (a={a}, b={b}) deviates by {devs[s, k, 1, a, b]:.3e}"

    worst = _Worst("all eigenstate tables have the required delta structure")
    worst.bump(devs, describe)
    return worst.report("C2", tol)


def _compression_norms(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """||Q X_c Q||_F for every operator X_c of a slice x (c, d, d), with Q = 1 - |v><v|.

    Q X Q is formed explicitly, as Y - (Y|v>)<v| with Y = Q X = X - |v>(<v|X):
    the squared-norm identity ||X||^2 - ||X v||^2 - ... cancels down to
    ~1e-8 noise, too coarse for the audit tolerance.
    """
    y = x - v[:, None] * (v.conj() @ x)[:, None, :]
    return _frobenius(y - (y @ v)[:, :, None] * v.conj())


def _complement_samples(rng: np.random.Generator, v: np.ndarray, samples: int) -> np.ndarray:
    """``samples`` random unit states orthogonal to ``v``.

    Each sample takes its real then imaginary parts from the next 2d draws
    of ``rng``; near-zero projections are dropped and topped up in order,
    so a seed always yields the same states.  ``np.vecdot`` runs the same
    BLAS dot per sample as ``np.vdot`` and ``np.linalg.norm`` on one vector.
    """
    d = v.size
    out = np.empty((samples, d), dtype=np.complex128)
    n = 0
    while n < samples:
        x = rng.standard_normal((samples - n, 2, d))
        z = x[:, 0] + 1j * x[:, 1]
        z = z - v * np.vecdot(v, z)[:, None]
        nrm = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))
        keep = nrm > 1e-8
        kept = int(keep.sum())
        out[n : n + kept] = z[keep] / nrm[keep, None]
        n += kept
    return out


def _sampled_values(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """vals[s, c] = |<m_s|X_c|m_s>| for the states m (n, d) and a slice x (c, d, d)."""
    c, d, _ = x.shape
    xm = (m @ x.reshape(c * d, d).T).reshape(len(m), c, d)  # xm[s, c] = X_c |m_s>
    return np.abs(np.vecdot(m[:, None, :], xm))


def check_condition3(
    rep: QuasiProbRep,
    samples: int = 100,
    seed: int = 0,
    tol: float = DEFAULT_AUDIT_TOL,
) -> AuditReport:
    """Orthogonality zeros, decided two ways.

    Deterministic: the compression ||Q Pi(a,b) Q||_F with Q = 1 - P_a
    (and Q = 1 - P_b) must vanish; that single norm covers every state of
    the complement.  Stochastic: ``samples`` random complement states per
    row/column are evaluated directly as independent witnesses.
    """
    if samples < 1:
        raise BadSampleCountError(f"samples must be >= 1, got {samples}")
    d = rep.dim
    ops = rep.operators
    # per side: its basis, the slice of the family for basis index k, and the
    # location text of cell c in that slice
    sides = (
        ("A", rep.basis_a.matrix, lambda k: ops[k], lambda k, c: f"(a={k}, b={c})"),
        ("B", rep.basis_b.matrix, lambda k: ops[:, k], lambda k, c: f"(a={c}, b={k})"),
    )
    worst = _Worst("all compressions and sampled states vanish")
    for side, vecs, cut, at in sides:
        q = side.lower()
        for k in range(d):
            dev = _compression_norms(cut(k), vecs[:, k])
            worst.bump(dev, lambda c: f"compression ||Q_{q} Pi Q_{q}||_F = {dev[c]:.3e} at {at(k, c)}")
    rng = np.random.default_rng(seed)
    for side, vecs, cut, at in sides:
        for k in range(d):
            vals = _sampled_values(cut(k), _complement_samples(rng, vecs[:, k], samples))
            worst.bump(
                vals,
                lambda s, c: f"sampled state #{s} orthogonal to |{side}_{k}> gives "
                f"|<m|Pi|m>| = {vals[s, c]:.3e} at {at(k, c)}",
            )
    return worst.report("C3", tol, samples_used=samples, seed=seed)


def span_residual(rep: QuasiProbRep, tol_overlap: float = 1e-8) -> SpanResidual:
    """Distance of each cell operator from span{P_b P_a, P_a P_b}.

    The span is that of U = |b><a| and V = |a><b|, two unit matrices with
    <U, V> = c^2 for c = <b|a>.  The residual removes the projection on U,
    then on W = V - c^2 U, where ||W||^2 = 1 - |c|^4.  As with lstsq's
    default rcond, W counts as zero (the span as rank 1) when the ratio of
    the two singular values, ||W|| / (1 + |c|^2), is at most eps * d^2.
    When <b|a> = 0 both products vanish and the span collapses to {0}; the
    residual is then the raw operator norm and the cell is flagged.
    """
    d = rep.dim
    am, bm = rep.basis_a.matrix, rep.basis_b.matrix
    cross = bm.conj().T @ am  # cross[b, a] = <b|a>
    degenerate = (np.abs(cross) <= tol_overlap).T
    w_sq_cut = (np.finfo(float).eps * d * d * (1.0 + np.abs(cross) ** 2)) ** 2

    def inner(p, q):  # Frobenius <p_c, q_c> for every c of two (c, d, d) stacks
        return np.vecdot(p.reshape(d, -1), q.reshape(d, -1))

    residuals = np.empty((d, d))
    for a in range(d):
        x, va, c = rep.operators[a], am[:, a], cross[:, a]
        u = bm.T[:, :, None] * va.conj()  # u[b] = |b><a|
        w = va[:, None] * bm.conj().T[:, None, :]  # |a><b|
        w -= (c * c)[:, None, None] * u
        r = x - inner(u, x)[:, None, None] * u
        w_sq = inner(w, w).real
        r -= (inner(w, r) / np.where(w_sq > w_sq_cut[:, a], w_sq, np.inf))[:, None, None] * w
        residuals[a] = np.where(degenerate[a], _frobenius(x), _frobenius(r))
    return SpanResidual(residuals, degenerate)


def check_span(rep: QuasiProbRep, tol: float = DEFAULT_AUDIT_TOL) -> AuditReport:
    """Pass iff every nondegenerate cell sits in the two-ordering span."""
    res = span_residual(rep)
    masked = np.where(res.degenerate, 0.0, res.residuals)
    a, b = np.unravel_index(int(np.argmax(masked)), masked.shape)
    worst = float(masked[a, b])
    n_degen = int(res.degenerate.sum())
    witness = f"cell (a={a}, b={b}): residual {worst:.3e}"
    if n_degen:
        witness += f" ({n_degen} degenerate cells excluded)"
    return AuditReport("Span", worst <= tol, worst, witness, samples_used=0, seed=0)


def _zero_sum_sign_pattern(d: int) -> np.ndarray:
    """Integer pattern whose every row and column sums to zero.

    Even d: checkerboard (-1)^(a+b).  Odd d: difference of the identity
    permutation pattern and a cyclic shift of it.
    """
    if d % 2 == 0:
        a = np.arange(d)
        return np.where((a[:, None] + a[None, :]) % 2 == 0, 1, -1)
    pattern = np.zeros((d, d), dtype=int)
    for a in range(d):
        pattern[a, a] += 1
        pattern[a, (a - 1) % d] -= 1
    return pattern


def make_condition2_violator(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, epsilon: float
) -> QuasiProbRep:
    """Marginal-preserving corruption of the projector-product family.

    Adds epsilon * s(a,b) * C to every cell, where C is a fixed traceless
    Hermitian operator (|A_0><A_1| + |A_1><A_0|) and the integer pattern s
    has zero row and column sums.  Condition 1 survives by construction;
    condition 2 fails at epsilon scale on eigenstates whose expectation of
    C is nonzero.
    """
    _require_same_dim(basis_a.dim, basis_b.dim)
    if basis_a.dim < 2:
        raise ValidationError("violator construction needs dim >= 2")
    if epsilon == 0:
        raise BadEpsilonError("epsilon must be nonzero")
    a0, a1 = basis_a.matrix[:, 0, None, None], basis_a.matrix[:, 1, None, None]
    noise = epsilon * _zero_sum_sign_pattern(basis_a.dim)
    ops = _family(
        [_kd_term(basis_a, basis_b, Ordering.AB), (noise, a0, a1), (noise, a1, a0)]
    )
    return QuasiProbRep(basis_a, basis_b, ops, label=f"violator:{epsilon:g}")
