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

The checks walk the family one row Pi(a, .) or column Pi(., b) at a time.
A dense family hands each step a (d, d, d) slice of its operators.  The
shipped families are sums of rank-1 terms coef |ket><bra| per cell, and
hand each step the factors instead: the slice kernels then work on
d-vectors and t x t blocks, and no d^4 array is ever formed.  A family
with one nonzero per operator row (the phase-point operators) makes each
slice on request in that compact form, from a formula.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BadEpsilonError,
    BadSampleCountError,
    ValidationError,
)
from .hilbert import (
    MAX_ARRAY_BYTES,  # kdq.audit.MAX_ARRAY_BYTES stays importable
    LinearOperator,
    DensityOperator,
    OrthonormalBasis,
    _complement_samples,
    _require_budget,
    _require_same_dim,
    _tol,
)
from .kd import TOL_OVERLAP, Ordering

DEFAULT_AUDIT_TOL = 1e-10


class QuasiProbRep:
    """Candidate representation: operators[a, b] is the cell operator.

    Dense reps take the (d, d, d, d) ``operators`` array.  Term reps take
    ``terms`` instead, in the ``_family`` format with each ket and bra a
    (d, 1 or d, 1 or d) array over (i, a, b); the checks run on those
    terms, and ``operators`` is expanded from them only when first read.
    The private ``_slices(side, k)`` source returns row k (side 0) or
    column k (side 1) of the family as a ``_OnePerRow`` slice; those reps
    likewise stack ``operators`` only when it is read.
    """

    def __init__(
        self,
        basis_a: OrthonormalBasis,
        basis_b: OrthonormalBasis,
        operators: np.ndarray | None = None,
        label: str = "",
        *,
        terms=None,
        _slices: Callable[[int, int], _OnePerRow] | None = None,
    ):
        d = basis_a.dim
        _require_same_dim(d, basis_b.dim)
        self.basis_a, self.basis_b, self.label = basis_a, basis_b, label
        self.terms = None if terms is None else tuple(terms)
        self._slices, self._ops = _slices, None
        if _slices is not None:
            return
        if self.terms is not None:
            # bounds every entry of the expanded family, so a finite bound means finite cells
            bound = sum(
                np.abs(c).max() * np.abs(k).max() * np.abs(b).max() for c, k, b in self.terms
            )
            if not np.isfinite(bound):
                raise ValidationError("terms contain non-finite entries")
            self._coef = np.stack([np.broadcast_to(c, (d, d)) for c, _, _ in self.terms], axis=-1)
            return
        ops = np.array(operators, dtype=np.complex128, order="C")
        if ops.shape != (d, d, d, d):
            raise ValidationError(
                f"operators must have shape {(d, d, d, d)}, got {ops.shape}"
            )
        if not np.all(np.isfinite(ops)):
            raise ValidationError("operators contain non-finite entries")
        ops.setflags(write=False)
        self._ops = ops

    @property
    def operators(self) -> np.ndarray:
        """The (d, d, d, d) family: complex, C-contiguous and read-only."""
        if self._ops is None:
            d = self.dim
            _require_budget(16 * d**4, f"dense family at dim {d}")
            if self.terms is not None:
                ops = _family(self.terms)
            else:
                ops = np.empty((d, d, d, d), dtype=np.complex128)
                for a in range(d):
                    ops[a] = _densify(self._slices(0, a))
            ops.setflags(write=False)
            self._ops = ops
        return self._ops

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
        return asdict(self)


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
    terms = [_kd_term(basis_a, basis_b, ordering)]
    return QuasiProbRep(basis_a, basis_b, label=f"kd-{ordering.value.lower()}", terms=terms)


def mixed_rep(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, weight_ab: float
) -> QuasiProbRep:
    """Convex (or affine) mixture of the two orderings, cell by cell."""
    terms = [
        _kd_term(basis_a, basis_b, Ordering.AB, weight_ab),
        _kd_term(basis_a, basis_b, Ordering.BA, 1.0 - weight_ab),
    ]
    return QuasiProbRep(basis_a, basis_b, label=f"mixed:{weight_ab:g}", terms=terms)


class _Terms(NamedTuple):
    """Row or column slice of a term rep: X_c = sum_t coef[c, t] |kets[t][:, c]><bras[t][:, c]|.

    Each factor is a (d, c) array, or (d, 1) where it is the same for every cell.
    """

    coef: np.ndarray  # (c, t)
    kets: list
    bras: list


class _OnePerRow(NamedTuple):
    """Row or column slice whose every operator has one nonzero per row.

    X_c[i, cols[c, i]] = vals[c, i]; ``cols`` is (1, d) where every cell of
    the slice shares it.
    """

    cols: np.ndarray  # (c or 1, d) int
    vals: np.ndarray  # (c, d) complex


def _densify(x: _OnePerRow) -> np.ndarray:
    """The (c, d, d) operators of a one-per-row slice."""
    c, d = x.vals.shape
    out = np.zeros((c, d * d), dtype=np.complex128)
    out[np.arange(c)[:, None], np.arange(d) * d + x.cols] = x.vals
    return out.reshape(c, d, d)


# Cells densified at once by the compression and span kernels.  Whole
# slices (16 d^3 bytes) are large enough that the allocator hands them back
# to the operating system when freed, so every slice faulted its pages in
# again; blocks this small are reused from the heap, which made these two
# kernels 2-3x faster at d = 31 and 63.
_BLOCK_BYTES = 1 << 18


def _dense_blocks(x: _OnePerRow):
    """(cells, operators) for consecutive blocks of cells of a one-per-row slice."""
    c, d = x.vals.shape
    step = max(1, _BLOCK_BYTES // (16 * d * d))
    for start in range(0, c, step):
        cells = slice(start, start + step)
        cols = x.cols if len(x.cols) == 1 else x.cols[cells]
        yield cells, _densify(_OnePerRow(cols, x.vals[cells]))


def _slice(rep: QuasiProbRep, side: int, k: int):
    """Row Pi(k, .) (side 0) or column Pi(., k) (side 1) of the family.

    A dense rep gives its (c, d, d) operators, a term rep its ``_Terms``,
    a slice-source rep its ``_OnePerRow``.
    """
    if rep._slices is not None:
        return rep._slices(side, k)
    if rep.terms is None:
        return rep.operators[k] if side == 0 else rep.operators[:, k]
    d, t = rep.dim, len(rep.terms)
    _require_budget(16 * d * d * (t + 2), f"term slice at dim {d}")  # the span check adds two terms

    def cut(f):  # f broadcasts over (i, a, b); an axis of size 1 stays size 1
        i = min(k, f.shape[side + 1] - 1)
        return f[:, i] if side == 0 else f[:, :, i]

    coef = rep._coef[k] if side == 0 else rep._coef[:, k]
    _, kets, bras = zip(*rep.terms)
    return _Terms(coef, [cut(f) for f in kets], [cut(f) for f in bras])


def _stack(factors: list, c: int, coef: np.ndarray | None = None) -> np.ndarray:
    """out[t, c] = coef[c, t] * factors[t][:, c] (coef 1 if None), as one (t, c, d) array."""
    out = np.empty((len(factors), c, len(factors[0])), dtype=np.complex128)
    for j, f in enumerate(factors):
        out[j] = f.T if coef is None else f.T * coef[:, j, None]
    return out


def _lowrank_norms(coef: np.ndarray, kets: list, bras: list) -> np.ndarray:
    """||sum_t coef[c, t] |kets[t][:, c]><bras[t][:, c]| ||_F for every cell c.

    With bras_c = Q_c R_c (thin QR) the norm is that of the (d, t) matrix
    kets_c diag(coef_c) R_c^+, formed explicitly: terms that cancel do so
    entry by entry, as in a dense matrix, not in a sum of squared norms.
    The QR goes to the side with fewer distinct factors (the adjoint has
    the same norm): where every cell shares its bras, one QR serves them all.
    """
    def width(fs):
        return max(f.shape[1] for f in fs)

    if width(bras) > width(kets):
        coef, kets, bras = coef.conj(), bras, kets
    c, t = coef.shape
    # R_c is the upper triangle of the leading rows of h_c^T
    h = np.linalg.qr(_stack(bras, width(bras)).transpose(1, 2, 0), mode="raw")[0].swapaxes(1, 2)
    k = min(h.shape[1], t)
    r = h[:, :k] * np.triu(np.ones((k, t)))
    return _frobenius(_stack(kets, c, coef).transpose(1, 2, 0) @ r.conj().swapaxes(1, 2))


def _expectations(x, m: np.ndarray) -> np.ndarray:
    """vals[s, c] = <m_s|X_c|m_s> for the states m (n, d) and the cells X_c of a slice."""
    if isinstance(x, _Terms):
        mc = m.conj()
        return sum(cf * (mc @ k) * (m @ l.conj()) for cf, k, l in zip(x.coef.T, x.kets, x.bras))
    if isinstance(x, _OnePerRow):
        if len(x.cols) == 1:  # every cell shares its columns: one (n, d) x (d, c) GEMM
            return (m.conj() * m[:, x.cols[0]]) @ x.vals.T
        return np.einsum("sci,si,ci->sc", m[:, x.cols], m.conj(), x.vals)  # gathered (n, c, d)
    c, d, _ = x.shape
    xm = (m @ x.reshape(c * d, d).T).reshape(len(m), c, d)  # xm[s, c] = X_c |m_s>
    return np.vecdot(m[:, None, :], xm)


def _slice_sum(x) -> np.ndarray:
    """sum_c X_c over the cells of a slice."""
    if isinstance(x, _Terms):
        c, d = len(x.coef), len(x.kets[0])
        return _stack(x.kets, c, x.coef).reshape(-1, d).T @ _stack(x.bras, c).reshape(-1, d).conj()
    if isinstance(x, _OnePerRow):
        d = x.vals.shape[1]
        out = np.zeros((d, d), dtype=np.complex128)
        # adds the cells in order, as the dense sum does
        np.add.at(out, (np.arange(d), np.broadcast_to(x.cols, x.vals.shape)), x.vals)
        return out
    return x.sum(axis=0)


def _traces(x, rho: np.ndarray) -> np.ndarray:
    """Tr(X_c rho) for every cell of a slice."""
    if isinstance(x, _Terms):
        return sum(cf * np.vecdot(l, rho @ k, axis=0) for cf, k, l in zip(x.coef.T, x.kets, x.bras))
    if isinstance(x, _OnePerRow):
        return (x.vals * rho[x.cols, np.arange(x.vals.shape[1])]).sum(axis=1)
    return np.einsum("cij,ji->c", x, rho)


def evaluate(rep: QuasiProbRep, rho: DensityOperator) -> np.ndarray:
    """Complex table: table[a, b] = Tr(operators[a, b] . rho)."""
    _require_same_dim(rep.dim, rho.dim)
    return np.stack([_traces(_slice(rep, 0, a), rho.matrix) for a in range(rep.dim)])


class _Worst:
    """Largest violation seen so far, with the witness of the first cell to reach it.

    A non-finite deviation (an overflow to inf or NaN) is worse than any
    finite one: the first such cell fails the check and no later cell
    replaces it, since NaN compares false with everything.
    """

    def __init__(self, witness: str):
        self.value = 0.0
        self.witness = witness

    def bump(self, devs: np.ndarray, describe: Callable[..., str]) -> None:
        """Scan ``devs`` in C order; a cell must strictly exceed every earlier one to win.

        ``describe`` gets the winning index and returns its witness text.
        """
        if not math.isfinite(self.value):
            return
        flat, prefix = int(np.argmax(devs)), ""
        if not math.isfinite(devs.flat[flat]):  # argmax stops at the first NaN, not at the first inf
            flat, prefix = int(np.argmax(~np.isfinite(devs))), "non-finite deviation: "
        elif not devs.flat[flat] > self.value:
            return
        self.value = float(devs.flat[flat])
        self.witness = prefix + describe(*(int(i) for i in np.unravel_index(flat, devs.shape)))

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
    d = rep.dim
    worst = _Worst("all operator sums match the basis projectors")
    for side, basis, text in (
        (0, rep.basis_a, "row a={k}: ||sum_b Pi(a,b) - P_a||_F = {dev:.3e}"),
        (1, rep.basis_b, "column b={k}: ||sum_a Pi(a,b) - P_b||_F = {dev:.3e}"),
    ):
        sums = np.stack([_slice_sum(_slice(rep, side, k)) for k in range(d)])
        devs = _frobenius(sums - _projectors(basis.matrix))
        worst.bump(devs, lambda k: text.format(k=k, dev=devs[k]))
    return worst.report("C1", tol)


def _eigenstate_tables(rep: QuasiProbRep) -> np.ndarray:
    """tables[s, k, a, b] = <k|Pi(a,b)|k> for |k> = |A_k> (s = 0) or |B_k> (s = 1)."""
    d = rep.dim
    _require_budget(32 * d**3, f"eigenstate tables at dim {d}")
    vecs = np.concatenate([rep.basis_a.matrix, rep.basis_b.matrix], axis=1).T  # (2d, d)
    tables = np.empty((2 * d, d, d), dtype=np.complex128)
    for a in range(d):
        tables[:, a, :] = _expectations(_slice(rep, 0, a), vecs)
    return tables.reshape(2, d, d, d)


def check_condition2(rep: QuasiProbRep, tol: float = DEFAULT_AUDIT_TOL) -> AuditReport:
    """Eigenstate inputs: forbidden cells vanish, allowed cells equal |<a|b>|^2."""
    d = rep.dim
    cross = rep.basis_b.matrix.conj().T @ rep.basis_a.matrix  # cross[b, a] = <b|a>
    born = np.abs(cross.T) ** 2  # born[a, b] = |<a|b>|^2
    tables = _eigenstate_tables(rep)
    cell = np.arange(d)
    worst = _Worst("all eigenstate tables have the required delta structure")
    for s in range(2):
        for k in range(d):
            # |A_k> may only populate row a = k, |B_k> only column b = k
            allowed = (cell == k)[:, None] if s == 0 else cell == k
            table = tables[s, k]
            # devs[0] forbidden-cell magnitudes, devs[1] allowed-cell deviations:
            # C order visits the forbidden scan before the allowed scan
            devs = np.stack(
                [np.where(allowed, 0.0, np.abs(table)), np.where(allowed, np.abs(table - born), 0.0)]
            )

            def describe(kind, a, b):
                tag = f"eigenstate |{'AB'[s]}_{k}>"
                if kind == 0:
                    return f"{tag}: forbidden cell (a={a}, b={b}) has |{table[a, b]:.3e}|"
                return f"{tag}: allowed cell (a={a}, b={b}) deviates by {devs[1, a, b]:.3e}"

            worst.bump(devs, describe)
    return worst.report("C2", tol)


def _compression_norms(x, v: np.ndarray) -> np.ndarray:
    """||Q X_c Q||_F for every cell X_c of a slice, with Q = 1 - |v><v|.

    Q X Q is formed explicitly: a dense slice as Y - (Y|v>)<v| with
    Y = X - |v>(<v|X), a term slice by projecting its factors.  The
    squared-norm identity ||X||^2 - ||X v||^2 - ... cancels down to ~1e-8
    noise, too coarse for the audit tolerance.
    """
    if isinstance(x, _Terms):
        def off_v(fs):
            return [f - v[:, None] * (v.conj() @ f) for f in fs]

        return _lowrank_norms(x.coef, off_v(x.kets), off_v(x.bras))
    if isinstance(x, _OnePerRow):
        return np.concatenate([_compression_norms(block, v) for _, block in _dense_blocks(x)])
    y = x - v[:, None] * (v.conj() @ x)[:, None, :]
    return _frobenius(y - (y @ v)[:, :, None] * v.conj())


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
    if d < 2:
        raise ValidationError("condition 3 needs dim >= 2: in dim 1 the complement of a state is empty")
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}", seed=seed)
    # the largest per-slice block of the sampled expectations
    width = d if rep.terms is None else len(rep.terms)
    _require_budget(16 * samples * d * width, f"{samples} sampled states at dim {d}")
    # per side: its name, its axis in _slice, its basis, and the location text
    # of cell c in the slice for basis index k
    sides = (
        ("A", 0, rep.basis_a.matrix, lambda k, c: f"(a={k}, b={c})"),
        ("B", 1, rep.basis_b.matrix, lambda k, c: f"(a={c}, b={k})"),
    )
    worst = _Worst("all compressions and sampled states vanish")
    for side, axis, vecs, at in sides:
        q = side.lower()
        for k in range(d):
            dev = _compression_norms(_slice(rep, axis, k), vecs[:, k])
            worst.bump(dev, lambda c: f"compression ||Q_{q} Pi Q_{q}||_F = {dev[c]:.3e} at {at(k, c)}")
    rng = np.random.default_rng(seed)
    for side, axis, vecs, at in sides:
        for k in range(d):
            m = _complement_samples(rng, vecs[:, k], samples)
            vals = np.abs(_expectations(_slice(rep, axis, k), m))
            worst.bump(
                vals,
                lambda s, c: f"sampled state #{s} orthogonal to |{side}_{k}> gives "
                f"|<m|Pi|m>| = {vals[s, c]:.3e} at {at(k, c)}",
            )
    return worst.report("C3", tol, samples_used=samples, seed=seed)


def _span_row(
    x, va: np.ndarray, bm: np.ndarray, c: np.ndarray, w_sq_cut: np.ndarray, degenerate: np.ndarray
) -> np.ndarray:
    """span_residual for the cells of row a: the distance of X_b from span{U_b, W_b}.

    U_b = |b><a|, W_b = V_b - c_b^2 U_b with V_b = |a><b|, and W_b counts as
    zero where ||W_b||^2 <= w_sq_cut[b].  Degenerate cells get ||X_b||_F.
    """
    if isinstance(x, _Terms):
        a1 = va[:, None]

        def sandwich(left, right):  # <left_b|X_b|right_b> for every cell b
            return sum(
                cf * np.vecdot(left, k, axis=0) * np.vecdot(l, right, axis=0)
                for cf, k, l in zip(x.coef.T, x.kets, x.bras)
            )

        ux, vx = sandwich(bm, a1), sandwich(a1, bm)  # <U_b, X_b>, <V_b, X_b>
        # ||W_b||^2 = 1 - |c_b|^4 = (1 + |c_b|^2) ||Q_a |b>||^2, with Q_a = 1 - |a><a|
        qb = bm - a1 * (va.conj() @ bm)
        w_sq = np.vecdot(qb, qb, axis=0).real * (1.0 + np.abs(c) ** 2)
        g = (vx - (c * c).conj() * ux) / np.where(w_sq > w_sq_cut, w_sq, np.inf)  # <W, X> / ||W||^2
        # X - <U, X> U - g W, written as X - (<U, X> - g c^2) U - g V
        coef = np.column_stack([x.coef, g * c * c - ux, -g])
        res = _lowrank_norms(coef, x.kets + [bm, a1], x.bras + [a1, bm])
        return np.where(degenerate, _lowrank_norms(*x), res) if degenerate.any() else res
    if isinstance(x, _OnePerRow):
        return np.concatenate([
            _span_row(block, va, bm[:, b], c[b], w_sq_cut[b], degenerate[b]) for b, block in _dense_blocks(x)
        ])
    n = len(x)

    def inner(p, q):  # Frobenius <p_c, q_c> for every c of two (c, d, d) stacks
        return np.vecdot(p.reshape(n, -1), q.reshape(n, -1))

    u = bm.T[:, :, None] * va.conj()  # u[b] = |b><a|
    w = va[:, None] * bm.conj().T[:, None, :]  # |a><b|
    w -= (c * c)[:, None, None] * u
    r = x - inner(u, x)[:, None, None] * u
    w_sq = inner(w, w).real
    r -= (inner(w, r) / np.where(w_sq > w_sq_cut, w_sq, np.inf))[:, None, None] * w
    return np.where(degenerate, _frobenius(x), _frobenius(r))


def span_residual(rep: QuasiProbRep, tol_overlap: float = TOL_OVERLAP) -> SpanResidual:
    """Distance of each cell operator from span{P_b P_a, P_a P_b}.

    The span is that of U = |b><a| and V = |a><b|, two unit matrices with
    <U, V> = c^2 for c = <b|a>.  The residual removes the projection on U,
    then on W = V - c^2 U, where ||W||^2 = 1 - |c|^4.  As with lstsq's
    default rcond, W counts as zero (the span as rank 1) when the ratio of
    the two singular values, ||W|| / (1 + |c|^2), is at most eps * d^2.
    When <b|a> = 0 both products vanish and the span collapses to {0}; the
    residual is then the raw operator norm and the cell is flagged.
    """
    tol_overlap = _tol(tol_overlap, TOL_OVERLAP, "tol_overlap")
    d = rep.dim
    am, bm = rep.basis_a.matrix, rep.basis_b.matrix
    cross = bm.conj().T @ am  # cross[b, a] = <b|a>
    degenerate = (np.abs(cross) <= tol_overlap).T
    w_sq_cut = (np.finfo(float).eps * d * d * (1.0 + np.abs(cross) ** 2)) ** 2
    residuals = np.empty((d, d))
    for a in range(d):
        x = _slice(rep, 0, a)
        residuals[a] = _span_row(x, am[:, a], bm, cross[:, a], w_sq_cut[:, a], degenerate[a])
    return SpanResidual(residuals, degenerate)


def check_span(rep: QuasiProbRep, tol: float = DEFAULT_AUDIT_TOL) -> AuditReport:
    """Pass iff every nondegenerate cell sits in the two-ordering span."""
    res = span_residual(rep)
    masked = np.where(res.degenerate, 0.0, res.residuals)
    bad = np.flatnonzero(~np.isfinite(masked))  # a non-finite residual fails, at the first such cell
    a, b = np.unravel_index(int(bad[0] if len(bad) else np.argmax(masked)), masked.shape)
    worst = float(masked[a, b])
    n_degen = int(res.degenerate.sum())
    witness = ("non-finite residual: " if len(bad) else "") + f"cell (a={a}, b={b}): residual {worst:.3e}"
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
    terms = [_kd_term(basis_a, basis_b, Ordering.AB), (noise, a0, a1), (noise, a1, a0)]
    return QuasiProbRep(basis_a, basis_b, label=f"violator:{epsilon:g}", terms=terms)
