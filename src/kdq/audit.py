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
the compression Q X Q of X to that subspace vanishes, and for a unit m with
Q m = m, |<m|X|m>| <= ||Q X Q||_F, so no sampled state could decide more.

A family takes one of two forms.  The shipped families are term reps, sums
of rank-1 terms coef |ket><bra| per cell; their kernels read the factors of
a whole side, laid out over (row, cell, i) by ``_side``, and take norms from
a Gram-Schmidt of the factors, so no d^4 array is ever formed.  Any other
family is a slice source, walked one row Pi(a, .) or column Pi(., b) at a
time: a dense family hands out (d, d, d) views of its stored operators, and
one with one nonzero per operator row (the phase-point operators) makes each
slice on request in that compact form, in a frame where the side's basis is
the standard basis, so every kernel works on those nonzeros alone, O(d) per
cell.  Condition 2 walks each side once, rows for the |A_j> and columns for
the |B_j>, and every slice gives the tables of the side's whole basis on its
cells: a one-per-row slice's are its diagonals.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadEpsilonError, ValidationError
from .hilbert import (
    MAX_ARRAY_BYTES,  # kdq.audit.MAX_ARRAY_BYTES stays importable
    DensityOperator,
    OrthonormalBasis,
    _Record,
    _member,
    _real,
    _require_budget,
    _require_same_dim,
    _setattr,
    _tol,
)
from .kd import TOL_OVERLAP, Ordering, _cross_overlaps


class QuasiProbRep:
    """Candidate representation: operators[a, b] is the cell operator.

    Term reps take ``terms`` in the ``_family`` format, each ket and bra a
    (d, 1 or d, 1 or d) array over (i, a, b); the checks run on those terms,
    and ``operators`` is expanded from them only when first read.  Any other
    rep is a slice source: the private ``_slices(side, k)`` returns row k
    (side 0) or column k (side 1), a (d, d, d) view for a rep built from the
    (d, d, d, d) ``operators`` array, else a ``_OnePerRow`` slice in the frame
    of its side's basis, whose rows ``operators`` stacks when read.
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
        if terms is not None and operators is not None:
            raise ValidationError("a representation takes operators or terms, not both")
        self.basis_a, self.basis_b, self.label = basis_a, basis_b, label
        self.terms = None if terms is None else tuple(terms)
        self._slices, self._ops = _slices, None
        if _slices is not None:
            return
        if self.terms is not None:
            kets = {(d, i, j) for i in (1, d) for j in (1, d)}  # a ket's or bra's shapes
            coefs = {s[n:] for s in kets for n in (1, 2, 3)}  # their tails: the shapes that broadcast to (d, d)
            if not self.terms or any(np.shape(c) not in coefs or {np.shape(k), np.shape(b)} - kets for c, k, b in self.terms):
                raise ValidationError(f"terms must be a non-empty list of (coef, ket, bra), coef broadcasting to {(d, d)} "
                                      f"and ket and bra of shape ({d}, 1 or {d}, 1 or {d})")
            # bounds every entry of the expanded family, so a finite bound means finite cells
            bound = sum(np.abs(c).max() * np.abs(k).max() * np.abs(b).max() for c, k, b in self.terms)
            if not np.isfinite(bound):
                raise ValidationError("terms contain non-finite entries")
            self._coef = np.stack([np.broadcast_to(c, (d, d)) for c, _, _ in self.terms], axis=-1)
            # U = |b><a| and V = |a><b| terms, laid out as kd's, fold into the coefficient fields xu and xv (d, d);
            # C2, C3 and the span read them in closed form and run their kernels on the other, rest, terms
            u = (basis_b.matrix[:, None, :], basis_a.matrix[:, :, None])  # U's ket and bra, V's reversed
            kind = [1 if all(map(np.array_equal, f, u)) else 2 if all(map(np.array_equal, f, u[::-1])) else 0
                    for _, *f in self.terms]
            self._uv = [self._coef[..., [t for t, n in enumerate(kind) if n == m]].sum(axis=-1) for m in (1, 2)]
            self._rest = [t for t, n in enumerate(kind) if not n]
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
        self._slices = lambda side, k: ops[k] if side == 0 else ops[:, k]

    @property
    def operators(self) -> np.ndarray:
        """The (d, d, d, d) family: complex, C-contiguous and read-only."""
        if self._ops is None:
            d = self.dim
            _require_budget(16 * d**4, f"dense family at dim {d}")
            if self.terms is not None:
                ops = _family(self.terms)
            else:
                ops = np.zeros((d, d, d, d), dtype=np.complex128)
                for a in range(d):  # a one-per-row row: Y_c[i, cols[i]] = vals[c, i]
                    x = self._slices(0, a)
                    ops[a][:, np.arange(d), x.cols] = x.vals
            ops.setflags(write=False)
            self._ops = ops
        return self._ops

    @property
    def dim(self) -> int:
        return self.basis_a.dim


class AuditReport(_Record):
    """Outcome of one condition check; ``condition`` is "C1", "C2", "C3" or "Span"."""

    __slots__ = ("condition", "passed", "worst_violation", "witness", "samples_used", "seed")

    def __init__(self, condition: str, passed: bool, worst_violation: float, witness: str, samples_used: int, seed: int):
        for name, value in zip(self.__slots__, (condition, passed, worst_violation, witness, samples_used, seed)):
            _setattr(self, name, value)

    def to_json_dict(self) -> dict:
        return self.__getstate__()


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
    ov = _cross_overlaps(am, bm).T  # ov[a, b] = <b|a>
    if ordering is Ordering.AB:
        return weight * ov, bm[:, None, :], am[:, :, None]
    return weight * ov.conj(), am[:, :, None], bm[:, None, :]


def kd_rep(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, ordering: Ordering = Ordering.AB
) -> QuasiProbRep:
    """Representation built from ordered projector products; ``ordering`` may be "AB" or "BA"."""
    ordering = _member(ordering, Ordering, "ordering")
    terms = [_kd_term(basis_a, basis_b, ordering)]
    return QuasiProbRep(basis_a, basis_b, label=f"kd-{ordering.value.lower()}", terms=terms)


def mixed_rep(
    basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, weight_ab: float
) -> QuasiProbRep:
    """Convex (or affine) mixture of the two orderings, cell by cell: any finite real weight."""
    weight_ab = _real(weight_ab, "mixture weight", positive=False)
    terms = [
        _kd_term(basis_a, basis_b, Ordering.AB, weight_ab),
        _kd_term(basis_a, basis_b, Ordering.BA, 1.0 - weight_ab),
    ]
    return QuasiProbRep(basis_a, basis_b, label=f"mixed:{weight_ab:g}", terms=terms)


class _OnePerRow(NamedTuple):
    """Row or column slice whose every operator has one nonzero per row, all in the same columns.

    X_c = F Y_c F^dag with Y_c[i, cols[i]] = vals[c, i], where F is the
    matrix of the side's basis: in the slice's frame the side's basis is the
    standard basis, so <v_j|X_c|v_j> = Y_c[j, j] and the slice's own vector
    is |k>, k = ``pivot``.  The contract is a phase-point slice's shape: cols
    is a permutation fixing k (there i -> 2k - i mod d, fixing k alone), so
    row k and column k of Y_c hold one nonzero, Y_c[k, k].  Basis A is
    computational, so what walks the rows (``evaluate``, the span,
    ``operators``) reads Y itself; a column's C1 and C3 are unitarily
    invariant, so F is never needed.
    """

    cols: np.ndarray  # (d,) int
    vals: np.ndarray  # (c, d) complex
    pivot: int


# Bytes of the arrays a kernel makes at once (cells of a slice, a tile of a
# term rep's cells, a band of eigenstate tables).  Larger arrays are handed back to
# the operating system when freed and faulted in again for the next block; on
# mixed:0.3 at d = 32 the term kernels ran 10-50% faster at 64 than at 256 KiB.
_BLOCK_BYTES = 1 << 16
_TILE_CELLS = 64  # the fewest cells in a term kernel's tile


def _blocks(x: np.ndarray):
    """(cells, their part of x) for blocks of about _BLOCK_BYTES, two cells at least, of the cells of a dense (c, d, d) slice."""
    n = len(x)
    m = max(1, n // max(2, _BLOCK_BYTES // (16 * x[0].size)))  # blocks
    for cells in (slice(n * i // m, n * (i + 1) // m) for i in range(m)):
        yield cells, x[cells]


def _off_pivot_sq(x: _OnePerRow) -> np.ndarray:
    """sum_i |Y_c[i, cols[i]]|^2 over the nonzeros off row and column ``x.pivot``, per cell."""
    off = np.arange(x.vals.shape[1]) != x.pivot  # row k's nonzero is the only one in column k
    return ((x.vals.real**2 + x.vals.imag**2) * off).sum(axis=1)


def _side(rep: QuasiProbRep, side: int, rest: bool = False):
    """coef (d, d, t) and kets and bras (1 or d, 1 or d, d) over (row, cell, i) of a term rep's side, or of its rest terms.

    A factor shared by the rows (kd's bm.T) stays a view; the others are
    copied into C order.  Refused if those arrays (16 d^2 bytes a factor;
    the span adds two) would be over the limit.
    """
    ts = rep._rest if rest else range(len(rep.terms))
    _require_budget(16 * rep.dim**2 * (len(ts) + 2), f"term factors at dim {rep.dim}")
    axes = (1, 2, 0) if side == 0 else (2, 1, 0)
    coef = rep._coef[..., ts] if rest else rep._coef
    laid = [[rep.terms[t][n].transpose(axes) for t in ts] for n in (1, 2)]
    return coef.transpose(1, 0, 2) if side else coef, *([f if len(f) == 1 else np.ascontiguousarray(f) for f in fs] for fs in laid)


def _tiled(factors: tuple, terms: Callable) -> np.ndarray:
    """out[k, c] = _lowrank_norms(*terms(rows, cells, coef, kets, bras)) over a side's ``_side`` factors, tile by tile.

    A tile is a band of whole rows or a run of ``per`` cells of one row, the
    last run taking what is left; ``per`` keeps a tile's arrays within
    _BLOCK_BYTES but is _TILE_CELLS at least (a tile costs ~100 numpy calls).
    """
    coef, kets, bras = factors
    d = len(coef)
    per = max(_TILE_CELLS, _BLOCK_BYTES // (16 * d))  # cells in a tile
    n = max(1, per // d)  # rows in a band
    out = np.empty((d, d))
    for rows, cells in [(slice(a, a + n), slice(c, c + per)) for a in range(0, d, n) for c in range(0, d, per)]:
        def tile(f):  # an axis of size 1 stays size 1
            return f[rows if len(f) > 1 else slice(None), cells if f.shape[1] > 1 else slice(None)]

        ks, ls = [tile(f) for f in kets], [tile(f) for f in bras]
        out[rows, cells] = _lowrank_norms(*terms(rows, cells, coef[rows, cells].transpose(2, 0, 1), ks, ls))
    return out


def _lowrank_norms(coef: list, kets: list, bras: list) -> np.ndarray:
    """||sum_t coef[t] |kets[t]><bras[t]| ||_F for every cell of a tile.

    Factors are (rows or 1, cells or 1, d), coefs broadcast to (rows, cells).
    With [bras] = Q R (Gram-Schmidt in the callers' order, which lists the
    bras a row's cells share first, so they are orthonormalized once per
    row), the norm is that of sum_t coef[t] |kets[t]> R[:, t]^dag formed
    explicitly, so terms cancel entry by entry, not in a sum of squared norms.
    """
    qs, r = [], {}
    for t, w in enumerate(bras):
        # Kahan's rule: a sweep that keeps over half the norm leaves w orthogonal to
        # the q's; else w is swept again, and if that again halves it, w is dropped
        # (cell by cell, so that a cell's norm does not depend on its tile)
        norms, redo = [np.sqrt(np.vecdot(w, w).real)], True
        for sweep in range(2 if qs else 0):
            if sweep and not (redo := norms[1] < 0.5 * norms[0]).any():
                break
            for j, q in enumerate(qs):
                h = np.vecdot(q, w) * redo
                w, r[j, t] = w - q * h[..., None], r.get((j, t), 0.0) + h
            norms.append(np.sqrt(np.vecdot(w, w).real))
        r[len(qs), t] = norm = np.where(norms[2] < 0.5 * norms[1], 0.0, norms[2]) if len(norms) == 3 else norms[-1]
        qs.append(w / np.where(norm > 0, norm, np.inf)[..., None])  # a dropped or zero column is zero
    ys = (sum(kets[t] * (coef[t] * np.conj(r[j, t]))[..., None] for t in range(len(bras)) if (j, t) in r) for j in range(len(qs)))
    return np.sqrt(sum(np.vecdot(y, y).real for y in ys))


def _traces(x, rho: np.ndarray) -> np.ndarray:
    """Tr(X_c rho) for every cell of a dense or one-per-row slice."""
    if isinstance(x, _OnePerRow):
        return (x.vals * rho[x.cols, np.arange(len(x.cols))]).sum(axis=1)
    return np.einsum("cij,ji->c", x, rho)


def evaluate(rep: QuasiProbRep, rho: DensityOperator) -> np.ndarray:
    """Complex table: table[a, b] = Tr(operators[a, b] . rho)."""
    _require_same_dim(rep.dim, rho.dim)
    if rep.terms is not None:  # Tr(|k><l| rho) = <l|rho|k>
        coef, kets, bras = _side(rep, 0)
        return sum(coef[..., t] * np.vecdot(l, k @ rho.matrix.T) for t, (k, l) in enumerate(zip(kets, bras)))
    return np.stack([_traces(rep._slices(0, a), rho.matrix) for a in range(rep.dim)])


def _first_max(devs: np.ndarray):
    """Index and value of the first largest entry down each column of devs, or of its first non-finite entry."""
    cols = np.arange(devs.shape[1])
    i = np.argmax(devs, axis=0)
    bad = ~np.isfinite(devs[i, cols])
    if bad.any():  # argmax stops at the first NaN, not at the first inf
        i = np.where(bad, np.argmax(~np.isfinite(devs), axis=0), i)
    return i, devs[i, cols]


def _verdict(condition: str, devs: np.ndarray, describe: Callable[..., str], clean: str, tol: float) -> AuditReport:
    """Report on ``devs``; the witness is ``describe(*index)`` of the first cell in C order above 0 and all before it.

    A non-finite deviation (an overflow to inf or NaN) is worse than any
    finite one: the first such cell is the witness, and fails the check.
    With no deviation above 0, the witness is ``clean``.
    """
    (flat,), (value,) = _first_max(devs.reshape(-1, 1))
    value, witness = float(value), clean
    if not value <= 0:
        prefix = "" if math.isfinite(value) else "non-finite deviation: "
        witness = prefix + describe(*(int(i) for i in np.unravel_index(flat, devs.shape)))
    return AuditReport(condition, value <= tol, value, witness, samples_used=0, seed=0)


def _frobenius(x: np.ndarray) -> np.ndarray:
    """||X_c||_F for every operator X_c of a stack x (c, d, d)."""
    flat = x.reshape(len(x), -1)
    return np.sqrt(np.vecdot(flat, flat).real)


def _term_marginals(rep: QuasiProbRep, side: int, vecs: np.ndarray) -> np.ndarray:
    """||sum_c X_c - |v_k><v_k| ||_F for every row k of a term rep, v_k = vecs[:, k].

    A term whose bra (ket) is shared by a row's cells sums to one rank-1 term
    (sum_c coef[c] |ket(c)>)<bra|; one with neither adds a term per cell.
    """
    def cell_sum(f, w):  # sum_c w[r, c] f[r, c], an (n, 1, d) factor
        if f.shape[1] == 1:
            return f * w.sum(axis=1)[:, None, None]
        return (w @ f[0])[:, None] if len(f) == 1 else np.einsum("rc,rci->ri", w, f)[:, None]

    coef, kets, bras = _side(rep, side)
    cs, ks, ls = [-1.0], [vecs.T[:, None]], [vecs.T[:, None]]
    for w, k, l in zip(coef.transpose(2, 0, 1), kets, bras):
        if l.shape[1] == 1:
            cs.append(1.0), ks.append(cell_sum(k, w)), ls.append(l)
        elif k.shape[1] == 1:
            cs.append(1.0), ks.append(k), ls.append(cell_sum(l, w.conj()))
        else:
            cs.extend(w.T[:, :, None])
            ks.extend(k.transpose(1, 0, 2)[:, :, None]), ls.extend(l.transpose(1, 0, 2)[:, :, None])
    return _lowrank_norms(cs, ks, ls)[:, 0]


def _marginal_dev(x, v: np.ndarray) -> float:
    """||sum_c X_c - |v><v| ||_F for a dense or one-per-row slice whose side's basis vector is v."""
    if isinstance(x, _OnePerRow):  # in its frame |v> = |k>, and each row sum of the cells has an entry of its own
        # numpy adds C-ordered cells in order, as a scatter-add does, and F-ordered ones (a row's) pairwise
        dev = np.ascontiguousarray(x.vals).sum(axis=0)
        dev[x.pivot] -= 1.0
    else:  # einsum, not np.outer, which rounds some entries of |k><k| differently
        dev = (x.sum(axis=0) - np.einsum("i,j->ij", v, v.conj())).ravel()
    return np.sqrt(np.vecdot(dev, dev).real)


def check_condition1(rep: QuasiProbRep, tol: float | None = None) -> AuditReport:
    """Operator marginals: sum_b Pi(a,b) = P_a and sum_a Pi(a,b) = P_b."""
    tol = _tol(tol)
    devs = np.array([  # (side, k)
        _term_marginals(rep, side, basis.matrix) if rep.terms is not None
        else [_marginal_dev(rep._slices(side, k), basis.matrix[:, k]) for k in range(rep.dim)]
        for side, basis in ((0, rep.basis_a), (1, rep.basis_b))
    ])
    texts = ("row a={k}: ||sum_b Pi(a,b) - P_a||_F = {dev:.3e}", "column b={k}: ||sum_a Pi(a,b) - P_b||_F = {dev:.3e}")
    clean = "all operator sums match the basis projectors"
    return _verdict("C1", devs, lambda side, k: texts[side].format(k=k, dev=devs[side, k]), clean, tol)


def _eigen_bands(rep: QuasiProbRep, side: int, vecs: np.ndarray):
    """(start, t) for consecutive bands of a side's slices: t[r, c, j] = <v_j|X_c|v_j> on slice start + r.

    |v_j> = vecs[:, j], the side's basis.  A term rep's tables are those of
    its rest terms alone, and with none there is no band.  Every band is
    written into one buffer, which the caller must not keep: an array freed
    for each band would be faulted in again.
    """
    d = rep.dim
    n = max(1, _BLOCK_BYTES // (16 * d * d))  # slices in a band
    band, term = np.empty((2, min(n, d), d, d), dtype=np.complex128)
    vecs, parts = np.ascontiguousarray(vecs), []  # a product's rounding must not depend on a basis's layout
    if rep.terms is not None:  # coef_t, <v_j|k_t> and <l_t|v_j> of the rest terms over (row, cell, j), formed once per side
        if not rep._rest:
            return
        coef, kets, bras = _side(rep, side, rest=True)
        ov = [[np.ascontiguousarray(f) @ vecs.conj() for f in fs] for fs in (kets, bras)]
        parts = [(coef[..., t, None], k, l.conj()) for t, (k, l) in enumerate(zip(*ov))]
    for start in range(0, d, n):
        rows, t = slice(start, start + n), band[: d - start]
        if rep.terms is None:
            for r in range(len(t)):
                x = rep._slices(side, start + r)
                if isinstance(x, _OnePerRow):  # in its frame |v_j> = |j>: the diagonal
                    np.multiply(x.vals, x.cols == np.arange(d), out=t[r])
                else:  # a dense slice; xv[j, c] = X_c |v_j>
                    xv = (vecs.T @ x.reshape(d * d, d).T).reshape(d, d, d)
                    t[r] = np.vecdot(vecs.T[:, None, :], xv).T
        for i, (c, k, l) in enumerate(parts):
            x = term[: len(t)] if i else t
            np.multiply(c[rows], k[rows] if len(k) > 1 else k, out=x)
            np.multiply(x, l[rows] if len(l) > 1 else l, out=x)
            if i:
                t += x
        yield start, t


def check_condition2(rep: QuasiProbRep, tol: float | None = None) -> AuditReport:
    """Eigenstate inputs: forbidden cells vanish, allowed cells equal |<a|b>|^2.

    One walk per side, rows for the |A_j> and columns for the |B_j>; a
    state's allowed cells are those of its own slice.  The first strict
    maximum in walk order (b-major for a |B_j>) is kept per (state, kind),
    and the witness is the first of those in the order state, forbidden
    before allowed.  A term rep's xu U + xv V part gives |A_j> (|B_j>) the table
    delta_aj (delta_bj) (xu <a|b> + xv <b|a>): the walk adds its rest terms.
    """
    tol = _tol(tol)
    d = rep.dim
    born = np.abs(cross := _cross_overlaps(rep.basis_a.matrix, rep.basis_b.matrix)) ** 2  # born[b, a] = |<a|b>|^2
    uv = np.zeros((d, d)) if rep.terms is None else rep._uv[0] * cross.T.conj() + rep._uv[1] * cross.T  # over (a, b)
    states = np.arange(d)
    # per (side, state, kind): the first maximum, its cell c of slice k at k d + c, and a forbidden one's table value
    devs, cells, values = np.zeros((2, d, 2)), np.zeros((2, d, 2), dtype=np.intp), np.zeros((2, d), dtype=np.complex128)
    for side, basis, expected in ((0, rep.basis_a, born.T), (1, rep.basis_b, born)):
        own = (uv.T if side else uv).astype(np.complex128)  # own[j]: |v_j>'s table on its own slice j
        for start, t in _eigen_bands(rep, side, basis.matrix):
            mine = np.arange(len(t)), slice(None), np.arange(start, start + len(t))
            own[start : start + len(t)] += t[mine]
            dev = np.abs(t, out=dev[: len(t)] if start else None)  # kept for the next band, as t is
            dev[mine] = 0.0  # the forbidden cells are left
            i, v = _first_max(dev.reshape(-1, d))
            win = np.isfinite(devs[side, :, 0]) & ~(v <= devs[side, :, 0])  # strictly larger, or the first non-finite
            devs[side, win, 0], cells[side, win, 0] = v[win], start * d + i[win]
            values[side, win] = t.reshape(-1, d)[i, states][win]
        i, devs[side, :, 1] = _first_max(np.abs(own - expected).T)
        cells[side, :, 1] = states * d + i

    def describe(side, j, kind):
        k, c = divmod(int(cells[side, j, kind]), d)
        a, b = (k, c) if side == 0 else (c, k)
        tag = f"eigenstate |{'AB'[side]}_{j}>"
        if kind == 0:
            return f"{tag}: forbidden cell (a={a}, b={b}) has |{values[side, j]:.3e}|"
        return f"{tag}: allowed cell (a={a}, b={b}) deviates by {devs[side, j, 1]:.3e}"

    return _verdict("C2", devs, describe, "all eigenstate tables have the required delta structure", tol)


def _compression_norms(x, v: np.ndarray) -> np.ndarray:
    """||Q X_c Q||_F for every cell X_c of a dense or one-per-row slice, with Q = 1 - |v><v|.

    Q X Q is formed explicitly, as Y - (Y|v>)<v| with Y = X - |v>(<v|X):
    the squared-norm identity ||X||^2 - ||X v||^2 - ... cancels down to
    ~1e-8 noise, too coarse for the audit tolerance.  A one-per-row slice
    needs neither: the norm is unitarily invariant, and in the slice's frame
    Q = 1 - |k><k| deletes row and column k, so the norm sums the squares
    of the nonzeros left, a sum of positive terms.
    """
    if isinstance(x, _OnePerRow):  # one pass over float squares: blocks of cells took longer at d=255
        return np.sqrt(_off_pivot_sq(x))
    return np.concatenate([_dense_compression(y, v) for _, y in _blocks(x)])


def _dense_compression(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """_compression_norms for a (c, d, d) block of operators."""
    y = x - v[:, None] * (v.conj() @ x)[:, None, :]
    return _frobenius(y - (y @ v)[:, :, None] * v.conj())


def check_condition3(rep: QuasiProbRep, *, tol: float | None = None) -> AuditReport:
    """Orthogonality zeros: the compression ||Q Pi(a,b) Q||_F with Q = 1 - P_a (and Q = 1 - P_b) must vanish.

    That one norm covers every state of the complement: a unit m with
    Q m = m has |<m|Pi|m>| = |<m|Q Pi Q|m>| <= ||Q Pi Q||_F, so a sampled
    state can exceed it only by rounding.  No state is drawn: the report
    carries 0 samples and seed 0, as the other checks' reports do.
    """
    tol = _tol(tol)
    d = rep.dim
    if d < 2:
        raise ValidationError("condition 3 needs dim >= 2: in dim 1 the complement of a state is empty")
    devs = np.empty((2, d, d))  # (side, k, cell)
    for axis, vecs in ((0, rep.basis_a.matrix), (1, rep.basis_b.matrix)):
        if rep.terms is not None:  # Q X Q of the rest terms, formed explicitly: the factors go off |v_k>; U and V vanish
            def terms(rows, cells, coef, kets, bras):
                v = vecs.T[rows, None]
                return list(coef), *([f - v * np.vecdot(v, f)[..., None] for f in fs] for fs in (kets, bras))

            devs[axis] = _tiled(_side(rep, axis, rest=True), terms) if rep._rest else 0.0
        else:
            devs[axis] = np.stack([_compression_norms(rep._slices(axis, k), vecs[:, k]) for k in range(d)])

    def describe(axis, k, c):
        q, at = ("a", f"(a={k}, b={c})") if axis == 0 else ("b", f"(a={c}, b={k})")
        return f"compression ||Q_{q} Pi Q_{q}||_F = {devs[axis, k, c]:.3e} at {at}"

    return _verdict("C3", devs, describe, "all compressions vanish", tol)


def _term_span(
    rep: QuasiProbRep, am: np.ndarray, bm: np.ndarray, cross: np.ndarray, w_sq_cut: np.ndarray, degenerate: np.ndarray
) -> np.ndarray:
    """span_residual of a term rep; the arguments are span_residual's, over (a, b).

    X is the rest terms plus xu U + xv V, and the residual X - (<U, X> - g c^2) U - g V,
    g = <W, X> / ||W||^2, is X with xu - <U, X> + g c^2 and xv - g instead; with no
    rest term it is 0 outside the degenerate cells.
    """
    if not rep._rest and not degenerate.any():
        return np.zeros(degenerate.shape)

    def terms(rows, cells, coef, kets, bras):
        a3, b3, c = am.T[rows, None], bm.T[None, cells], cross[rows, cells]  # |a>, |b> over (row, cell, i)
        xu, xv = (x[rows, cells] for x in rep._uv)
        cs, ks, ls = list(coef), [*kets, b3, a3], [*bras, a3, b3]
        def sandwich(p, q):  # <p|X_b|q> for every cell
            return sum(w * np.vecdot(p, k) * np.vecdot(l, q) for w, k, l in zip([*cs, xu, xv], ks, ls))

        ux, vx = sandwich(b3, a3), sandwich(a3, b3)  # <U_b, X_b>, <V_b, X_b>, U_b = |b><a|, V_b = |a><b|
        # ||W_b||^2 = 1 - |c_b|^4 = (1 + |c_b|^2) ||Q_a |b>||^2, with Q_a = 1 - |a><a|
        qb = b3 - a3 * np.vecdot(a3, b3)[..., None]
        w_sq = np.vecdot(qb, qb).real * (1.0 + np.abs(c) ** 2)
        g = (vx - (c * c).conj() * ux) / np.where(w_sq > w_sq_cut[rows, cells], w_sq, np.inf)  # <W, X> / ||W||^2
        dg = degenerate[rows, cells]  # a degenerate cell keeps X whole
        ux, g = np.where(dg, 0.0, ux), np.where(dg, 0.0, g)
        return [*cs, xu - ux + g * c * c, xv - g], ks, ls

    return _tiled(_side(rep, 0, rest=True), terms)


def _pivot_span_row(x: _OnePerRow, c: np.ndarray, w_sq_cut: np.ndarray, degenerate: np.ndarray) -> np.ndarray:
    """span_residual for a one-per-row row, whose vector |a> is the coordinate vector |k>, k = x.pivot.

    U_b = |b><k| and V_b = |k><b| meet X_b only in x_b = Y_b[k, k].  With
    c = <b|a>, <U_b, X_b> = c x_b, <W_b, X_b> = c* x_b (1 - |c|^2) and
    ||W_b||^2 = 1 - |c|^4, so the residual's square is the off-pivot squares
    plus |x_b|^2 (1 - |c|^2) / (1 + |c|^2), or |x_b|^2 (1 - |c|^2) where W_b
    counts as zero: non-negative terms, and no (cells, d) array.
    """
    c_sq, xk = c.real**2 + c.imag**2, x.vals[:, x.pivot]
    pivot_sq = (xk.real**2 + xk.imag**2) * (1.0 - c_sq) / np.where(1.0 - c_sq**2 > w_sq_cut, 1.0 + c_sq, 1.0)
    res = np.sqrt(_off_pivot_sq(x) + pivot_sq)
    return np.where(degenerate, np.sqrt((x.vals.real**2 + x.vals.imag**2).sum(axis=1)), res)


def _dense_span_row(
    x: np.ndarray, va: np.ndarray, bm: np.ndarray, c: np.ndarray, w_sq_cut: np.ndarray, degenerate: np.ndarray
) -> np.ndarray:
    """span_residual for a (c, d, d) block of the operators of row a.

    U_b = |b><a|, W_b = V_b - c_b^2 U_b with V_b = |a><b|, and W_b counts as
    zero where ||W_b||^2 <= w_sq_cut[b].  Degenerate cells get ||X_b||_F.
    """
    n = len(x)

    def inner(p, q):  # Frobenius <p_c, q_c> for every c of two (c, d, d) stacks
        return np.vecdot(p.reshape(n, -1), q.reshape(n, -1))

    # C order in any block: vecdot's loop, and so its rounding, follows its inputs' layout
    u = np.multiply(bm.T[:, :, None], va.conj(), order="C")  # u[b] = |b><a|
    w = np.multiply(va[:, None], bm.conj().T[:, None, :], order="C")  # |a><b|
    w -= (c * c)[:, None, None] * u
    r = x - inner(u, x)[:, None, None] * u
    w_sq = inner(w, w).real
    r -= (inner(w, r) / np.where(w_sq > w_sq_cut, w_sq, np.inf))[:, None, None] * w
    return np.where(degenerate, _frobenius(x), _frobenius(r))


def span_residual(rep: QuasiProbRep) -> SpanResidual:
    """Distance of each cell operator from span{P_b P_a, P_a P_b}.

    The span is that of U = |b><a| and V = |a><b|, two unit matrices with
    <U, V> = c^2 for c = <b|a>.  The residual removes the projection on U,
    then on W = V - c^2 U, where ||W||^2 = 1 - |c|^4.  As with lstsq's
    default rcond, W counts as zero (the span as rank 1) when the ratio of
    the two singular values, ||W|| / (1 + |c|^2), is at most eps * d^2.
    When |<b|a>| <= TOL_OVERLAP both products vanish and the span collapses
    to {0}; the residual is then the raw operator norm and the cell is flagged.
    """
    d = rep.dim
    am, bm = rep.basis_a.matrix, rep.basis_b.matrix
    cross = _cross_overlaps(am, bm).T  # cross[a, b] = <b|a>
    degenerate = np.abs(cross) <= TOL_OVERLAP
    w_sq_cut = (np.finfo(float).eps * d * d * (1.0 + np.abs(cross) ** 2)) ** 2
    if rep.terms is not None:
        return SpanResidual(_term_span(rep, am, bm, cross, w_sq_cut, degenerate), degenerate)
    residuals = np.empty((d, d))
    for a in range(d):
        if isinstance(x := rep._slices(0, a), _OnePerRow):
            residuals[a] = _pivot_span_row(x, cross[a], w_sq_cut[a], degenerate[a])
        else:
            for b, y in _blocks(x):
                residuals[a, b] = _dense_span_row(y, am[:, a], bm[:, b], cross[a, b], w_sq_cut[a, b], degenerate[a, b])
    return SpanResidual(residuals, degenerate)


def check_span(rep: QuasiProbRep, tol: float | None = None) -> AuditReport:
    """Pass iff every nondegenerate cell sits in the two-ordering span."""
    tol = _tol(tol)
    res = span_residual(rep)
    devs, n_degen = np.where(res.degenerate, 0.0, res.residuals), int(res.degenerate.sum())
    note = f" ({n_degen} degenerate cells excluded)" if n_degen else ""
    clean = "every cell lies in the two-ordering span" + note
    return _verdict("Span", devs, lambda a, b: f"cell (a={a}, b={b}): residual {devs[a, b]:.3e}{note}", clean, tol)


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
    if _real(epsilon, "epsilon", positive=False) == 0:
        raise BadEpsilonError("epsilon must be nonzero")
    a0, a1 = basis_a.matrix[:, 0, None, None], basis_a.matrix[:, 1, None, None]
    noise = epsilon * _zero_sum_sign_pattern(basis_a.dim)
    terms = [_kd_term(basis_a, basis_b, Ordering.AB), (noise, a0, a1), (noise, a1, a0)]
    return QuasiProbRep(basis_a, basis_b, label=f"violator:{epsilon:g}", terms=terms)
