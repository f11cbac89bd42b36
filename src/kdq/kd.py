"""Kirkwood-Dirac complex joint quasi-probabilities.

The joint table of a state over two orthonormal bases is built from ordered
products of the basis projectors.  With ordering AB (project on a first)
the cell operator is |b><b|a><a| and the table reads

    table[a, b] = <b|a> <a|rho|b>.

The opposite ordering BA takes the adjoint cell operator |a><a|b><b|, so for
a Hermitian rho its table is the AB table conjugated, bit for bit.  A state
keeps the AB table and its checked sums for the last basis pair it met; a BA
table conjugates them, each call applies its own tolerances, no transform
copies its table, and a BA table is inverted as the AB table it conjugates.
The transform is exactly invertible whenever all overlaps <b|a> are nonzero,
which makes the table a complete parametrization of the density operator.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import SingularOverlapError, ValidationError
from .hilbert import (
    DensityOperator,
    LinearOperator,
    OrthonormalBasis,
    StateVector,
    _accepts,
    _require_same_dim,
    _setattr,
    _tol,
    _Value,
    overlap,
)

TOL_OVERLAP = 1e-8


class Ordering(enum.Enum):
    """Which basis projector acts first in the cell operator."""

    AB = "AB"  # project on a first: |b><b|a><a|
    BA = "BA"  # project on b first: |a><a|b><b|


class KDDistribution(_Value):
    """Complex joint quasi-probability table over two bases.

    Invariants checked on construction: the complex total is 1 and every
    row/column sum is real (those sums are the single-observable
    probabilities).
    """

    # private: _sums, (2, d): row sums, column sums; _imag, the largest |imag| of each; _cross, <b|a> from kd_transform
    __slots__ = ("basis_a", "basis_b", "ordering", "table", "_sums", "_imag", "_cross")

    def __init__(self, basis_a: OrthonormalBasis, basis_b: OrthonormalBasis, ordering: Ordering, table: np.ndarray,
                 tol: float | None = None):
        d = basis_a.dim
        _require_same_dim(d, basis_b.dim)
        tab = np.array(table, dtype=np.complex128)
        if tab.shape != (d, d):
            raise ValidationError(f"table must have shape {(d, d)}, got {tab.shape}")
        self._own(basis_a, basis_b, ordering, tab, *_sums(tab), None, tol)

    def _own(self, basis_a, basis_b, ordering, tab, total, sums, imag, cross, tol) -> KDDistribution:
        """Take ``tab`` and its sums as they are, not copied, once they pass the table's check."""
        if not _accepts(tab, 2, "table", abs(total - 1.0), tol):
            raise ValidationError(f"table sums to {total}, expected 1", total=total)
        worst_imag = max(imag)
        if worst_imag > _tol(tol):
            raise ValidationError(f"row/column sums have imaginary part {worst_imag:.3e}", worst_imag=worst_imag)
        tab.setflags(write=False)
        sums.setflags(write=False)
        _setattr(self, "basis_a", basis_a)
        _setattr(self, "basis_b", basis_b)
        _setattr(self, "ordering", ordering)
        _setattr(self, "table", tab)
        _setattr(self, "_sums", sums)
        _setattr(self, "_imag", imag)
        _setattr(self, "_cross", cross)
        return self

    @property
    def dim(self) -> int:
        return self.basis_a.dim


def kd_operator(a: StateVector, b: StateVector, ordering: Ordering = Ordering.AB) -> LinearOperator:
    """Cell operator |b><b|a><a| (AB) or |a><a|b><b| (BA)."""
    _require_same_dim(a.dim, b.dim)
    mat = overlap(b, a) * np.outer(b.amplitudes, a.amplitudes.conj())  # <b|a> |b><a|
    return LinearOperator(mat if ordering is Ordering.AB else mat.conj().T)


def kd_transform(
    rho: DensityOperator,
    basis_a: OrthonormalBasis,
    basis_b: OrthonormalBasis,
    ordering: Ordering = Ordering.AB,
    tol: float | None = None,
) -> KDDistribution:
    """Joint quasi-probability table of ``rho`` over the two bases."""
    _require_same_dim(rho.dim, basis_a.dim)
    _require_same_dim(basis_a.dim, basis_b.dim)
    entry = _kept(rho, basis_a, basis_b)
    table, total, sums = entry[4:7]
    if ordering is Ordering.BA:  # the adjoint cells: negating an imaginary part is exact, bar a zero sum's sign
        table, sums = np.conjugate(table), np.conjugate(sums)  # sums are read as real parts and |imag| only
        total = total.conjugate() if total.imag else complex(np.add.reduce(table, None))  # an error prints its sign
    dist = KDDistribution.__new__(KDDistribution)
    return dist._own(basis_a, basis_b, ordering, table, total, sums, entry[7:], entry[2], tol)


def _sums(tab: np.ndarray) -> tuple[complex, np.ndarray, tuple[float, float]]:
    """The table's complex total, its (2, d) row and column sums, and the largest |imag| of each."""
    total = complex(np.add.reduce(tab, None))  # reductions call the ufunc: tab.sum()'s bits, not its wrapper
    both = np.empty((2, tab.shape[0]), dtype=np.complex128)
    np.add.reduce(tab, 1, None, both[0])  # (array, axis, dtype, out): positional, as keywords cost more
    np.add.reduce(tab, 0, None, both[1])
    return total, both, tuple(np.maximum.reduce(abs(both.imag), 1).tolist())


def _cross_overlaps(am: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """cross[b, a] = <b|a> for basis matrices ``am`` and ``bm``: each cell's weight, divided back out."""
    return bm.conj().T @ am


def _kept(rho: DensityOperator, basis_a: OrthonormalBasis, basis_b: OrthonormalBasis) -> tuple:
    """``(basis_a, basis_b, cross, mixed, table, total, sums, imag_a, imag_b)``, arrays read-only.

    cross[b, a] = <b|a>, mixed[a, b] = <a|rho|b>, and the AB table with its
    sums as ``_sums`` forms them.  ``rho`` keeps them for the last basis pair
    it met, matched by identity; a miss forms them together and replaces the
    flat entry whole, so outputs do not depend on call order.
    """
    entry = rho._kd
    if entry is None or entry[0] is not basis_a or entry[1] is not basis_b:
        am, bm = basis_a.matrix, basis_b.matrix
        cross, mixed = _cross_overlaps(am, bm), am.conj().T @ rho.matrix @ bm
        table = cross.T * mixed  # table[a, b] = <b|a> <a|rho|b>
        total, sums, imag = _sums(table)
        for arr in (cross, mixed, table, sums):
            arr.setflags(write=False)
        entry = (basis_a, basis_b, cross, mixed, table, total, sums, *imag)
        _setattr(rho, "_kd", entry)
    return entry


def _real_marginal(dist: KDDistribution, axis: int, axis_name: str, tol: float | None) -> np.ndarray:
    """The table's sums along ``axis`` as probabilities, judged by the largest imaginary part its check kept."""
    tol = _tol(tol)
    worst_imag = dist._imag[axis]
    if worst_imag > tol:
        raise ValidationError(f"{axis_name} marginal has imaginary part {worst_imag:.3e}", worst_imag=worst_imag)
    probs = dist._sums[axis].real.copy()
    lo, total = float(np.minimum.reduce(probs, None)), float(np.add.reduce(probs, None))
    if lo < -tol:
        raise ValidationError(f"{axis_name} marginal has negative entry {lo:.3e}")
    if abs(total - 1.0) > tol:
        raise ValidationError(f"{axis_name} marginal sums to {total!r}")
    return probs


def kd_marginal_a(dist: KDDistribution, tol: float | None = None) -> np.ndarray:
    """Row sums of the table: the outcome probabilities of the first basis."""
    return _real_marginal(dist, 0, "a", tol)


def kd_marginal_b(dist: KDDistribution, tol: float | None = None) -> np.ndarray:
    """Column sums of the table: the outcome probabilities of the second basis."""
    return _real_marginal(dist, 1, "b", tol)


def kd_inverse(dist: KDDistribution, *, tol: float | None = None) -> DensityOperator:
    """Reconstruct the density operator from its joint table.

    Divides each cell of the AB table (a BA table's conjugate) by the
    corresponding basis overlap to recover the mixed matrix element, then
    changes basis back to the computational representation.  Requires every |<b|a>| to exceed ``TOL_OVERLAP``;
    ``tol`` is passed to the ``DensityOperator`` validation.
    """
    am, bm = dist.basis_a.matrix, dist.basis_b.matrix
    cross_t = (_cross_overlaps(am, bm) if dist._cross is None else dist._cross).T  # cross_t[a, b] = <b|a>
    mags = abs(cross_t)
    if float(np.minimum.reduce(mags, None)) <= TOL_OVERLAP:
        a_bad, b_bad = np.unravel_index(int(np.argmin(mags)), mags.shape)
        raise SingularOverlapError(
            f"overlap <b|a> vanishes at (a={a_bad}, b={b_bad}): "
            f"|<b|a>| = {mags[a_bad, b_bad]:.3e} <= {TOL_OVERLAP:g}",
            a=int(a_bad),
            b=int(b_bad),
            magnitude=float(mags[a_bad, b_bad]),
        )
    table = dist.table if dist.ordering is Ordering.AB else dist.table.conj()  # BA's cells are AB's conjugated
    mixed = table / cross_t  # mixed[a, b] = <a|rho|b>
    return DensityOperator.__new__(DensityOperator)._own(am @ mixed @ bm.conj().T, True, tol)  # adopted, not copied


def conditional_weak_value(m_op: LinearOperator, a: StateVector, b: StateVector) -> complex:
    """Complex conditional probability <b|M|a> / <b|a> (the weak value of M), refused where |<b|a>| <= TOL_OVERLAP."""
    _require_same_dim(m_op.dim, a.dim)
    _require_same_dim(a.dim, b.dim)
    ov = complex(np.vdot(b.amplitudes, a.amplitudes))  # overlap(b, a), whose dimension check ran above
    if abs(ov) <= TOL_OVERLAP:
        raise SingularOverlapError(
            f"|<b|a>| = {abs(ov):.3e} <= {TOL_OVERLAP:g}: weak value undefined",
            magnitude=abs(ov),
        )
    return complex(np.vdot(b.amplitudes, m_op.matrix @ a.amplitudes)) / ov


def total_probability(
    m_op: LinearOperator,
    rho: DensityOperator,
    basis_a: OrthonormalBasis,
    basis_b: OrthonormalBasis,
) -> complex:
    """P(m) decomposed over the joint table: sum_ab <b|M|a><a|rho|b>.

    Uses the combined-product form, which stays finite when overlaps vanish;
    it always equals Tr(M rho).
    """
    _require_same_dim(m_op.dim, rho.dim)
    _require_same_dim(rho.dim, basis_a.dim)
    _require_same_dim(basis_a.dim, basis_b.dim)
    cond = basis_b.matrix.conj().T @ m_op.matrix @ basis_a.matrix  # cond[b, a] = <b|M|a>
    return complex(np.einsum("ba,ab->", cond, _kept(rho, basis_a, basis_b)[3]))
