"""Discrete Wigner function on odd dimensions, as an audit baseline.

The table is the Fourier transform of the density matrix along its
anti-diagonals,

    W(q, p) = (1/d) sum_x exp(4*pi*i*p*x/d) <q+x|rho|q-x>   (indices mod d),

which is real for Hermitian input and reproduces both marginals exactly.
Coherence between positions q1 and q2 lands at their midpoint (q1+q2)/2,
so a superposition of two slits puts weight at a position whose occupation
probability is zero.  That makes this family fail the orthogonality-zero
requirement (condition 3) while still passing the marginal requirement,
which is exactly the contrast the audit module is built to exhibit.

With this kernel sign the momentum marginal sum_q W(q, p) equals the
expectation in the plane-wave state with entries exp(-2*pi*i*j*p/d)/sqrt(d),
i.e. the index-reversed Fourier vector; ``momentum_basis`` returns that
basis so the family's operator marginals match its labels exactly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import BadSlitsError, EvenDimensionError, ValidationError
from .hilbert import DensityOperator, OrthonormalBasis, StateVector, _max_abs, _require_budget, _require_shaped, _tol
from .hilbert import _integer, _setattr, _Value, computational_basis

if TYPE_CHECKING:
    from .audit import QuasiProbRep

_REALITY_TOL = 1e-12


class WignerTable(_Value):
    """Real d x d phase-space table, rows = position q, columns = momentum p."""

    __slots__ = ("table",)

    def __init__(self, table: np.ndarray, tol: float | None = None):
        tab = np.array(table, dtype=np.float64)
        _require_shaped(tab, 2, "table")
        _require_odd(tab.shape[0])
        total = float(tab.sum())
        if abs(total - 1.0) > _tol(tol):
            raise ValidationError(f"table sums to {total!r}, expected 1", total=total)
        tab.setflags(write=False)
        _setattr(self, "table", tab)

    @property
    def dim(self) -> int:
        return self.table.shape[0]


def _require_odd(dim: int) -> None:
    if _integer(dim, "dimension", 1) % 2 == 0:
        raise EvenDimensionError(f"dimension must be odd, got {dim}")


def discrete_wigner(rho: DensityOperator, tol: float | None = None) -> WignerTable:
    """Phase-space table of ``rho``; raises on even dimension."""
    d = rho.dim
    _require_odd(d)
    x = np.arange(d)
    kernel = np.exp(4j * np.pi * np.outer(x, x) / d)  # kernel[p, x]
    anti = rho.matrix[(x[:, None] + x) % d, (x[:, None] - x) % d]  # anti[q, x] = <q+x|rho|q-x>
    w = anti @ kernel.T / d
    worst_imag = _max_abs(w.imag)
    if worst_imag > _REALITY_TOL:
        raise ValidationError(
            f"phase-space table has imaginary part {worst_imag:.3e}", worst_imag=worst_imag
        )
    return WignerTable(w.real, tol=tol)


def position_marginal(rho: DensityOperator) -> np.ndarray:
    """Occupation probabilities <q|rho|q> of the position grid."""
    return np.diagonal(rho.matrix).real.copy()


def double_slit_state(dim: int, slit1: int, slit2: int) -> StateVector:
    """Equal superposition of two grid positions with an on-grid midpoint."""
    _require_odd(dim)
    _integer(slit1, "slit1", 0, dim, BadSlitsError)
    _integer(slit2, "slit2", 0, dim, BadSlitsError)
    if slit1 == slit2:
        raise BadSlitsError("slits must be distinct")
    if (slit1 + slit2) % 2 != 0:
        raise BadSlitsError(
            f"slits ({slit1}, {slit2}) have no on-grid midpoint: their sum must be even"
        )
    amps = np.zeros(dim, dtype=np.complex128)
    amps[slit1] = amps[slit2] = 1.0 / np.sqrt(2.0)
    return StateVector(amps)


def condition3_violation_report(
    rho: DensityOperator, tol: float | None = None
) -> list[tuple[int, int, float]]:
    """Cells (q, p, W) with zero position marginal but nonzero table value.

    Both "zero" and "nonzero" are judged against ``tol`` (default
    ``TOL``).  An empty list means the orthogonality-zero requirement
    holds for this state on the position side.
    """
    tol = _tol(tol)
    w = discrete_wigner(rho, tol=tol).table  # refuses an even dimension
    dark = (position_marginal(rho) <= tol)[:, None] & (abs(w) > tol)
    return [(q, p, float(w[q, p])) for q, p in np.argwhere(dark).tolist()]  # C order: the loop's


def momentum_basis(dim: int) -> OrthonormalBasis:
    """Plane-wave basis conjugate to the position grid under this kernel."""
    _require_odd(dim)
    j = np.arange(dim)
    mat = np.exp(-2j * np.pi * np.outer(j, j) / dim) / np.sqrt(dim)
    return OrthonormalBasis(mat, label="momentum")


def _phase(dim: int, p, x) -> np.ndarray:
    """exp(4 pi i p x / d) / d: the entry of A(q, p) in row q - x, column q + x (mod d)."""
    return np.exp(4j * np.pi * p * x / dim) / dim


def phase_point_operator(dim: int, q: int, p: int) -> np.ndarray:
    """Operator A(q,p) with Tr(A(q,p) rho) = W(q,p); Hermitian, trace 1/d."""
    _require_odd(dim)
    _integer(q, "q", 0, dim)
    _integer(p, "p", 0, dim)
    x = (q - np.arange(dim)) % dim  # row i = q - x holds its one nonzero in column q + x
    mat = np.zeros((dim, dim), dtype=np.complex128)
    mat[np.arange(dim), (q + x) % dim] = _phase(dim, p, x)
    return mat


def wigner_as_rep(dim: int) -> QuasiProbRep:
    """Phase-point operators packaged as a candidate representation.

    Basis pair: position grid and the conjugate plane-wave basis.  The
    family passes the marginal check and fails the orthogonality-zero
    check, since every A(q,p) has weight off the q row and column.

    The family is never stored: each A(q,p) has one nonzero per row, so a
    row A(q, .) or column A(., p) of the family is made on request from
    d x d index and phase tables, and memory stays O(d^2).

    A row comes in the position frame, where the position basis is the
    standard basis.  A column is handed in the momentum frame, where the
    momentum basis is: the phase-point operators are Fourier covariant,
    M^dag A(q, p) M = A(p, -q) for the momentum basis M (Gibbons, Hoffman
    and Wootters, PRA 70, 062101 (2004)), so there column p is position row
    p with its cells reversed.  In either frame an eigenstate's table on a
    slice is the slice's diagonal (Wootters, Ann. Phys. 176, 1 (1987)).
    """
    from .audit import QuasiProbRep, _OnePerRow  # only this function needs the audit module

    _require_odd(dim)
    _require_budget(16 * dim**2, f"wigner tables at dim {dim}")  # the phase table, the bases
    r = np.arange(dim)
    x = (r[:, None] - r) % dim  # x[q, i]: row i of A(q, p) is row q - x
    cols = (r[:, None] + x) % dim  # cols[q, i] = 2q - i, whatever p is
    phase = _phase(dim, r[:, None], r)  # phase[p, x]
    momentum = momentum_basis(dim)
    reverse = (-r)[:, None] % dim

    def slices(side: int, k: int) -> _OnePerRow:
        if side == 0:  # A(k, p) over p
            return _OnePerRow(cols[k], phase[:, x[k]], k)
        return _OnePerRow(cols[k], phase[reverse, x[k]], k)  # A(., k) as A(k, -q) over q

    return QuasiProbRep(computational_basis(dim), momentum, label="wigner", _slices=slices)
