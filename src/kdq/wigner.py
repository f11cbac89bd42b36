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

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import BadSlitsError, EvenDimensionError, ValidationError
from .hilbert import TOL_NORM, DensityOperator, OrthonormalBasis, StateVector, _max_abs, _require_budget, _tol
from .hilbert import computational_basis
from .audit import QuasiProbRep, _OnePerRow

_REALITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WignerTable:
    """Real d x d phase-space table, rows = position q, columns = momentum p."""

    table: np.ndarray
    tol: InitVar[float | None] = None

    def __post_init__(self, tol):
        tab = np.array(self.table, dtype=np.float64)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1]:
            raise ValidationError(f"table must be square, got shape {tab.shape}")
        if tab.shape[0] % 2 == 0:
            raise EvenDimensionError(f"dimension must be odd, got {tab.shape[0]}")
        if not np.isfinite(tab).all():
            raise ValidationError("table contains non-finite entries")
        total = float(tab.sum())
        if abs(total - 1.0) > _tol(tol, TOL_NORM):
            raise ValidationError(f"table sums to {total!r}, expected 1", total=total)
        tab.setflags(write=False)
        object.__setattr__(self, "table", tab)

    @property
    def dim(self) -> int:
        return self.table.shape[0]


def _require_odd(dim: int) -> None:
    if dim % 2 == 0:
        raise EvenDimensionError(f"dimension must be odd, got {dim}")
    if dim < 1:
        raise ValidationError(f"dimension must be positive, got {dim}")


def discrete_wigner(rho: DensityOperator, tol: float | None = None) -> WignerTable:
    """Phase-space table of ``rho``; raises on even dimension."""
    d = rho.dim
    _require_odd(d)
    x = np.arange(d)
    kernel = np.exp(4j * np.pi * np.outer(x, x) / d)  # kernel[p, x]
    anti = np.empty((d, d), dtype=np.complex128)  # anti[q, x] = <q+x|rho|q-x>
    for q in range(d):
        anti[q] = rho.matrix[(q + x) % d, (q - x) % d]
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
    if not (0 <= slit1 < dim and 0 <= slit2 < dim):
        raise BadSlitsError(f"slits ({slit1}, {slit2}) out of range for dim {dim}")
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
    ``TOL_NORM``).  An empty list means the orthogonality-zero requirement
    holds for this state on the position side.
    """
    tol = _tol(tol, TOL_NORM)
    d = rho.dim
    _require_odd(d)
    w = discrete_wigner(rho, tol=tol).table
    marg = position_marginal(rho)
    out: list[tuple[int, int, float]] = []
    for q in range(d):
        if marg[q] <= tol:
            for p in range(d):
                if abs(w[q, p]) > tol:
                    out.append((q, p, float(w[q, p])))
    return out


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
    d x d index and phase tables, and memory stays O(d^3).
    """
    _require_odd(dim)
    _require_budget(16 * dim**3, f"wigner slice at dim {dim}")  # a dense row; C1 stacks d sums this size
    r = np.arange(dim)
    x = (r[:, None] - r) % dim  # x[q, i]: row i of A(q, p) is row q - x
    cols = (r[:, None] + x) % dim  # cols[q, i] = 2q - i, whatever p is
    phase = _phase(dim, r[:, None], r)  # phase[p, x]

    def slices(side: int, k: int) -> _OnePerRow:
        if side == 0:  # A(k, p) over p: one column pattern for the whole row
            return _OnePerRow(cols[k][None], phase[:, x[k]])
        return _OnePerRow(cols, phase[k][x])  # A(q, k) over q

    return QuasiProbRep(computational_basis(dim), momentum_basis(dim), label="wigner", _slices=slices)
