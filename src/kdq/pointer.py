"""Weak measurement of a projector with a Gaussian von Neumann pointer.

A single 1-D Gaussian pointer phi, whose |phi|^2 has variance sigma^2, is
coupled to a projector P: the projected component of the system has its
pointer translated by the coupling g, the complementary component is
untouched, and the system is then post-selected on a final state |b>.  The
conditioned pointer is c_r phi(x) + c_p phi(x - g), with c_p = <b|P|psi>
and c_r = <b|psi> - c_p, and its moments are exact in closed form
(Aharonov, Albert and Vaidman, PRL 60, 1351 (1988); Jozsa, PRA 76, 044103
(2007)).  With O = exp(-g^2/(8 sigma^2)), the overlap of phi and its
shift, and X = c_r* c_p:

    prob = |c_r|^2 + |c_p|^2 + 2 O Re X,
    <x> = g (|c_p|^2 + O Re X) / prob,      <p> = g O Im X / (2 sigma^2 prob).

To first order in g the conditioned pointer moves by

    <x> = g * Re(w),      <p> = 2 g Var_p * Im(w),

where w = <b|P|psi>/<b|psi> is the complex conditional probability of the
projector and Var_p = 1/(4 sigma^2) is the initial momentum variance.  The
estimator's only error is the O(g^2) back-action, which the form above
gives exactly.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import DegeneratePostselectionError, ValidationError, ZeroCouplingError
from .hilbert import TOL, LinearOperator, StateVector, _integer, _max_abs, _real, _Record, _refuse, _require_same_dim, _setattr
from .kd import conditional_weak_value

_POSTSELECT_FLOOR = 1e-12


class PointerConfig(_Record):
    """Pointer width and coupling, with the grid a sampled pointer would take.

    The readouts are those of the continuous pointer, so ``grid_points`` and
    ``grid_extent`` change no output.  They are still validated, as the
    CLI's ``--grid-points`` and ``--grid-extent``: a power of two >= 16 and
    a finite extent that leaves the Gaussian tails room (grid_extent > 8
    sigma).  sigma^2 and 1/(4 sigma^2) must be finite normal floats: sigma
    within about [1.5e-154, 3.35e153].
    """

    __slots__ = ("grid_points", "grid_extent", "sigma", "coupling")

    def __init__(self, grid_points: int = 512, grid_extent: float = 20.0, sigma: float = 1.0, coupling: float = 0.1):
        for name, value in zip(self.__slots__, (grid_points, grid_extent, sigma, coupling)):
            _setattr(self, name, value)
        if _integer(grid_points, "grid_points", 16) & (grid_points - 1):
            raise ValidationError(f"grid_points must be a power of two >= 16, got {grid_points}")
        var = float(_real(sigma, "sigma")) * float(sigma)  # inf or 0.0 out of range, where ** raises OverflowError
        if not (var >= sys.float_info.min and 1.0 / (4.0 * var) >= sys.float_info.min):  # so neither exceeds 1.2e307
            raise ValidationError(
                f"sigma {self.sigma} is out of range: sigma^2 and 1/(4 sigma^2) must be finite normal floats",
                sigma=self.sigma,
            )
        if not _real(grid_extent, "grid_extent") > 8 * sigma:
            raise ValidationError(f"grid_extent must exceed 8*sigma = {8 * sigma:g}, got {grid_extent}")
        _real(coupling, "coupling", positive=False)

    @property
    def momentum_variance(self) -> float:
        """Analytic initial momentum variance 1/(4 sigma^2)."""
        return 1.0 / (4.0 * self.sigma**2)


class PointerReadout(_Record):
    """Post-selected pointer means plus the coupling that produced them."""

    __slots__ = ("mean_x", "mean_p", "postselect_prob", "coupling")

    def __init__(self, mean_x: float, mean_p: float, postselect_prob: float, coupling: float):
        for name, value in zip(self.__slots__, (mean_x, mean_p, postselect_prob, coupling)):
            _setattr(self, name, value)
        if not -1e-12 <= self.postselect_prob <= 1.0 + 1e-12:
            raise ValidationError(
                f"post-selection probability {self.postselect_prob!r} outside [0, 1]"
            )


class SweepPoint(NamedTuple):
    coupling: float
    estimate: complex
    exact: complex
    abs_error: float
    postselect_prob: float


def _validate_projector(a_proj: LinearOperator) -> None:
    mat = a_proj.matrix
    if _max_abs(mat - mat.conj().T) > TOL:
        raise ValidationError("measurement operator must be Hermitian")
    if _max_abs(mat @ mat - mat) > TOL:
        raise ValidationError("measurement operator must be idempotent (a projector)")


def simulate_weak_measurement(
    psi: StateVector, a_proj: LinearOperator, b: StateVector, cfg: PointerConfig
) -> PointerReadout:
    """Couple, post-select, and read out the pointer.

    Returns the conditioned pointer's mean position, mean momentum, and the
    post-selection probability.  Raises ``DegeneratePostselectionError``
    when the post-selection probability falls under 1e-12 (the conditioned
    state is then undefined), and ``ValidationError`` when a nonzero
    coupling, or the coupling over 2 sigma^2 that the estimator divides by,
    is below the smallest normal float.
    """
    return _readout(*_overlaps(psi, a_proj, b), cfg.sigma, cfg.coupling)


def _overlaps(psi: StateVector, a_proj: LinearOperator, b: StateVector) -> tuple[complex, complex]:
    """c_p = <b|P|psi> and <b|psi>, the same at every coupling."""
    _validate_projector(a_proj)
    _require_same_dim(psi.dim, a_proj.dim)
    _require_same_dim(psi.dim, b.dim)
    bra, ket = b.amplitudes, psi.amplitudes
    return complex(np.vdot(bra, a_proj.matrix @ ket)), complex(np.vdot(bra, ket))


def _readout(c_proj: complex, c_b: complex, sigma: float, g: float) -> PointerReadout:
    if g != 0.0 and min(abs(g), abs(g) / (2.0 * sigma * sigma)) < sys.float_info.min:
        raise ValidationError(
            f"coupling {g:g} ({g / sigma:g} sigma) is out of range: |coupling| and |coupling|/(2 sigma^2) "
            f"must be at least {sys.float_info.min:g}",
            coupling=g, sigma=sigma,
        )

    # the form above through c_b = <b|psi> = c_r + c_p and 1 - O, not through c_r: where the post-selection
    # nearly annihilates psi, c_r ~ -c_p and |c_r|^2 + |c_p|^2 + 2 O Re X would cancel to a few digits
    shift = g / sigma
    one_minus_o = -math.expm1(-0.125 * shift * shift)  # O = 0.0 where shift * shift overflows
    y = c_b.conjugate() * c_proj  # X = y - |c_p|^2
    re_x = y.real - abs(c_proj) ** 2
    prob = abs(c_b) ** 2 - 2.0 * one_minus_o * re_x
    if prob < _POSTSELECT_FLOOR:
        raise DegeneratePostselectionError(
            f"post-selection probability {prob:.3e} is below {_POSTSELECT_FLOOR:g}",
            postselect_prob=prob,
        )
    mean_x = g * (y.real - one_minus_o * re_x) / prob
    # g * O first: g / (2 sigma^2) may overflow where O is 0.0, and inf * 0.0 is NaN
    mean_p = g * (1.0 - one_minus_o) / (2.0 * sigma * sigma) * y.imag / prob
    return PointerReadout(mean_x, mean_p, min(prob, 1.0), g)


def weak_value_estimate(readout: PointerReadout, cfg: PointerConfig) -> complex:
    """First-order estimator: mean_x/g + i mean_p/(2 g Var_p)."""
    g = readout.coupling
    if g == 0.0:
        raise ZeroCouplingError("cannot estimate a weak value from a zero-coupling readout")
    var_p = cfg.momentum_variance
    return readout.mean_x / g + 1j * readout.mean_p / (2.0 * g * var_p)


def coupling_sweep(
    psi: StateVector,
    a_proj: LinearOperator,
    b: StateVector,
    cfg: PointerConfig,
    couplings: list[float],
) -> list[SweepPoint]:
    """Read the pointer out at each coupling and compare to the exact value.

    The exact reference is the complex conditional probability
    <b|P|psi>/<b|psi>; the error column is the absolute difference.
    """
    if not isinstance(couplings, (list, tuple)):
        _refuse("couplings", "a list or tuple", couplings)
    couplings = [_real(g, "coupling", positive=False) for g in couplings]
    if len(set(couplings)) != len(couplings):
        raise ValidationError("couplings must be distinct")
    if any(g == 0.0 for g in couplings):
        raise ZeroCouplingError("couplings must be nonzero")
    if not couplings:
        return []
    # read out before touching the exact reference, so a vanishing
    # post-selection probability surfaces as the degenerate-readout error
    # rather than as a singular overlap in the comparison column
    overlaps = _overlaps(psi, a_proj, b)
    readouts = [_readout(*overlaps, cfg.sigma, g) for g in couplings]
    exact = conditional_weak_value(a_proj, psi, b)
    points = []
    for readout in readouts:
        est = weak_value_estimate(readout, cfg)
        points.append(
            SweepPoint(readout.coupling, est, exact, abs(est - exact), readout.postselect_prob)
        )
    return points
