"""Idealized von Neumann pointer simulation of a weak measurement.

A single 1-D Gaussian pointer is coupled to a projector: the projected
component of the system has its pointer translated by the coupling g, the
complementary component is untouched, and the system is then post-selected
on a final state |b>.  To first order in g the conditioned pointer moves by

    <x> = g * Re(w),      <p> = 2 g Var_p * Im(w),

where w = <b|P|psi>/<b|psi> is the complex conditional probability of the
projector and Var_p = 1/(4 sigma^2) is the initial momentum variance.  The
translation is applied as a phase in the momentum representation, so it is
exact on the periodic grid and the only systematic error in the estimator
is the O(g^2) back-action, plus wraparound that is negligible for
g <= sigma/2 at the default grid.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePostselectionError,
    GridTooCoarseError,
    ValidationError,
    ZeroCouplingError,
)
from .hilbert import LinearOperator, StateVector, _max_abs, _Record, _require_budget, _require_same_dim, _setattr
from .kd import conditional_weak_value

_PROJECTOR_TOL = 1e-10
_POSTSELECT_FLOOR = 1e-12
# Grid-sized complex arrays (16 N bytes each) that a simulation holds at
# once: tracemalloc puts the peak of ``coupling_sweep`` at 5.5 of them for
# N = 2^12 .. 2^16, whatever the number of couplings.
_LIVE_GRIDS = 6


def _normal(x: float) -> bool:
    """Is ``x`` a positive, finite, normal float?"""
    return sys.float_info.min <= x <= sys.float_info.max


class PointerConfig(_Record):
    """Pointer grid and coupling parameters.

    Positions run over [-grid_extent/2, grid_extent/2); grid_points must be
    a power of two >= 16 and the extent must leave the Gaussian tails room
    (grid_extent > 8 sigma) so wraparound is negligible.  sigma^2, 1/(4 sigma^2)
    and (grid_extent/2)^2 must be finite normal floats: sigma within about
    [1.5e-154, 3.35e153] and grid_extent below about 2.68e154.
    """

    __slots__ = ("grid_points", "grid_extent", "sigma", "coupling")

    def __init__(self, grid_points: int = 512, grid_extent: float = 20.0, sigma: float = 1.0, coupling: float = 0.1):
        for name, value in zip(self.__slots__, (grid_points, grid_extent, sigma, coupling)):
            _setattr(self, name, value)
        n = self.grid_points
        if n < 16 or n & (n - 1) != 0:
            raise ValidationError(f"grid_points must be a power of two >= 16, got {n}")
        _require_budget(
            _LIVE_GRIDS * 16 * n,
            f"pointer grid of {n} points needs {16 * n} bytes per array, "
            f"and a simulation, which holds {_LIVE_GRIDS} at once,",
        )
        if not (self.sigma > 0 and np.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be positive and finite, got {self.sigma}")
        var = float(self.sigma) * float(self.sigma)  # inf or 0.0 out of range, where ** raises OverflowError
        if not (_normal(var) and _normal(1.0 / (4.0 * var))):
            raise ValidationError(
                f"sigma {self.sigma} is out of range: sigma^2 and 1/(4 sigma^2) must be finite normal floats",
                sigma=self.sigma,
            )
        if not (self.grid_extent > 8 * self.sigma and np.isfinite(self.grid_extent)):
            raise ValidationError(
                f"grid_extent must exceed 8*sigma = {8 * self.sigma:g}, got {self.grid_extent}"
            )
        half = float(self.grid_extent) / 2.0
        if not _normal(half * half):
            raise ValidationError(
                f"grid_extent {self.grid_extent} is out of range: (grid_extent/2)^2 must be a finite normal float",
                grid_extent=self.grid_extent,
            )
        if not np.isfinite(self.coupling):
            raise ValidationError(f"coupling must be finite, got {self.coupling}")

    @property
    def dx(self) -> float:
        return self.grid_extent / self.grid_points

    def positions(self) -> np.ndarray:
        return (np.arange(self.grid_points) - self.grid_points // 2) * self.dx

    def momenta(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.grid_points, d=self.dx)

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


def _grids(cfg: PointerConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Positions, momenta, the initial Gaussian and its FFT: the same at every coupling."""
    x = cfg.positions()
    phi = np.exp(-(x**2) / (4.0 * cfg.sigma**2)).astype(np.complex128)
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * cfg.dx)
    return x, cfg.momenta(), phi, np.fft.fft(phi)


def _validate_projector(a_proj: LinearOperator) -> None:
    mat = a_proj.matrix
    if _max_abs(mat - mat.conj().T) > _PROJECTOR_TOL:
        raise ValidationError("measurement operator must be Hermitian")
    if _max_abs(mat @ mat - mat) > _PROJECTOR_TOL:
        raise ValidationError("measurement operator must be idempotent (a projector)")


def simulate_weak_measurement(
    psi: StateVector, a_proj: LinearOperator, b: StateVector, cfg: PointerConfig
) -> PointerReadout:
    """Couple, post-select, and read out the pointer.

    Returns the conditioned pointer's mean position, mean momentum, and the
    post-selection probability.  Raises ``GridTooCoarseError`` when the
    requested shift is below one grid cell,
    ``DegeneratePostselectionError`` when the post-selection probability
    falls under 1e-12 (the conditioned state is then undefined), and
    ``ValidationError`` when the shift reaches half the grid extent or the
    means are not finite.
    """
    return _readout(psi, a_proj, b, cfg, _grids(cfg))


def _readout(
    psi: StateVector, a_proj: LinearOperator, b: StateVector, cfg: PointerConfig, grids: tuple
) -> PointerReadout:
    _validate_projector(a_proj)
    _require_same_dim(psi.dim, a_proj.dim)
    _require_same_dim(psi.dim, b.dim)
    g, sigma = cfg.coupling, cfg.sigma
    if g != 0.0 and abs(g) < cfg.dx:
        raise GridTooCoarseError(
            f"coupling {g:g} ({g / sigma:g} sigma) is below the grid spacing {cfg.dx:g} ({cfg.dx / sigma:g} sigma)",
            coupling=g, dx=cfg.dx, sigma=sigma,
        )
    half = cfg.grid_extent / 2.0
    if abs(g) >= half:  # the periodic grid cannot tell such a shift from a smaller one
        raise ValidationError(
            f"coupling {g:g} is out of range: |coupling| = {abs(g):g} ({abs(g) / sigma:g} sigma) "
            f"must be below grid_extent/2 = {half:g} ({half / sigma:g} sigma)",
            coupling=g, grid_extent=cfg.grid_extent, sigma=sigma,
        )

    x, k, phi, phi_hat = grids
    c_proj = complex(np.vdot(b.amplitudes, a_proj.matrix @ psi.amplitudes))  # <b|P|psi>
    c_rest = complex(np.vdot(b.amplitudes, psi.amplitudes)) - c_proj  # <b|(1-P)|psi>
    chi = np.fft.ifft(phi_hat * np.exp(-1j * k * g))  # the shifted pointer
    chi *= c_proj
    chi += c_rest * phi

    weights = np.abs(chi) ** 2
    prob = float(np.sum(weights) * cfg.dx)
    if prob < _POSTSELECT_FLOOR:
        raise DegeneratePostselectionError(
            f"post-selection probability {prob:.3e} is below {_POSTSELECT_FLOOR:g}",
            postselect_prob=prob,
        )
    mean_x = float(np.sum(x * weights) * cfg.dx / prob)
    del weights  # the grid arrays held at once are budgeted: ``_LIVE_GRIDS``
    spectral = np.abs(np.fft.fft(chi)) ** 2
    mean_p = float(np.sum(k * spectral) / np.sum(spectral))
    if not (math.isfinite(mean_x) and math.isfinite(mean_p)):
        raise ValidationError(
            f"sigma {sigma:g} is out of range for this grid: its moments are not finite "
            f"(mean_x {mean_x!r}, mean_p {mean_p!r})",
            sigma=sigma,
        )
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
    """Run the simulation at each coupling and compare to the exact value.

    The exact reference is the complex conditional probability
    <b|P|psi>/<b|psi>; the error column is the absolute difference.
    """
    if len(set(couplings)) != len(couplings):
        raise ValidationError("couplings must be distinct")
    if any(g == 0.0 for g in couplings):
        raise ZeroCouplingError("couplings must be nonzero")
    if not couplings:
        return []
    # simulate before touching the exact reference, so a vanishing
    # post-selection probability surfaces as the degenerate-readout error
    # rather than as a singular overlap in the comparison column
    grids = _grids(cfg)
    readouts = [_readout(psi, a_proj, b, PointerConfig(cfg.grid_points, cfg.grid_extent, cfg.sigma, g), grids)
                for g in couplings]
    exact = conditional_weak_value(a_proj, psi, b)
    points = []
    for readout in readouts:
        est = weak_value_estimate(readout, cfg)
        points.append(
            SweepPoint(readout.coupling, est, exact, abs(est - exact), readout.postselect_prob)
        )
    return points
