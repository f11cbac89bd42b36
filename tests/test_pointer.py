"""Pointer-simulation tests: exact limits, first-order recovery, convergence."""

import itertools
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kdq import (
    DegeneratePostselectionError,
    GridTooCoarseError,
    KDDistribution,
    LinearOperator,
    Ordering,
    PointerConfig,
    StateVector,
    ValidationError,
    ZeroCouplingError,
    basis_state,
    computational_basis,
    conditional_weak_value,
    coupling_sweep,
    kd_inverse,
    kd_marginal_a,
    make_pure_density,
    random_basis,
    random_state,
    simulate_weak_measurement,
    weak_value_estimate,
)
from kdq.audit import MAX_ARRAY_BYTES
from kdq.cli import main
from kdq.pointer import _LIVE_GRIDS
from test_audit_factored import _kdq_child

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

SQ2 = np.sqrt(2.0)
EPS = np.finfo(float).eps


def plus_state():
    return StateVector(np.array([1, 1]) / SQ2)


def i_state():
    return StateVector(np.array([1, 1j]) / SQ2)


def proj0():
    return LinearOperator(np.array([[1, 0], [0, 0]], dtype=complex))


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_non_power_of_two():
    with pytest.raises(ValidationError):
        PointerConfig(grid_points=100)


def test_config_refuses_a_grid_over_the_array_budget():
    # 2**40 points is a power of two, but one grid-sized complex array would take 16 TiB
    import kdq.hilbert

    with pytest.raises(ValidationError, match="pointer grid of 1099511627776 points needs 17592186044416 bytes"):
        PointerConfig(grid_points=2**40)
    assert kdq.hilbert.MAX_ARRAY_BYTES == MAX_ARRAY_BYTES == 1 << 30


def test_cli_refuses_a_grid_over_the_array_budget():
    code, out, err = _kdq_child(
        "weak", "--state", str(FIXTURES / "state_plus_d2.json"), "--a-index", "0", "--basis-a", "computational",
        "--b-index", "0", "--basis-b", "hadamard2", "--couplings", "0.1", "--grid-points", str(2**40),
    )
    assert code == 2, err
    assert out == ""
    doc = json.loads(err)
    assert set(doc) == {"code", "message", "context"}
    assert doc["code"] == "validation"
    assert doc["context"]["limit"] == MAX_ARRAY_BYTES


def test_sweep_peak_stays_within_the_budgeted_grid_count():
    n = 2**12
    cfg = PointerConfig(grid_points=n)
    args = (i_state(), proj0(), basis_state(2, 0), cfg, [0.1, 0.2, 0.4])
    coupling_sweep(*args)  # first-call allocations (FFT plans) are not the sweep's
    tracemalloc.start()
    try:
        coupling_sweep(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _LIVE_GRIDS * 16 * n


def test_cli_refuses_the_smallest_grid_over_the_sweep_budget(capsys):
    # 2**24 points: one grid array is 256 MiB, the arrays a sweep holds 1.5 GiB
    smallest = 2**24
    assert _LIVE_GRIDS * 16 * smallest > MAX_ARRAY_BYTES >= _LIVE_GRIDS * 16 * (smallest // 2)
    PointerConfig(grid_points=smallest // 2)
    tracemalloc.start()
    try:
        code = main([
            "weak", "--state", str(FIXTURES / "state_plus_d2.json"), "--a-index", "0", "--basis-a", "computational",
            "--b-index", "0", "--basis-b", "hadamard2", "--couplings", "0.1", "--grid-points", str(smallest),
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["code"] == "validation"
    assert doc["context"] == {"bytes": _LIVE_GRIDS * 16 * smallest, "limit": MAX_ARRAY_BYTES}
    assert peak < 16 * smallest // 64  # refused before a grid array was allocated


def test_config_rejects_small_extent():
    with pytest.raises(ValidationError):
        PointerConfig(grid_extent=4.0, sigma=1.0)


@pytest.mark.parametrize(
    "grid_extent, sigma, name",
    [
        (1e202, 1e200, "sigma"),  # sigma^2 overflows: ** raised OverflowError
        (2.8e155, 1.4e154, "sigma"),
        (2.6e155, 1.3e154, "sigma"),  # sigma^2 finite, 1/(4 sigma^2) subnormal
        (2e-319, 1e-320, "sigma"),  # sigma^2 underflows to 0
        (1e-158, 1e-160, "sigma"),
        (2.7e154, 3e153, "grid_extent"),  # the squared positions overflow
        (1e200, 1.0, "grid_extent"),
    ],
)
def test_config_refuses_scales_outside_the_normal_float_range(grid_extent, sigma, name):
    value = {"sigma": sigma, "grid_extent": grid_extent}[name]
    with pytest.raises(ValidationError, match=re.escape(f"{name} {value!r} is out of range")) as err:
        PointerConfig(512, grid_extent, sigma, 0.1)
    assert err.value.context == {name: value}


@pytest.mark.parametrize("grid_extent, sigma", [(1.3e-153, 1.5e-154), (2.65e154, 3.3e153), (2.68e154, 1.0)])
def test_config_accepts_scales_at_the_edges_of_the_range(grid_extent, sigma):
    cfg = PointerConfig(16, grid_extent, sigma, 0.1)
    assert np.isfinite(cfg.momentum_variance) and cfg.momentum_variance >= np.finfo(float).tiny
    assert np.isfinite(cfg.positions() ** 2).all()


def test_config_grid_helpers():
    cfg = PointerConfig()
    x = cfg.positions()
    assert x.shape == (512,)
    assert x[0] == pytest.approx(-10.0)
    assert cfg.momentum_variance == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# exact limits


def test_zero_coupling_readout():
    readout = simulate_weak_measurement(
        plus_state(), proj0(), i_state(), PointerConfig(coupling=0.0)
    )
    assert readout.mean_x == pytest.approx(0.0, abs=1e-10)
    assert readout.mean_p == pytest.approx(0.0, abs=1e-10)
    assert readout.postselect_prob == pytest.approx(0.5, abs=1e-10)


def test_eigenstate_rigid_translation():
    zero = basis_state(2, 0)
    readout = simulate_weak_measurement(zero, proj0(), zero, PointerConfig(coupling=0.3))
    assert readout.mean_x == pytest.approx(0.3, abs=1e-10)
    assert readout.mean_p == pytest.approx(0.0, abs=1e-10)
    est = weak_value_estimate(readout, PointerConfig(coupling=0.3))
    assert est == pytest.approx(1.0 + 0.0j, abs=1e-9)


def test_postselection_probability_at_zero_coupling():
    rng = np.random.default_rng(12)
    for _ in range(5):
        psi_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b_raw = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = StateVector(psi_raw / np.linalg.norm(psi_raw))
        b = StateVector(b_raw / np.linalg.norm(b_raw))
        readout = simulate_weak_measurement(psi, proj0(), b, PointerConfig(coupling=0.0))
        expected = abs(np.vdot(b.amplitudes, psi.amplitudes)) ** 2
        assert readout.postselect_prob == pytest.approx(expected, abs=1e-10)


def test_norm_conserved_across_complete_postselection():
    # unitarity check: post-selection probabilities over a full basis sum to 1
    cfg = PointerConfig(coupling=0.4)
    basis = computational_basis(2)
    total = sum(
        simulate_weak_measurement(plus_state(), proj0(), basis.vector(k), cfg).postselect_prob
        for k in range(2)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# weak-value recovery


def test_estimates_converge_to_complex_weak_value():
    cfg = PointerConfig()
    exact = conditional_weak_value(proj0(), plus_state(), i_state())
    assert exact == pytest.approx((1 + 1j) / 2, abs=1e-13)
    errs = []
    for g in (0.2, 0.1, 0.05):
        readout = simulate_weak_measurement(plus_state(), proj0(), i_state(), PointerConfig(coupling=g))
        errs.append(abs(weak_value_estimate(readout, cfg) - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.01


def test_sweep_convergence_order():
    gs = [0.2, 0.1, 0.05]
    points = coupling_sweep(plus_state(), proj0(), i_state(), PointerConfig(), gs)
    slope = np.polyfit(np.log(gs), np.log([p.abs_error for p in points]), 1)[0]
    assert slope >= 1.8


def test_error_scales_quadratically():
    # err(g)/g^2 stays near one constant across the sweep
    points = coupling_sweep(plus_state(), proj0(), i_state(), PointerConfig(), [0.2, 0.1, 0.05])
    ratios = [p.abs_error / p.coupling**2 for p in points]
    assert max(ratios) / min(ratios) < 1.3


def test_momentum_response_flips_with_coupling_sign():
    plus, ist = plus_state(), i_state()
    r_fwd = simulate_weak_measurement(plus, proj0(), ist, PointerConfig(coupling=0.1))
    r_rev = simulate_weak_measurement(plus, proj0(), ist, PointerConfig(coupling=-0.1))
    # the dynamical response inverts with the force direction
    assert r_rev.mean_p == pytest.approx(-r_fwd.mean_p, abs=1e-12)
    assert r_rev.mean_x == pytest.approx(-r_fwd.mean_x, abs=1e-12)
    # read in the fixed forward convention the imaginary part flips sign
    # while the real part is direction-insensitive
    var_p = PointerConfig().momentum_variance
    im_fwd = r_fwd.mean_p / (2 * 0.1 * var_p)
    im_rev = r_rev.mean_p / (2 * 0.1 * var_p)
    assert im_rev == pytest.approx(-im_fwd, abs=1e-10)
    assert r_rev.mean_x / -0.1 == pytest.approx(r_fwd.mean_x / 0.1, abs=1e-10)
    # and both runs estimate the same weak value
    est_fwd = weak_value_estimate(r_fwd, PointerConfig())
    est_rev = weak_value_estimate(r_rev, PointerConfig())
    assert est_rev == pytest.approx(est_fwd, abs=1e-10)


# ---------------------------------------------------------------------------
# sweep plumbing


def test_sweep_empty_list():
    assert coupling_sweep(plus_state(), proj0(), i_state(), PointerConfig(), []) == []


def test_sweep_single_point_matches_simulation():
    cfg = PointerConfig()
    [point] = coupling_sweep(plus_state(), proj0(), i_state(), cfg, [0.15])
    readout = simulate_weak_measurement(plus_state(), proj0(), i_state(), PointerConfig(coupling=0.15))
    assert point.estimate == pytest.approx(weak_value_estimate(readout, cfg), abs=1e-14)
    assert point.postselect_prob == pytest.approx(readout.postselect_prob, abs=1e-14)


@pytest.mark.parametrize("n", [2**12, 2**16])
def test_sweep_shares_its_grids_and_agrees_with_each_simulation(n):
    # the readouts agree within 1e-16 absolute (numpy's sums and FFTs may
    # round by alignment); the estimate divides them by g and by 2 g Var_p
    cfg = PointerConfig(grid_points=n)
    couplings = [0.4, 0.2, 0.1, 0.05, 0.02]
    points = coupling_sweep(plus_state(), proj0(), i_state(), cfg, couplings)
    for g, point in zip(couplings, points):
        readout = simulate_weak_measurement(plus_state(), proj0(), i_state(), PointerConfig(grid_points=n, coupling=g))
        scale = max(1.0, 1.0 / (2.0 * g * cfg.momentum_variance))
        assert abs(point.estimate - weak_value_estimate(readout, cfg)) <= 1e-16 * scale / g + 4e-16
        assert abs(point.postselect_prob - readout.postselect_prob) <= 1e-16


def test_sweep_rejects_duplicates_and_zero():
    cfg = PointerConfig()
    with pytest.raises(ValidationError):
        coupling_sweep(plus_state(), proj0(), i_state(), cfg, [0.1, 0.1])
    with pytest.raises(ZeroCouplingError):
        coupling_sweep(plus_state(), proj0(), i_state(), cfg, [0.1, 0.0])


# ---------------------------------------------------------------------------
# errors


def test_zero_coupling_estimate_rejected():
    readout = simulate_weak_measurement(
        plus_state(), proj0(), i_state(), PointerConfig(coupling=0.0)
    )
    with pytest.raises(ZeroCouplingError):
        weak_value_estimate(readout, PointerConfig())


def test_grid_too_coarse():
    cfg = PointerConfig(coupling=0.01)  # dx = 20/512 ~ 0.039
    with pytest.raises(GridTooCoarseError):
        simulate_weak_measurement(plus_state(), proj0(), i_state(), cfg)


@pytest.mark.parametrize("coupling", [10.0, -10.0, 1e300])
def test_coupling_of_half_the_extent_rejected(coupling):
    cfg = PointerConfig(coupling=coupling)  # grid_extent 20
    with pytest.raises(ValidationError, match="out of range"):
        simulate_weak_measurement(plus_state(), proj0(), i_state(), cfg)


def test_degenerate_postselection():
    zero, one = basis_state(2, 0), basis_state(2, 1)
    with pytest.raises(DegeneratePostselectionError):
        simulate_weak_measurement(zero, proj0(), one, PointerConfig(coupling=0.2))


def test_non_projector_rejected():
    not_proj = LinearOperator(np.array([[0.5, 0], [0, 0.5]], dtype=complex))
    with pytest.raises(ValidationError):
        simulate_weak_measurement(plus_state(), not_proj, i_state(), PointerConfig())
    not_herm = LinearOperator(np.array([[1, 1], [0, 0]], dtype=complex))
    with pytest.raises(ValidationError):
        simulate_weak_measurement(plus_state(), not_herm, i_state(), PointerConfig())


# ---------------------------------------------------------------------------
# the continuous Gaussian pointer in closed form


def _closed_form(psi, a_proj, b, sigma, g):
    """prob, <x> prob and <p> prob of the pointer c_r phi(x) + c_p phi(x - g) on the whole line.

    With O = exp(-g^2 / (8 sigma^2)), the overlap of phi and its shift, and
    X = c_r* c_p: prob = |c_r|^2 + |c_p|^2 + 2 O Re X,
    <x> prob = g (|c_p|^2 + O Re X) and <p> prob = (g / (2 sigma^2)) O Im X.
    """
    c_p = complex(np.vdot(b.amplitudes, a_proj.matrix @ psi.amplitudes))  # <b|P|psi>
    c_r = complex(np.vdot(b.amplitudes, psi.amplitudes)) - c_p
    o, x = math.exp(-g * g / (8.0 * sigma * sigma)), c_r.conjugate() * c_p
    return np.array([abs(c_r) ** 2 + abs(c_p) ** 2 + 2.0 * o * x.real, g * (abs(c_p) ** 2 + o * x.real),
                     g / (2.0 * sigma * sigma) * o * x.imag])


def _oracle_cases():
    """20 random (psi, P, b) at d = 2..6; P projects on the first 1..d-1 vectors of a random basis."""
    for i in range(20):
        d = 2 + i % 5
        frame = random_basis(d, seed=300 + i).matrix[:, : 1 + i % (d - 1)]
        yield random_state(d, seed=100 + i), LinearOperator(frame @ frame.conj().T), random_state(d, seed=200 + i)


# Largest |grid - closed form| over these cases in prob, <x> prob / sigma and <p> prob * sigma, both
# functions, 20 sigma grids (numpy 2.4, x86-64): 2.2e-16, 2.6e-11 and 3.2e-16 at 512 points; 2.2e-16,
# 2.3e-11 and 2.9e-16 at 65,536 over all 20 states.  <x> is bounded by the periodic grid, not by
# rounding: at g = 3 sigma the shifted Gaussian's tail past the edge weighs exp(-7^2 / 2) = 2.3e-11.
ORACLE_BOUNDS = (2 * EPS, 5e-11, 4 * EPS)


@pytest.mark.parametrize("grid_points, states", [(512, 20), (2**16, 5)])  # 2^16 points: one state per d, for time
def test_readouts_match_the_continuous_pointer_in_closed_form(grid_points, states):
    """sigma in {0.5, 1, 2} and g / sigma in {0.05, 0.3, 1, 3}, by simulation and by sweep."""
    worst = np.zeros(3)
    for psi, proj, b in itertools.islice(_oracle_cases(), states):
        for sigma in (0.5, 1.0, 2.0):
            cfg = PointerConfig(grid_points, 20.0 * sigma, sigma)
            couplings = [ratio * sigma for ratio in (0.05, 0.3, 1.0, 3.0)]
            scale = np.array([1.0, 1.0 / sigma, sigma])
            for g, point in zip(couplings, coupling_sweep(psi, proj, b, cfg, couplings)):
                exact = _closed_form(psi, proj, b, sigma, g)
                readout = simulate_weak_measurement(psi, proj, b, PointerConfig(grid_points, 20.0 * sigma, sigma, g))
                simulated = np.array([1.0, readout.mean_x, readout.mean_p]) * readout.postselect_prob
                swept = np.array([1.0, g * point.estimate.real, 2.0 * g * cfg.momentum_variance * point.estimate.imag])
                for moments in (simulated, swept * point.postselect_prob):
                    worst = np.maximum(worst, abs(moments - exact) * scale)
    assert (worst <= ORACLE_BOUNDS).all(), worst


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_direct_state_measurement_reconstructs_the_state_to_order_g_squared(dim):
    """table[a, b] = weak value x post-selection probability of P_a between psi and |b> (Lundeen et al. 2011).

    By the closed form each cell is O T[a, b] + (1 - O) |<b|a>|^2 |<a|psi>|^2 for
    the KD table T: the row sums are the Born probabilities at every g, and
    the inverse is O rho + (1 - O) diag(rho), off rho by (1 - O) ~ g^2 / (8 sigma^2).
    """
    psi = random_state(dim, seed=dim + 30)
    rho = make_pure_density(psi)
    a, b = computational_basis(dim), random_basis(dim, seed=dim + 31)
    cfg = PointerConfig()
    tables = np.empty((2, dim, dim), dtype=complex)  # at g = 0.2 sigma and 0.05 sigma
    for i in range(dim):
        proj = LinearOperator(a.projector(i))
        for j in range(dim):
            for table, point in zip(tables, coupling_sweep(psi, proj, b.vector(j), cfg, [0.2, 0.05])):
                table[i, j] = point.estimate * point.postselect_prob
    errors = []
    for g, table in zip((0.2, 0.05), tables):
        dist = KDDistribution(a, b, Ordering.AB, table)  # the default tolerances accept it
        assert np.abs(kd_marginal_a(dist) - abs(psi.amplitudes) ** 2).max() <= 8 * EPS  # measured 4 eps
        estimate = kd_inverse(dist).matrix
        errors.append(np.linalg.norm(estimate - rho.matrix))
        # the closed form as an identity; basis a is computational, so diag_a(rho) is rho's diagonal.
        # largest entry off it, over d in {2, 3, 5}, 5 random states and bases each and both couplings: 5.1e-14
        overlap = math.exp(-(g**2) / (8 * cfg.sigma**2))
        exact = overlap * rho.matrix + (1 - overlap) * np.diag(np.diag(rho.matrix))
        assert np.abs(estimate - exact).max() <= 1e-12
    assert errors[1] * 10 <= errors[0], errors
