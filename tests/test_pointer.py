"""Pointer-simulation tests: exact limits, first-order recovery, convergence."""

import decimal
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kdq import (
    DegeneratePostselectionError,
    KDDistribution,
    LinearOperator,
    Ordering,
    PointerConfig,
    PointerReadout,
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
from kdq.cli import main

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


def test_config_accepts_a_grid_of_any_size():
    # 2**40 points would take 16 TiB per sampled array; the readout allocates none
    args = (plus_state(), proj0(), i_state())
    assert simulate_weak_measurement(*args, PointerConfig(grid_points=2**40)) == simulate_weak_measurement(
        *args, PointerConfig(grid_points=16))


@pytest.mark.parametrize("points", [2**24, 2**40])  # a sampled sweep over 1 GiB, and 16 TiB per array
def test_cli_prints_the_same_sweep_at_every_grid_size(capsys, points):
    argv = ["weak", "--state", str(FIXTURES / "state_plus_d2.json"), "--a-index", "0", "--basis-a", "computational",
            "--b-index", "0", "--basis-b", "hadamard2", "--couplings", "0.1,-0.3"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    tracemalloc.start()
    try:
        code = main([*argv, "--grid-points", str(points)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr() == expected
    assert peak < 1 << 20


def test_sweep_allocates_no_grid():
    n = 2**16
    args = (i_state(), proj0(), basis_state(2, 0), PointerConfig(grid_points=n), [0.1, 0.2, 0.4])
    coupling_sweep(*args)
    tracemalloc.start()
    try:
        coupling_sweep(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n // 64  # one sampled complex array would take 16 n bytes


def test_config_rejects_small_extent():
    with pytest.raises(ValidationError):
        PointerConfig(grid_extent=4.0, sigma=1.0)


@pytest.mark.parametrize("prob", [-1e-9, 1.5, float("nan")], ids=["negative", "above-1", "nan"])
def test_readout_refuses_a_probability_outside_0_1(prob):
    with pytest.raises(ValidationError, match=re.escape(f"post-selection probability {prob!r} outside [0, 1]")):
        PointerReadout(0.0, 0.0, prob, 0.1)


@pytest.mark.parametrize("coupling", [float("inf"), -float("inf"), float("nan")], ids=["inf", "-inf", "nan"])
def test_config_refuses_a_non_finite_coupling(coupling):
    with pytest.raises(ValidationError, match="coupling must be a finite number"):
        PointerConfig(coupling=coupling)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"grid_points": 16.0}, "grid_points must be an integer >= 16, got 16.0"),
        ({"sigma": "1"}, "sigma must be a finite positive number, got '1'"),
        ({"sigma": True}, "sigma must be a finite positive number, got True"),
        ({"grid_extent": None}, "grid_extent must be a finite positive number, got None"),
        ({"coupling": "0.1"}, "coupling must be a finite number, got '0.1'"),
    ],
    ids=["grid-points-float", "sigma-str", "sigma-bool", "grid-extent-none", "coupling-str"],
)
def test_config_refuses_a_value_of_the_wrong_kind(kwargs, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        PointerConfig(**kwargs)


@pytest.mark.parametrize(
    "grid_extent, sigma, name",
    [
        (1e202, 1e200, "sigma"),  # sigma^2 overflows: ** raised OverflowError
        (2.8e155, 1.4e154, "sigma"),
        (2.6e155, 1.3e154, "sigma"),  # sigma^2 finite, 1/(4 sigma^2) subnormal
        (2e-319, 1e-320, "sigma"),  # sigma^2 underflows to 0
        (1e-158, 1e-160, "sigma"),
    ],
)
def test_config_refuses_scales_outside_the_normal_float_range(grid_extent, sigma, name):
    value = {"sigma": sigma, "grid_extent": grid_extent}[name]
    with pytest.raises(ValidationError, match=re.escape(f"{name} {value!r} is out of range")) as err:
        PointerConfig(512, grid_extent, sigma, 0.1)
    assert err.value.context == {name: value}


@pytest.mark.parametrize("grid_extent, sigma", [(2.7e154, 3e153), (1e200, 1.0)])
def test_config_accepts_extents_whose_square_overflows(grid_extent, sigma):
    # no position is squared, so a finite extent over 8 sigma is all a config needs
    cfg = PointerConfig(512, grid_extent, sigma, 0.1 * sigma)
    narrow = PointerConfig(512, 9 * sigma, sigma, 0.1 * sigma)
    assert simulate_weak_measurement(plus_state(), proj0(), i_state(), cfg) == simulate_weak_measurement(
        plus_state(), proj0(), i_state(), narrow)


@pytest.mark.parametrize("grid_extent, sigma", [(1.3e-153, 1.5e-154), (2.65e154, 3.3e153), (2.68e154, 1.0)])
def test_config_accepts_scales_at_the_edges_of_the_range(grid_extent, sigma):
    cfg = PointerConfig(16, grid_extent, sigma, 0.1)
    assert np.isfinite(cfg.momentum_variance) and cfg.momentum_variance >= np.finfo(float).tiny
    readout = simulate_weak_measurement(plus_state(), proj0(), i_state(), PointerConfig(16, grid_extent, sigma, sigma))
    assert np.isfinite([readout.mean_x, readout.mean_p]).all()
    assert np.isfinite(weak_value_estimate(readout, cfg))


def test_config_grid_helpers():
    # the grid is validated and kept, as --grid-points and --grid-extent, but nothing samples it
    cfg = PointerConfig()
    assert (cfg.grid_points, cfg.grid_extent, cfg.sigma) == (512, 20.0, 1.0)
    assert cfg.momentum_variance == pytest.approx(0.25)
    assert not any(hasattr(cfg, name) for name in ("dx", "positions", "momenta"))


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
    # the sweep and the simulation share one readout, so they agree bit for bit at any grid size
    cfg = PointerConfig(grid_points=n)
    couplings = [0.4, 0.2, 0.1, 0.05, 0.02]
    points = coupling_sweep(plus_state(), proj0(), i_state(), cfg, couplings)
    for g, point in zip(couplings, points):
        readout = simulate_weak_measurement(plus_state(), proj0(), i_state(), PointerConfig(grid_points=n, coupling=g))
        assert point.estimate == weak_value_estimate(readout, cfg)
        assert point.postselect_prob == readout.postselect_prob


def test_sweep_validates_its_projector_once(monkeypatch):
    # at d=512 each validation takes two d x d products, about 17 ms, and a sweep took 8 of them for 8 couplings
    import kdq.pointer

    calls = []
    validate = kdq.pointer._validate_projector
    monkeypatch.setattr(kdq.pointer, "_validate_projector", lambda proj: calls.append(proj) or validate(proj))
    coupling_sweep(plus_state(), proj0(), i_state(), PointerConfig(), [0.2, 0.1, 0.05, -0.1])
    assert len(calls) == 1


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


def _moments(readout):
    """prob, <x> prob and <p> prob of a readout, as ``_closed_form`` gives them."""
    return np.array([1.0, readout.mean_x, readout.mean_p]) * readout.postselect_prob


def test_coupling_below_the_old_grid_spacing_is_read_out():
    # 0.01 is below the default grid's spacing 20/512, which used to refuse it
    readout = simulate_weak_measurement(plus_state(), proj0(), i_state(), PointerConfig(coupling=0.01))
    assert _moments(readout) == pytest.approx(_closed_form(plus_state(), proj0(), i_state(), 1.0, 0.01), rel=4 * EPS)


@pytest.mark.parametrize("coupling", [10.0, -10.0, 1e300])
def test_coupling_of_half_the_extent_and_beyond_is_read_out(coupling):
    # a periodic grid of extent 20 could not tell these shifts from smaller ones; the continuous pointer can.
    # At 1e300 the overlap O is 0.0, and <p> = g O Im X / (2 sigma^2 prob) must read 0.0, not inf * 0.0
    psi = random_state(2, seed=7)
    readout = simulate_weak_measurement(psi, proj0(), plus_state(), PointerConfig(coupling=coupling))
    assert _moments(readout) == pytest.approx(_closed_form(psi, proj0(), plus_state(), 1.0, coupling), rel=4 * EPS)
    assert (readout.mean_p == 0.0) == (coupling == 1e300)


@pytest.mark.parametrize("coupling, sigma", [(1e-320, 1.0), (-1e-320, 1.0), (1e-167, 1e153), (2e-308, 2.0)])
def test_coupling_the_estimate_cannot_divide_by_is_refused(coupling, sigma):
    # the estimate divides by g and by 2 g Var_p = g / (2 sigma^2): both must be normal floats
    cfg = PointerConfig(sigma=sigma, grid_extent=20 * sigma, coupling=coupling)
    message = f"coupling {coupling:g} ({coupling / sigma:g} sigma) is out of range"
    with pytest.raises(ValidationError, match=re.escape(message)) as err:
        simulate_weak_measurement(plus_state(), proj0(), i_state(), cfg)
    assert err.value.context == {"coupling": coupling, "sigma": sigma}


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


def _grid_moments(psi, a_proj, b, grid_points, grid_extent, sigma, g):
    """prob, <x> prob and <p> prob of the pointer sampled on a periodic grid: the independent reference.

    Positions run over [-grid_extent/2, grid_extent/2); the shift by g is a
    phase in the momentum representation, exact on the grid, and <p> is
    read off the FFT of the conditioned pointer.
    """
    dx = grid_extent / grid_points
    x = (np.arange(grid_points) - grid_points // 2) * dx
    k = 2.0 * np.pi * np.fft.fftfreq(grid_points, d=dx)
    phi = np.exp(-(x**2) / (4.0 * sigma**2)).astype(np.complex128)
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * dx)
    c_p = complex(np.vdot(b.amplitudes, a_proj.matrix @ psi.amplitudes))
    c_r = complex(np.vdot(b.amplitudes, psi.amplitudes)) - c_p
    chi = c_p * np.fft.ifft(np.fft.fft(phi) * np.exp(-1j * k * g)) + c_r * phi
    weights = np.abs(chi) ** 2
    prob = np.sum(weights) * dx
    spectral = np.abs(np.fft.fft(chi)) ** 2
    return np.array([prob, np.sum(x * weights) * dx, prob * np.sum(k * spectral) / np.sum(spectral)])


# Largest |readout - grid| over these cases in prob, <x> prob / sigma and <p> prob * sigma, by
# simulation and by sweep, 20 sigma grids (numpy 2.4, x86-64): 3.3e-16, 2.6e-11 and 2.9e-16 at 512
# points; 2.2e-16, 7.0e-12 and 2.5e-16 at 65,536 over the first 5 states.  <x> is bounded by the
# periodic grid, not by rounding: at g = 3 sigma the shifted Gaussian's tail past the edge weighs
# exp(-7^2 / 2) = 2.3e-11.  Against ``_closed_form``, which sums through c_r, the readouts differ
# by at most 3 eps.
ORACLE_BOUNDS = (2 * EPS, 5e-11, 4 * EPS)


@pytest.mark.parametrize("grid_points, states", [(512, 20), (2**16, 5)])  # 2^16 points: one state per d, for time
def test_readouts_match_the_continuous_pointer_in_closed_form(grid_points, states):
    """sigma in {0.5, 1, 2} and g / sigma in {0.05, 0.3, 1, 3}, by simulation and by sweep.

    The readouts must match the sampled pointer within ``ORACLE_BOUNDS``,
    and the closed form as ``_closed_form`` writes it within rounding.
    """
    worst, worst_formula = np.zeros(3), np.zeros(3)
    for psi, proj, b in itertools.islice(_oracle_cases(), states):
        for sigma in (0.5, 1.0, 2.0):
            cfg = PointerConfig(grid_points, 20.0 * sigma, sigma)
            couplings = [ratio * sigma for ratio in (0.05, 0.3, 1.0, 3.0)]
            scale = np.array([1.0, 1.0 / sigma, sigma])
            for g, point in zip(couplings, coupling_sweep(psi, proj, b, cfg, couplings)):
                grid = _grid_moments(psi, proj, b, grid_points, 20.0 * sigma, sigma, g)
                formula = _closed_form(psi, proj, b, sigma, g)
                readout = simulate_weak_measurement(psi, proj, b, PointerConfig(grid_points, 20.0 * sigma, sigma, g))
                swept = np.array([1.0, g * point.estimate.real, 2.0 * g * cfg.momentum_variance * point.estimate.imag])
                for moments in (_moments(readout), swept * point.postselect_prob):
                    worst = np.maximum(worst, abs(moments - grid) * scale)
                    worst_formula = np.maximum(worst_formula, abs(moments - formula) * scale)
    assert (worst <= ORACLE_BOUNDS).all(), worst
    assert (worst_formula <= 4 * EPS).all(), worst_formula


@pytest.mark.parametrize("tilt", [1e-1, 3e-2, 1e-2])
def test_readouts_keep_their_digits_where_the_post_selection_nearly_annihilates_the_state(tilt):
    """prob down to 1.5e-4: |c_r|^2 + |c_p|^2 + 2 O Re X cancels there, and lost 8-614 eps relative.

    The reference is the closed form in 50-digit decimals on the same float
    amplitudes; the readouts, which go through <b|psi> and 1 - O, stayed
    within 13 eps (relative) of it.
    """
    theta, g = 0.3, 0.05
    psi = StateVector(np.array([math.cos(theta), math.sin(theta)]))
    b = StateVector(np.array([math.sin(theta + tilt), -math.cos(theta + tilt)]))
    readout = simulate_weak_measurement(psi, proj0(), b, PointerConfig(coupling=g))
    with decimal.localcontext(prec=50):
        (a0, a1), (b0, b1) = (map(decimal.Decimal, v.amplitudes.real) for v in (psi, b))
        c_p, c_r = b0 * a0, b1 * a1
        o = (-decimal.Decimal(g) ** 2 / 8).exp()
        prob = c_r * c_r + c_p * c_p + 2 * o * c_r * c_p
        mean_x = decimal.Decimal(g) * (c_p * c_p + o * c_r * c_p) / prob
        for got, exact in ((readout.postselect_prob, prob), (readout.mean_x, mean_x)):
            assert abs(decimal.Decimal(got) - exact) <= 32 * decimal.Decimal(EPS) * abs(exact), (got, exact)
    assert readout.mean_p == 0.0  # real amplitudes: Im X = 0


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
