"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and never loosened; a red line means the
criterion is genuinely not met.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from kdq import (
    Ordering,
    check_condition1,
    check_condition2,
    check_condition3,
    computational_basis,
    conditional_weak_value,
    discrete_wigner,
    double_slit_state,
    fourier_basis,
    kd_inverse,
    kd_rep,
    kd_transform,
    LinearOperator,
    make_condition2_violator,
    make_pure_density,
    mixed_rep,
    PointerConfig,
    position_marginal,
    random_basis,
    random_density,
    simulate_weak_measurement,
    span_residual,
    StateVector,
    total_probability,
    product_trace,
    weak_value_estimate,
    wigner_as_rep,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
DIMS = range(2, 9)


def _line(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")


def _born(basis, rho):
    return np.real(np.diagonal(basis.matrix.conj().T @ rho.matrix @ basis.matrix))


def test_criterion_01_marginals_match_born_rule():
    bound = 1e-10
    start = time.monotonic()
    worst = 0.0
    for dim in DIMS:
        comp, four = computational_basis(dim), fourier_basis(dim)
        for k in range(1000):
            rho = random_density(dim, 1 + k % dim, seed=10_000 * dim + k)
            if k < 500:
                a, b = comp, four
            else:
                a = random_basis(dim, seed=20_000 * dim + k)
                b = random_basis(dim, seed=30_000 * dim + k)
            dist = kd_transform(rho, a, b)
            worst = max(worst, float(np.abs(dist.table.sum(axis=1).real - _born(a, rho)).max()))
            worst = max(worst, float(np.abs(dist.table.sum(axis=0).real - _born(b, rho)).max()))
    elapsed = time.monotonic() - start
    passed = worst <= bound and elapsed <= 10.0
    _line(
        "criterion 1 (marginals)",
        passed,
        f"worst deviation {worst:.3e} (bound {bound:g}), {elapsed:.1f}s over dims 2-8",
    )
    assert worst <= bound
    assert elapsed <= 10.0


def test_criterion_02_eigenstate_delta_structure():
    bound = 1e-12
    worst = 0.0
    for dim in DIMS:
        pairs = [
            (computational_basis(dim), fourier_basis(dim)),
            (random_basis(dim, seed=41 * dim), random_basis(dim, seed=43 * dim)),
        ]
        for a, b in pairs:
            report = check_condition2(kd_rep(a, b), tol=bound)
            worst = max(worst, report.worst_violation)
    passed = worst <= bound
    _line("criterion 2 (eigenstate definiteness)", passed, f"worst {worst:.3e} (bound {bound:g})")
    assert passed


def test_criterion_03_orthogonality_zeros():
    bound = 1e-12
    worst = 0.0
    for dim in DIMS:
        a, b = computational_basis(dim), fourier_basis(dim)
        report = check_condition3(kd_rep(a, b), tol=bound)
        worst = max(worst, report.worst_violation)
        a2, b2 = random_basis(dim, seed=47 * dim), random_basis(dim, seed=53 * dim)
        report = check_condition3(kd_rep(a2, b2), tol=bound)
        worst = max(worst, report.worst_violation)
    passed = worst <= bound
    _line(
        "criterion 3 (orthogonality zeros)",
        passed,
        f"worst compression {worst:.3e} (bound {bound:g})",
    )
    assert passed


def test_criterion_04_uniqueness_span_and_violator():
    span_bound = 1e-10
    a, b = computational_basis(4), fourier_basis(4)
    worst_member = 0.0
    for rep in (
        kd_rep(a, b, Ordering.AB),
        kd_rep(a, b, Ordering.BA),
        *[mixed_rep(a, b, lam) for lam in (0.0, 0.25, 0.5, 0.75, 1.0)],
    ):
        res = span_residual(rep)
        worst_member = max(worst_member, float(res.residuals[~res.degenerate].max()))
    violator = make_condition2_violator(a, b, 0.1)
    violator_residual = float(span_residual(violator).residuals.max())
    violator_c2 = check_condition2(violator, tol=1e-10)
    violator_c1 = check_condition1(violator, tol=1e-10)
    passed = (
        worst_member <= span_bound
        and violator_residual >= 1e-2
        and not violator_c2.passed
        and violator_c1.passed
    )
    _line(
        "criterion 4 (uniqueness/span)",
        passed,
        f"member residual {worst_member:.3e} (bound {span_bound:g}); "
        f"violator residual {violator_residual:.3e} (>= 1e-2), "
        f"C2 {'fails' if not violator_c2.passed else 'passes'}, "
        f"C1 {'passes' if violator_c1.passed else 'fails'}",
    )
    assert worst_member <= span_bound
    assert violator_residual >= 1e-2
    assert not violator_c2.passed
    assert violator_c1.passed


def test_criterion_05_total_probability_decomposition():
    bound = 1e-10
    worst = 0.0
    count = 0
    for dim in range(2, 7):
        a, b = computational_basis(dim), fourier_basis(dim)
        for k in range(100):
            rng = np.random.default_rng(70_000 + 100 * dim + k)
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            m_op = LinearOperator(np.outer(v, v.conj()))
            rho = random_density(dim, 1 + k % dim, seed=80_000 + 100 * dim + k)
            decomposed = total_probability(m_op, rho, a, b)
            direct = product_trace(m_op, rho)
            worst = max(worst, abs(decomposed - direct))
            count += 1
    passed = worst <= bound and count == 500
    _line(
        "criterion 5 (total probability)",
        passed,
        f"worst |decomposed - direct| {worst:.3e} over {count} pairs (bound {bound:g})",
    )
    assert passed


def test_criterion_06_reconstruction_round_trip():
    bound = 1e-9
    worst = 0.0
    for dim in DIMS:
        a, b = computational_basis(dim), fourier_basis(dim)
        for k in range(1000):
            rho = random_density(dim, 1 + k % dim, seed=90_000 * dim + k)
            rec = kd_inverse(kd_transform(rho, a, b))
            worst = max(worst, float(np.linalg.norm(rec.matrix - rho.matrix)))
    passed = worst <= bound
    _line(
        "criterion 6 (reconstruction)",
        passed,
        f"worst Frobenius error {worst:.3e} over 1000 states/dim, dims 2-8 (bound {bound:g})",
    )
    assert passed


def test_criterion_07_ordering_conjugation():
    bound = 1e-12
    worst = 0.0
    for dim in DIMS:
        for k in range(50):
            a = random_basis(dim, seed=55_000 + 50 * dim + k)
            b = random_basis(dim, seed=56_000 + 50 * dim + k)
            rho = random_density(dim, 1 + k % dim, seed=57_000 + 50 * dim + k)
            ab = kd_transform(rho, a, b, Ordering.AB)
            ba = kd_transform(rho, a, b, Ordering.BA)
            worst = max(worst, float(np.abs(ba.table - ab.table.conj()).max()))
    passed = worst <= bound
    _line("criterion 7 (ordering conjugation)", passed, f"worst {worst:.3e} (bound {bound:g})")
    assert passed


def test_criterion_08_wigner_double_slit_violation():
    rho = make_pure_density(double_slit_state(5, 1, 3))
    marg_mid = float(position_marginal(rho)[2])
    w_mid = float(discrete_wigner(rho).table[2, 0])
    kd_row = float(
        np.abs(kd_transform(rho, computational_basis(5), fourier_basis(5)).table[2, :]).max()
    )
    rep = wigner_as_rep(5)
    c3 = check_condition3(rep, tol=1e-10)
    c1 = check_condition1(rep, tol=1e-10)
    passed = (
        marg_mid <= 1e-12
        and abs(w_mid - 0.2) <= 1e-12
        and kd_row <= 1e-12
        and not c3.passed
        and c1.passed
    )
    _line(
        "criterion 8 (double-slit contrast)",
        passed,
        f"marginal(q=2) {marg_mid:.1e}, W(2,0) {w_mid:.12f} (=0.2), joint-table row max "
        f"{kd_row:.1e}; phase-space family C3 {'fails' if not c3.passed else 'passes'} "
        f"(violation {c3.worst_violation:.3f}), C1 {'passes' if c1.passed else 'fails'}",
    )
    assert marg_mid <= 1e-12
    assert abs(w_mid - 0.2) <= 1e-12
    assert kd_row <= 1e-12
    assert not c3.passed
    assert c1.passed


def test_criterion_09_weak_value_convergence():
    start = time.monotonic()
    plus = StateVector(np.array([1, 1]) / np.sqrt(2))
    i_state = StateVector(np.array([1, 1j]) / np.sqrt(2))
    proj0 = LinearOperator(np.array([[1, 0], [0, 0]], dtype=complex))
    exact = conditional_weak_value(proj0, plus, i_state)
    gs = [0.2, 0.1, 0.05]
    errs = []
    for g in gs:
        readout = simulate_weak_measurement(plus, proj0, i_state, PointerConfig(coupling=g))
        errs.append(abs(weak_value_estimate(readout, PointerConfig()) - exact))
    order = float(np.polyfit(np.log(gs), np.log(errs), 1)[0])
    final_err = errs[-1]
    # time-direction link: the momentum response inverts with the coupling,
    # so the imaginary part read in the fixed forward convention flips sign
    # while the direction-insensitive real part is unchanged
    var_p = PointerConfig().momentum_variance
    fwd = simulate_weak_measurement(plus, proj0, i_state, PointerConfig(coupling=0.1))
    rev = simulate_weak_measurement(plus, proj0, i_state, PointerConfig(coupling=-0.1))
    im_fwd = fwd.mean_p / (2 * 0.1 * var_p)
    im_rev = rev.mean_p / (2 * 0.1 * var_p)
    re_fwd = fwd.mean_x / 0.1
    re_rev = rev.mean_x / -0.1
    sign_flip = im_fwd > 0.1 and im_rev < -0.1 and abs(im_rev + im_fwd) <= 1e-10
    re_stable = abs(re_rev - re_fwd) <= 1e-10
    elapsed = time.monotonic() - start
    passed = (
        exact == (0.5 + 0.5j)
        and order >= 1.8
        and final_err <= 0.01
        and sign_flip
        and re_stable
        and elapsed <= 5.0
    )
    _line(
        "criterion 9 (weak-value convergence)",
        passed,
        f"exact {exact}, fitted order {order:.2f} (>= 1.8), final error {final_err:.2e} "
        f"(<= 0.01), imaginary response {im_fwd:+.3f} -> {im_rev:+.3f} under g -> -g, "
        f"{elapsed:.1f}s",
    )
    assert exact == 0.5 + 0.5j
    assert order >= 1.8
    assert final_err <= 0.01
    assert sign_flip and re_stable
    assert elapsed <= 5.0


def _run(*argv):
    return subprocess.run(
        [sys.executable, "-m", "kdq", *argv], capture_output=True, text=True, cwd=str(ROOT)
    )


def test_criterion_10_cli_end_to_end(tmp_path):
    checks = []

    # criterion 1 via CLI: joint table of a shipped fixture has Born marginals
    proc = _run(
        "kd", "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational", "--basis-b", "hadamard2",
    )
    doc = json.loads(proc.stdout)
    checks.append(("kd fixture exit 0", proc.returncode == 0))
    checks.append(
        ("kd fixture marginals", np.allclose(doc["marginal_a"], [0.5, 0.5], atol=1e-12))
    )
    checks.append(
        ("kd fixture cell (0,0) = (1-i)/4",
         abs(complex(*doc["table"][0][0]) - (0.25 - 0.25j)) <= 1e-12)
    )
    proc = _run(
        "audit", "--rep", "kd", "--dim", "8",
        "--basis-a", "computational", "--basis-b", "fourier", "--c1",
    )
    checks.append(("audit kd --c1 exit 0", proc.returncode == 0))

    # criterion 4 via CLI: violator passes C1, fails C2 and span, exit 1
    proc = _run(
        "audit", "--rep", "violator:0.1", "--dim", "4",
        "--basis-a", "computational", "--basis-b", "fourier", "--c1", "--c2", "--span",
    )
    by_cond = {r["condition"]: r for r in map(json.loads, proc.stdout.strip().splitlines())}
    checks.append(("violator exit 1", proc.returncode == 1))
    checks.append(("violator C1 passes", by_cond["C1"]["passed"]))
    checks.append(("violator C2 fails", not by_cond["C2"]["passed"]))
    checks.append(("violator span >= 1e-2", by_cond["Span"]["worst_violation"] >= 1e-2))

    # criterion 8 via CLI: double-slit report and the failing phase-space audit
    proc = _run("wigner", "--state", str(FIXTURES / "state_doubleslit_d5.json"), "--report")
    doc = json.loads(proc.stdout)
    hit = any(v["q"] == 2 and v["p"] == 0 and abs(v["value"] - 0.2) <= 1e-12
              for v in doc["violations"])
    checks.append(("wigner report exit 0", proc.returncode == 0))
    checks.append(("wigner report contains (2,0,0.2)", hit))
    proc = _run("audit", "--rep", "wigner", "--dim", "5", "--c1", "--c3")
    by_cond = {r["condition"]: r for r in map(json.loads, proc.stdout.strip().splitlines())}
    checks.append(("wigner audit exit 1", proc.returncode == 1))
    checks.append(("wigner C1 passes / C3 fails",
                   by_cond["C1"]["passed"] and not by_cond["C3"]["passed"]))

    # criterion 9 via CLI: shipped sweep reaches 1e-2 accuracy
    proc = _run(
        "weak", "--state", str(FIXTURES / "state_plus_d2.json"),
        "--a-index", "0", "--basis-a", "computational",
        "--b-index", "0", "--basis-b", f"@{FIXTURES / 'basis_circular_d2.json'}",
        "--couplings", "0.2,0.1,0.05",
    )
    rows = proc.stdout.strip().splitlines()
    final = rows[-1].split(",")
    checks.append(("weak sweep exit 0", proc.returncode == 0))
    checks.append(("weak sweep final error <= 0.01", float(final[5]) <= 0.01))
    checks.append(("weak sweep exact = (0.5, 0.5)",
                   float(final[3]) == 0.5 and float(final[4]) == 0.5))

    # documented failure exit codes
    kd_cc = _run(
        "kd", "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational", "--basis-b", "computational",
    )
    kd_file = tmp_path / "cc.json"
    kd_file.write_text(kd_cc.stdout)
    proc = _run("reconstruct", "--kd", str(kd_file))
    checks.append(("reconstruct singular overlap exit 3", proc.returncode == 3))
    proc = _run(
        "weak", "--state", str(FIXTURES / "state_zero_d2.json"),
        "--a-index", "0", "--basis-a", "computational",
        "--b-index", "1", "--basis-b", "computational", "--couplings", "0.2",
    )
    checks.append(("weak degenerate postselection exit 4", proc.returncode == 4))
    proc = _run(
        "kd", "--state", str(FIXTURES / "state_doubleslit_d5.json"),
        "--basis-a", "hadamard2", "--basis-b", "fourier",
    )
    checks.append(("kd dimension mismatch exit 2", proc.returncode == 2))

    passed = all(ok for _, ok in checks)
    failed = [name for name, ok in checks if not ok]
    _line(
        "criterion 10 (CLI end-to-end)",
        passed,
        f"{sum(ok for _, ok in checks)}/{len(checks)} command checks"
        + (f"; failed: {failed}" if failed else ""),
    )
    assert passed, f"failed command checks: {failed}"
