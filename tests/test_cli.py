"""CLI behavior: outputs, exit codes, and error objects.

Most invocations run in-process through ``main`` for speed; one subprocess
test checks the ``python -m kdq`` entry point end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kdq.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kd_fixture_cell_and_marginals(capsys):
    code, out, _ = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational",
        "--basis-b", "hadamard2",
    )
    assert code == 0
    doc = json.loads(out)
    re, im = doc["table"][0][0]
    assert abs(re - 0.25) <= 1e-12 and abs(im + 0.25) <= 1e-12
    assert np.allclose(doc["marginal_a"], [0.5, 0.5], atol=1e-12)
    assert doc["ordering"] == "AB"
    assert doc["schema"] == "kdq/1"


def test_kd_ba_ordering_conjugates(capsys):
    code, out, _ = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational",
        "--basis-b", "hadamard2",
        "--ordering", "BA",
    )
    assert code == 0
    re, im = json.loads(out)["table"][0][0]
    assert abs(re - 0.25) <= 1e-12 and abs(im - 0.25) <= 1e-12


def test_kd_mixed_state_all_real(capsys):
    code, out, _ = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_mixed_d2.json"),
        "--basis-a", "computational",
        "--basis-b", "fourier",
    )
    assert code == 0
    table = json.loads(out)["table"]
    assert max(abs(cell[1]) for row in table for cell in row) <= 1e-12


def test_kd_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational",
        "--basis-b", "fourier",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "a,b,re,im,marginal_a,marginal_b"


def test_kd_dim_mismatch_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_doubleslit_d5.json"),
        "--basis-a", "hadamard2",
        "--basis-b", "fourier",
    )
    assert code == 2
    assert json.loads(err)["code"] == "dim_mismatch"


def test_reconstruct_round_trip(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational",
        "--basis-b", "fourier",
    )
    assert code == 0
    kd_file = tmp_path / "kd.json"
    kd_file.write_text(out)
    code, out, _ = run_cli(capsys, "reconstruct", "--kd", str(kd_file))
    assert code == 0
    doc = json.loads(out)
    mat = np.array([[complex(p[0], p[1]) for p in row] for row in doc["data"]])
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.abs(mat - expected).max() <= 1e-9


def test_reconstruct_singular_overlap_exit_3(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "kd",
        "--state", str(FIXTURES / "state_i_d2.json"),
        "--basis-a", "computational",
        "--basis-b", "computational",
    )
    assert code == 0
    kd_file = tmp_path / "kd.json"
    kd_file.write_text(out)
    code, _, err = run_cli(capsys, "reconstruct", "--kd", str(kd_file))
    assert code == 3
    obj = json.loads(err)
    assert obj["code"] == "singular_overlap"
    assert {"a", "b"} <= set(obj["context"])


def test_reconstruct_corrupt_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(capsys, "reconstruct", "--kd", str(bad))
    assert code == 2
    assert json.loads(err)["code"] == "validation"


@pytest.mark.parametrize(
    "content",
    [
        b'{"schema": "kdq/1", "dim": 1, "kind": "pure", "data": [[1, 0]], "label": "\xff"}',
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["not-utf8", "nested-100000"],
)
def test_unreadable_state_file_exit_2(tmp_path, capsys, content):
    state = tmp_path / "state.json"
    state.write_bytes(content)
    argv = ["kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "computational"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert set(doc) == {"code", "message", "context"}
    assert doc["code"] == "validation"
    assert doc["message"].startswith("state file: invalid JSON in")


def test_audit_kd_all_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit", "--rep", "kd", "--dim", "4",
        "--basis-a", "computational", "--basis-b", "fourier", "--all",
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["condition"] for r in reports] == ["C1", "C2", "C3", "Span"]
    assert all(r["passed"] for r in reports)


def test_audit_violator_fails_c2_exit_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit", "--rep", "violator:0.1", "--dim", "4", "--c1", "--c2", "--span",
    )
    assert code == 1
    by_cond = {r["condition"]: r for r in map(json.loads, out.strip().splitlines())}
    assert by_cond["C1"]["passed"]
    assert not by_cond["C2"]["passed"]
    assert not by_cond["Span"]["passed"]
    assert by_cond["Span"]["worst_violation"] >= 1e-2


def test_audit_wigner_c3_fails_exit_1(capsys):
    code, out, _ = run_cli(capsys, "audit", "--rep", "wigner", "--dim", "5", "--c1", "--c3")
    assert code == 1
    by_cond = {r["condition"]: r for r in map(json.loads, out.strip().splitlines())}
    assert by_cond["C1"]["passed"]
    assert not by_cond["C3"]["passed"]


def test_audit_mixed_rep_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        "audit", "--rep", "mixed:0.5", "--dim", "3",
        "--basis-a", "computational", "--basis-b", "fourier", "--all",
    )
    assert code == 0


def test_audit_deterministic_given_seed(capsys):
    args = ["audit", "--rep", "kd", "--dim", "3", "--c3", "--seed", "11"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize(
    "spec, message",
    [
        ("bogus", "unknown representation spec 'bogus'"),
        ("mixed", "unknown representation spec 'mixed'"),
        ("mixed:", "bad mixture weight in 'mixed:'"),
        ("mixed:abc", "bad mixture weight in 'mixed:abc'"),
        ("violator:x", "bad epsilon in 'violator:x'"),
        ("kd:1", "unknown representation spec 'kd:1'"),
    ],
    ids=["bogus", "mixed", "mixed-empty", "mixed-abc", "violator-x", "kd-1"],
)
def test_audit_bad_rep_spec_exit_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "audit", "--rep", spec, "--dim", "2", "--all")
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["code"] == "validation"
    if message.startswith("unknown"):
        message += ": use kd, kd-ba, mixed:LAMBDA, violator:EPSILON, or wigner"
    assert doc["message"] == message


def test_audit_reaches_wrappers_installed_under_cli_names(capsys, monkeypatch):
    # the spec and check tables look kdq.cli's globals up at call time, so a
    # wrapper installed there (as the benchmark's tracer does) sees each call
    import kdq.cli

    calls = []
    for name in ("mixed_rep", "check_condition1", "check_span"):
        fn = getattr(kdq.cli, name)
        monkeypatch.setattr(kdq.cli, name, lambda *a, _fn=fn, _name=name, **k: calls.append(_name) or _fn(*a, **k))
    code, _, _ = run_cli(capsys, "audit", "--rep", "mixed:0.5", "--dim", "3", "--c1", "--span")
    assert code == 0
    assert calls == ["mixed_rep", "check_condition1", "check_span"]


def test_audit_negative_seed_exit_2(capsys):
    # C1 is printed before C3 refuses the seed
    code, out, err = run_cli(capsys, "audit", "--rep", "kd", "--dim", "2", "--c1", "--c3", "--seed", "-1")
    assert code == 2
    assert [json.loads(line)["condition"] for line in out.splitlines()] == ["C1"]
    doc = json.loads(err)
    assert doc["code"] == "validation"
    assert doc["message"] == "seed must be a non-negative integer, got -1"


def test_weak_sweep_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "weak",
        "--state", str(FIXTURES / "state_plus_d2.json"),
        "--a-index", "0",
        "--basis-a", "computational",
        "--b-index", "0",
        "--basis-b", f"@{FIXTURES / 'basis_circular_d2.json'}",
        "--couplings", "0.2,0.1,0.05",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,re_est,im_est,re_exact,im_exact,abs_err,postselect_prob"
    last = lines[-1].split(",")
    assert float(last[5]) <= 0.01
    assert float(last[3]) == pytest.approx(0.5)
    assert float(last[4]) == pytest.approx(0.5)


def test_weak_empty_couplings_header_only(capsys):
    code, out, _ = run_cli(
        capsys,
        "weak",
        "--state", str(FIXTURES / "state_plus_d2.json"),
        "--a-index", "0",
        "--basis-a", "computational",
        "--b-index", "0",
        "--basis-b", "hadamard2",
        "--couplings", "",
    )
    assert code == 0
    assert out.strip().splitlines() == ["g,re_est,im_est,re_exact,im_exact,abs_err,postselect_prob"]


def test_weak_degenerate_postselection_exit_4(capsys):
    code, _, err = run_cli(
        capsys,
        "weak",
        "--state", str(FIXTURES / "state_zero_d2.json"),
        "--a-index", "0",
        "--basis-a", "computational",
        "--b-index", "1",
        "--basis-b", "computational",
        "--couplings", "0.2",
    )
    assert code == 4
    assert json.loads(err)["code"] == "degenerate_postselection"


def test_weak_mixed_state_rejected(capsys):
    code, _, err = run_cli(
        capsys,
        "weak",
        "--state", str(FIXTURES / "state_mixed_d2.json"),
        "--a-index", "0",
        "--basis-a", "computational",
        "--b-index", "0",
        "--basis-b", "hadamard2",
        "--couplings", "0.2",
    )
    assert code == 2


def test_wigner_double_slit_report(capsys):
    code, out, _ = run_cli(
        capsys, "wigner", "--state", str(FIXTURES / "state_doubleslit_d5.json"), "--report"
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["table"][2][0] - 0.2) <= 1e-12
    assert any(
        v["q"] == 2 and v["p"] == 0 and abs(v["value"] - 0.2) <= 1e-12
        for v in doc["violations"]
    )


def test_wigner_report_csv_lists_the_violations(capsys):
    from kdq import condition3_violation_report, make_pure_density
    from kdq.io import load_state

    state = str(FIXTURES / "state_doubleslit_d5.json")
    code, table_csv, _ = run_cli(capsys, "wigner", "--state", state, "--format", "csv")
    assert code == 0
    code, out, _ = run_cli(capsys, "wigner", "--state", state, "--format", "csv", "--report")
    assert code == 0
    rows = condition3_violation_report(make_pure_density(load_state(state)))
    assert rows and any((q, p) == (2, 0) for q, p, _ in rows)
    assert out == table_csv + "q,p,value\n" + "".join(f"{q},{p},{w!r}\n" for q, p, w in rows)


def test_wigner_even_dim_exit_2(capsys):
    code, _, err = run_cli(capsys, "wigner", "--state", str(FIXTURES / "state_i_d2.json"))
    assert code == 2
    assert json.loads(err)["code"] == "even_dimension"


def test_wigner_mixed_uniform_empty_report(tmp_path, capsys):
    from kdq import maximally_mixed
    from kdq import io as kio

    state = tmp_path / "mixed3.json"
    state.write_text(json.dumps(kio.state_to_dict(maximally_mixed(3))))
    code, out, _ = run_cli(capsys, "wigner", "--state", str(state), "--report")
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["table"], np.full((3, 3), 1 / 9), atol=1e-12)
    assert doc["violations"] == []


def test_env_var_tolerance(tmp_path, capsys, monkeypatch):
    # a slightly denormalized state passes only when KDQ_TOL loosens validation
    doc = {
        "schema": "kdq/1",
        "dim": 2,
        "kind": "pure",
        "data": [[1.0000001, 0.0], [0.0, 0.0]],
    }
    state = tmp_path / "off.json"
    state.write_text(json.dumps(doc))
    argv = ["kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "fourier"]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 2
    monkeypatch.setenv("KDQ_TOL", "1e-3")
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


@pytest.mark.parametrize(
    "tol_args, env_tol",
    [(["--tol", "nan"], None), (["--tol", "inf"], None), (["--tol", "0"], None), (["--tol", "-1"], None), ([], "nan")],
    ids=["nan", "inf", "zero", "negative", "env-nan"],
)
def test_unusable_tolerance_exit_2(tmp_path, capsys, monkeypatch, tol_args, env_tol):
    # a nan or inf tolerance would accept this state of squared norm 9, and
    # nan, 0 or -1 would fail the audit on rounding noise
    if env_tol is not None:
        monkeypatch.setenv("KDQ_TOL", env_tol)
    state = tmp_path / "norm3.json"
    state.write_text(json.dumps({"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [[3.0, 0.0], [0.0, 0.0]]}))
    for argv in (
        ["kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "fourier"],
        ["audit", "--rep", "kd", "--dim", "3", "--all"],
    ):
        code, out, err = run_cli(capsys, *argv, *tol_args)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert "finite positive" in doc["message"]
        assert doc["context"]["source"] == ("KDQ_TOL" if env_tol else "--tol")


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [
            sys.executable, "-m", "kdq",
            "audit", "--rep", "kd", "--dim", "2",
            "--basis-a", "computational", "--basis-b", "hadamard2", "--c1",
        ],
        capture_output=True,
        text=True,
        cwd=str(FIXTURES.parent),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True


def test_reconstruct_tol_reaches_the_inverse(tmp_path, capsys):
    # a 1e-7 real perturbation with zero row and column sums keeps the
    # table loadable but makes the reconstructed matrix non-Hermitian
    from kdq import io as kio
    from kdq import random_density

    state = tmp_path / "rho3.json"
    state.write_text(json.dumps(kio.state_to_dict(random_density(3, 3, seed=4))))
    code, out, _ = run_cli(
        capsys, "kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "fourier"
    )
    assert code == 0
    doc = json.loads(out)
    for (a, b), sign in {(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}.items():
        doc["table"][a][b][0] += sign * 1e-7
    kd_file = tmp_path / "kd.json"
    kd_file.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "reconstruct", "--kd", str(kd_file))
    assert code == 2
    assert "not Hermitian" in json.loads(err)["message"]
    code, out, _ = run_cli(capsys, "reconstruct", "--kd", str(kd_file), "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["kind"] == "mixed"


def test_wigner_report_tol_judges_the_zero_marginal(tmp_path, capsys, monkeypatch):
    # slits at q=0 and q=4 (midpoint q=2) plus amplitude 10**-4.5 at q=2:
    # its occupation 1e-9 is nonzero at the default 1e-10, zero at 1e-8
    eps = 10**-4.5
    side = np.sqrt((1 - eps**2) / 2)
    amps = [[side, 0.0], [0.0, 0.0], [eps, 0.0], [0.0, 0.0], [side, 0.0]]
    state = tmp_path / "slits5.json"
    state.write_text(json.dumps({"schema": "kdq/1", "dim": 5, "kind": "pure", "data": amps}))

    def midpoint_listed(*extra):
        code, out, _ = run_cli(capsys, "wigner", "--state", str(state), "--report", *extra)
        assert code == 0
        return any(v["q"] == 2 for v in json.loads(out)["violations"])

    assert not midpoint_listed()
    assert midpoint_listed("--tol", "1e-8")
    monkeypatch.setenv("KDQ_TOL", "1e-8")
    assert midpoint_listed()
