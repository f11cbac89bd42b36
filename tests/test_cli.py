"""CLI behavior: outputs, exit codes, and error objects.

Most invocations run in-process through ``main`` for speed; subprocess tests
check the ``python -m kdq`` process end to end, which ends through
``kdq.cli.run`` in ``os._exit`` (``run`` is never called in-process, since it
would end the test process).
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize(
    "flags",
    [["--basis-a", "@no-such-basis.json"], ["--basis-b", "fourier"], ["--basis-a", "computational", "--basis-b", "fourier"]],
    ids=["missing-file", "basis-b", "both"],
)
def test_audit_wigner_refuses_basis_flags(capsys, flags):
    # the phase-point family comes with its own basis pair, so a basis flag cannot
    # apply to it: refused before anything runs, the named file never read
    code, out, err = run_cli(capsys, "audit", "--rep", "wigner", "--dim", "3", *flags, "--all")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "validation"
    assert "position and momentum" in doc["message"] and "--basis-a and --basis-b" in doc["message"]


def test_audit_term_reps_default_to_computational_and_fourier(capsys):
    for rep in ("kd", "violator:0.1"):
        _, explicit, _ = run_cli(capsys, "audit", "--rep", rep, "--dim", "4", "--all",
                                 "--basis-a", "computational", "--basis-b", "fourier")
        _, implied, _ = run_cli(capsys, "audit", "--rep", rep, "--dim", "4", "--all")
        assert implied == explicit and implied
    code, _, err = run_cli(capsys, "audit", "--rep", "kd", "--dim", "4", "--all", "--basis-a", "")
    assert code == 2 and json.loads(err)["code"] == "validation"  # an empty name is not the default


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
    # refused before the representation is built, so no check runs and no report is printed
    code, out, err = run_cli(capsys, "audit", "--rep", "kd", "--dim", "2", "--c1", "--c3", "--seed", "-1")
    assert (code, out) == (2, "")
    doc = json.loads(err)
    assert doc["code"] == "validation"
    assert doc["message"] == "seed must be a non-negative integer, got -1"


SEED_ERROR = {"code": "validation", "message": "seed must be a non-negative integer, got -1",
              "context": {"source": "seed"}}
SAMPLES_ERROR = {"code": "bad_sample_count", "message": "samples must be a positive integer, got 0",
                 "context": {"source": "samples"}}


@pytest.mark.parametrize(
    "argv, error",
    [
        (["kd", "--state", str(FIXTURES / "state_i_d2.json"), "--basis-a", "computational", "--basis-b", "fourier"],
         SEED_ERROR),
        (["kd", "--state", str(FIXTURES / "no_such_file.json"), "--basis-a", "computational", "--basis-b", "fourier"],
         SEED_ERROR),  # the flag is refused before the file is read
        (["reconstruct", "--kd", str(FIXTURES / "no_such_file.json")], SEED_ERROR),
        (["wigner", "--state", str(FIXTURES / "state_doubleslit_d5.json")], SEED_ERROR),
        (["weak", "--state", str(FIXTURES / "state_plus_d2.json"), "--a-index", "0", "--basis-a", "computational",
          "--b-index", "0", "--basis-b", "hadamard2", "--couplings", "0.1"], SEED_ERROR),
        (["audit", "--rep", "kd", "--dim", "2", "--c1"], SEED_ERROR),
        (["audit", "--rep", "kd", "--dim", "2", "--c1", "--samples", "0"], SAMPLES_ERROR),  # samples before seed
        (["audit", "--rep", "junk", "--dim", "2", "--c1", "--samples", "0"], SAMPLES_ERROR),  # before the spec
    ],
    ids=["kd", "kd-missing-file", "reconstruct-missing-file", "wigner", "weak", "audit-c1", "audit-c1-samples-0",
         "audit-bad-spec-samples-0"],
)
def test_every_command_refuses_a_negative_seed_or_no_samples(capsys, argv, error):
    # --seed and --samples are checked once, before the command runs, with C3's codes and contexts
    code, out, err = run_cli(capsys, *argv, "--seed", "-1")
    assert (code, out) == (2, "")
    assert json.loads(err) == error


def test_samples_zero_is_refused_with_a_valid_seed(capsys):
    code, out, err = run_cli(capsys, "audit", "--rep", "kd", "--dim", "2", "--c1", "--samples", "0")
    assert (code, out) == (2, "")
    assert json.loads(err) == SAMPLES_ERROR


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


WEAK_PLUS = ["weak", "--state", str(FIXTURES / "state_plus_d2.json"), "--a-index", "0", "--basis-a", "computational",
             "--b-index", "0", "--basis-b", "hadamard2"]
SWEEP_HEADER = "g,re_est,im_est,re_exact,im_exact,abs_err,postselect_prob"


@pytest.mark.parametrize("couplings", ["-0.1,0.2", "-1e-1", "-.5E0,1", "-1_0e-2", "-0.1"])
def test_negative_couplings_are_read_with_or_without_equals(capsys, couplings):
    # argparse alone took -0.1,0.2, -1e-1 and the like for unknown flags (exit 2), where --couplings=-0.1,0.2 ran
    joined = run_cli(capsys, *WEAK_PLUS, f"--couplings={couplings}")
    assert joined[0] == 0 and joined[2] == "", joined
    assert len(joined[1].splitlines()) == 1 + len(couplings.split(","))
    assert run_cli(capsys, *WEAK_PLUS, "--couplings", couplings) == joined


@pytest.mark.parametrize(
    "scale, name",
    [
        (["--sigma", "1.4e154"], "sigma 1.4e+154"),  # ended in an OverflowError traceback, exit 1
        (["--sigma", "1e200"], "sigma 1e+200"),
        (["--sigma", "1.3e154"], "sigma 1.3e+154"),  # ended in "post-selection probability nan"
        (["--sigma", "1e-320"], "sigma 1e-320"),
        # the last --couplings given is the one parsed; the estimate divides by g and by g / (2 sigma^2)
        (["--couplings", "1e-310"], "coupling 1e-310 (1e-310 sigma)"),
        (["--sigma", "1e153", "--couplings", "1e-300"], "coupling 1e-147 (1e-300 sigma)"),
    ],
)
def test_weak_out_of_range_scale_exit_2(capsys, scale, name):
    code, out, err = run_cli(capsys, *WEAK_PLUS, "--couplings", "0.1", *scale)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    doc = _strict_json(err)
    assert doc["code"] == "validation" and doc["message"].startswith(f"{name} is out of range")


@pytest.mark.parametrize(
    "scale",
    [
        ["--sigma", "1e153", "--grid-extent", "1000"],  # (extent/2)^2 overflowed the sampled positions
        ["--couplings", "1,2", "--sigma", "1.5e-154", "--grid-extent", "8.01", "--grid-points", "16"],
        ["--couplings", "1e300", "--sigma", "1.5e-154"],  # g / (2 sigma^2) overflows where the overlap is 0.0
        ["--couplings", "1e308"],
        ["--couplings", "1e300"],
        ["--couplings", "0.1,15"],
        ["--couplings", "-10"],
        ["--couplings", "0.01", "--sigma", "2"],  # below the spacing of the default grid
    ],
    ids=["extent-1e156", "sigma-1.5e-154", "sigma-1.5e-154-coupling-1e300", "coupling-1e308", "coupling-1e300",
         "coupling-15", "coupling-minus-10", "coupling-0.01"],
)
def test_weak_reads_out_what_only_the_sampled_grid_refused(capsys, scale):
    # each of these exited 2 when the pointer was sampled on a periodic grid
    code, out, err = run_cli(capsys, *WEAK_PLUS, "--couplings", "0.1", *scale)
    assert (code, err) == (0, ""), err
    header, *rows = out.splitlines()
    assert header == SWEEP_HEADER
    fields = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.isfinite(fields).all(), out
    # plus state, |0><0| and post-selection on |+>: c_p = c_r = 1/2, so every estimate reads 1/2 exactly
    assert (fields[:, 1:3] == [0.5, 0.0]).all() and (fields[:, 5] == 0.0).all(), out


def test_weak_refusals_state_the_coupling_in_units_of_sigma(capsys):
    # --couplings is in units of --sigma; the readout works in simulation units
    exit_code, out, err = run_cli(capsys, *WEAK_PLUS, "--sigma", "2", "--couplings", "1e-308")
    assert exit_code == 2 and out == ""
    assert _strict_json(err) == {
        "code": "validation",
        "message": "coupling 2e-308 (1e-308 sigma) is out of range: |coupling| and |coupling|/(2 sigma^2) "
                   "must be at least 2.22507e-308",
        "context": {"coupling": 2e-308, "sigma": 2.0},
    }


@pytest.mark.parametrize("couplings", ["1e300", "0.1,1e300", "1e300,inf", " 1e300 ,0.2"])
def test_weak_refuses_a_coupling_that_sigma_scales_past_the_largest_float(capsys, couplings):
    # the coupling is given in units of sigma: 1e300 sigma with sigma = 1e10 is no finite float, and the
    # refusal names the entry as given, where it once named the product, inf, that nobody passed
    exit_code, out, err = run_cli(capsys, *WEAK_PLUS, "--couplings", couplings, "--sigma", "1e10")
    assert exit_code == 2 and out == ""
    assert _strict_json(err) == {
        "code": "validation",
        "message": "coupling 1e300 times --sigma 1e+10 is not a finite number",
        "context": {"source": "coupling", "coupling": "1e300", "sigma": 1e10},
    }


def test_weak_names_a_non_finite_coupling_before_a_later_overflow(capsys):
    exit_code, out, err = run_cli(capsys, *WEAK_PLUS, "--couplings", "inf,1e300", "--sigma", "1e10")
    assert exit_code == 2 and out == ""
    assert _strict_json(err)["message"] == "coupling must be a finite number, got inf"


def test_weak_accepts_couplings_just_below_half_the_extent(capsys):
    code, out, err = run_cli(capsys, *WEAK_PLUS, "--couplings", "9.9,-9.9", "--sigma", "2")
    assert code == 0 and err == "" and len(out.splitlines()) == 3


WEAK_NUMBERS = ["1e-320", "1e-160", "1e153", "1e154", "1e200", "1e308", "nan", "inf"]


@settings(max_examples=100, deadline=None)
@example(sigma="1.4e154", extent="20", couplings=["0.1"], points=512)  # sigma^2 overflowed: a traceback, exit 1
@example(sigma="1e200", extent="9", couplings=["0.5", "-0.2"], points=16)
@example(sigma="1.5e-154", extent="8.01", couplings=["1", "2"], points=16)  # printed NaN estimates, exit 0
@example(sigma="1", extent="20", couplings=["1e308"], points=512)  # read as "post-selection probability nan"
@example(sigma="1", extent="20", couplings=["1e300"], points=512)  # a meaningless estimate, exit 0
@example(sigma="1.5e-154", extent="20", couplings=["1e300"], points=16)  # g / (2 sigma^2) inf, the overlap 0.0
@example(sigma="1e153", extent="20", couplings=["1e-300"], points=16)  # 2 g Var_p underflows to 0.0
@given(
    sigma=st.sampled_from(["1", "0.05", "-1", "1.3e154", "1.4e154", *WEAK_NUMBERS]),
    extent=st.sampled_from(["20", "9", "4", *WEAK_NUMBERS]),
    couplings=st.lists(st.sampled_from(["0.1", "-0.2", "0.5", "0", *WEAK_NUMBERS]), max_size=3),
    points=st.sampled_from([16, 64, 512]),
)
def test_every_weak_run_ends_in_its_sweep_or_one_error(sigma, extent, couplings, points):
    argv = [*WEAK_PLUS, f"--couplings={','.join(couplings)}", f"--sigma={sigma}", f"--grid-extent={extent}",
            f"--grid-points={points}"]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        assert err.getvalue() == "", argv
        header, *rows = out.getvalue().splitlines()
        assert header == SWEEP_HEADER and len(rows) == len(couplings), argv
        fields = [[float(v) for v in row.split(",")] for row in rows]
        assert all(len(f) == 7 and all(map(math.isfinite, f)) for f in fields), argv
    else:
        assert out.getvalue() == "", argv
        assert set(_strict_json(err.getvalue())) == {"code", "message", "context"}, argv


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


def test_tol_does_not_reach_the_psd_bound(tmp_path, capsys, monkeypatch):
    # the PSD bound is the fixed TOL_PSD: --tol and KDQ_TOL leave a smallest
    # eigenvalue of -1e-6 refused at -1e-9
    lam = [0.5, 0.3, 0.2 + 1e-6, -1e-6]
    data = [[[lam[i] if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
    state = tmp_path / "neg.json"
    state.write_text(json.dumps({"schema": "kdq/1", "dim": 4, "kind": "mixed", "data": data}))
    argv = ["kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "fourier"]
    for tol_args, env_tol in (([], None), (["--tol", "1e-3"], None), ([], "1e-3")):
        if env_tol is not None:
            monkeypatch.setenv("KDQ_TOL", env_tol)
        code, out, err = run_cli(capsys, *argv, *tol_args)
        assert code == 2
        assert out == ""
        doc = json.loads(err)
        assert doc["code"] == "validation"
        assert "negative eigenvalue" in doc["message"]
        assert doc["context"]["min_eigenvalue"] == pytest.approx(-1e-6, rel=1e-9)


@pytest.mark.parametrize(
    "tol_args, env_tol",
    [
        (["--tol", "nan"], None), (["--tol", "inf"], None), (["--tol", "0"], None), (["--tol", "-1"], None),
        (["--tol", "-0"], None), (["--tol", "1e400"], None),
        # argparse alone took these for unknown flags and refused them as usage errors
        (["--tol", "-1e-3"], None), (["--tol", "-inf"], None), (["--tol", "-.5E-1"], None),
        ([], "nan"), ([], "inf"), ([], "0"), ([], "-1e-3"),
    ],
    ids=["nan", "inf", "zero", "negative", "negative-zero", "overflow", "negative-exponent", "negative-inf",
         "negative-dot-exponent", "env-nan", "env-inf", "env-zero", "env-negative"],
)
def test_unusable_tolerance_exit_2(tmp_path, capsys, monkeypatch, tol_args, env_tol):
    # a nan or inf tolerance would accept this state of squared norm 9, and
    # nan, 0 or -1 would fail the audit on rounding noise; every command refuses alike
    kd_file = tmp_path / "kd.json"
    kd_file.write_text(run_cli(capsys, "kd", "--state", str(FIXTURES / "state_i_d2.json"), "--basis-a",
                               "computational", "--basis-b", "fourier")[1])
    if env_tol is not None:
        monkeypatch.setenv("KDQ_TOL", env_tol)
    state = tmp_path / "norm3.json"
    state.write_text(json.dumps({"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [[3.0, 0.0], [0.0, 0.0]]}))
    for argv in (
        ["kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "fourier"],
        ["reconstruct", "--kd", str(kd_file)],
        ["wigner", "--state", str(FIXTURES / "state_doubleslit_d5.json"), "--report"],
        [*WEAK_PLUS, "--couplings", "0.1"],
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


def _strict_json(text):
    """Parse as RFC 8259 does: the bare tokens NaN, Infinity and -Infinity are not JSON."""
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_audit_values_print_as_strict_json():
    # the compression and the span residual overflow to inf at this epsilon
    proc = subprocess.run(
        [sys.executable, "-m", "kdq", "audit", "--rep", "violator:1e300", "--dim", "3", "--all"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr == ""  # numpy's overflow warnings stay silent
    docs = {doc["condition"]: doc for doc in map(_strict_json, proc.stdout.splitlines())}
    assert docs["C3"]["worst_violation"] == docs["Span"]["worst_violation"] == "Infinity"
    assert docs["C3"]["passed"] is docs["Span"]["passed"] is False
    assert isinstance(docs["C1"]["worst_violation"], float)


def test_non_finite_error_context_prints_as_strict_json(tmp_path):
    state = tmp_path / "state.json"
    state.write_text('{"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [[1e308, 0], [1e308, 0]]}')
    proc = subprocess.run(
        [sys.executable, "-m", "kdq", "kd", "--state", str(state), "--basis-a", "computational",
         "--basis-b", "fourier"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    doc = _strict_json(proc.stderr)
    assert doc["code"] == "not_normalized"
    assert doc["context"] == {"norm_sq": "Infinity"}


def test_reconstruct_tol_reaches_the_loaded_tables_imaginary_part_check(tmp_path, capsys, monkeypatch):
    # +-1e-8 i in one row leaves the row sums and the total as they were and
    # gives the column sums imaginary parts of +-1e-8, over the 1e-10 default
    state = FIXTURES / "state_i_d2.json"
    code, out, _ = run_cli(capsys, "kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "hadamard2")
    assert code == 0
    doc = json.loads(out)
    doc["table"][0][0][1] += 1e-8
    doc["table"][0][1][1] -= 1e-8
    kd_file = tmp_path / "kd.json"
    kd_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "reconstruct", "--kd", str(kd_file))
    assert code == 2 and out == ""
    assert "row/column sums have imaginary part 1.000e-08" in json.loads(err)["message"]
    code, out, _ = run_cli(capsys, "reconstruct", "--kd", str(kd_file), "--tol", "1e-6")
    assert code == 0
    assert json.loads(out)["kind"] == "mixed"
    monkeypatch.setenv("KDQ_TOL", "1e-6")
    code, out, _ = run_cli(capsys, "reconstruct", "--kd", str(kd_file))
    assert code == 0


def test_overflowing_basis_file_exit_2(tmp_path, capsys):
    # finite entries near 1e200, whose Gram matrix overflows to NaN: the
    # basis check refuses them instead of accepting a NaN deviation
    rng = np.random.default_rng(3)
    x = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 1e200
    doc = {"schema": "kdq/1", "dim": 3, "label": "huge", "unitary": [[[z.real, z.imag] for z in row] for row in x]}
    basis = tmp_path / "huge.json"
    basis.write_text(json.dumps(doc))
    state = FIXTURES / "state_doubleslit_d3.json"
    code, out, err = run_cli(capsys, "kd", "--state", str(state), "--basis-a", f"@{basis}", "--basis-b", "computational")
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["code"] == "validation"
    assert "max Gram deviation nan" in obj["message"], obj


def test_reconstruct_overflowing_table_total_exit_2(tmp_path, capsys):
    # every entry is finite, but the total overflows to NaN: the table's own
    # check refuses it before any state is reconstructed
    state = FIXTURES / "state_i_d2.json"
    code, out, _ = run_cli(capsys, "kd", "--state", str(state), "--basis-a", "computational", "--basis-b", "fourier")
    assert code == 0
    doc = json.loads(out)
    doc["table"] = [[[1e308, 0.0], [1e308, 0.0]], [[-1e308, 0.0], [-1e308, 0.0]]]
    kd_file = tmp_path / "kd.json"
    kd_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "reconstruct", "--kd", str(kd_file))
    assert code == 2 and out == ""
    obj = json.loads(err)
    assert obj["code"] == "validation"
    assert obj["message"].startswith("table sums to") and "nan" in obj["message"], obj


def test_allocation_failure_in_a_command_exit_2(capsys, monkeypatch):
    import kdq.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(kdq.cli, "check_condition1", exhausted)
    code, out, err = run_cli(capsys, "audit", "--rep", "kd", "--dim", "3", "--c1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "out_of_memory", "message": "out of memory", "context": {"command": "audit"}}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--rep", "kd", "--dim", "4", "--samples", "0"], "bad_sample_count"),
        (["--rep", "wigner", "--dim", "1"], "validation"),
    ],
    ids=["samples-0", "wigner-d1"],
)
def test_refused_audit_prints_no_report(capsys, argv, code):
    # --samples is refused before any check runs; at d=1, C1 and C2 pass before C3 refuses.
    # Either way a refused audit prints no report at all
    exit_code, out, err = run_cli(capsys, "audit", *argv, "--all")
    assert (exit_code, out) == (2, "")
    assert json.loads(err)["code"] == code


def test_allocation_failure_in_a_later_check_prints_no_report(capsys, monkeypatch):
    import kdq.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(kdq.cli, "check_condition3", exhausted)
    code, out, err = run_cli(capsys, "audit", "--rep", "kd", "--dim", "3", "--all")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"code": "out_of_memory", "message": "out of memory", "context": {"command": "audit"}}


AUDIT_REPS = ["kd", "kd-ba", "wigner", "junk"] + [
    f"{name}:{x}" for name in ("mixed", "violator") for x in ("0", "0.3", "-1", "1e-3", "nan", "inf")
]
REPORT_FIELDS = {"condition", "passed", "worst_violation", "witness", "samples_used", "seed"}


@settings(max_examples=200, deadline=None)
@given(
    rep=st.sampled_from(AUDIT_REPS),
    dim=st.integers(-1, 6),
    checks=st.sets(st.sampled_from(["--c1", "--c2", "--c3", "--span", "--all"])),
    samples=st.sampled_from([-1, 0, 1, 3]),
    seed=st.sampled_from([-1, 0, 7]),
    basis_b=st.sampled_from(["fourier", "computational"]),
)
def test_every_audit_ends_in_its_reports_or_one_error(rep, dim, checks, samples, seed, basis_b):
    argv = ["audit", "--rep", rep, "--dim", str(dim), *sorted(checks), "--samples", str(samples), "--seed", str(seed),
            "--basis-b", basis_b]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert set(_strict_json(err.getvalue())) == {"code", "message", "context"}, argv
    else:
        assert err.getvalue() == "", argv
        reports = [_strict_json(line) for line in out.getvalue().splitlines()]
        assert reports and all(set(doc) == REPORT_FIELDS for doc in reports), argv
        assert (code == 0) == all(doc["passed"] for doc in reports), argv


KD_I = ["kd", "--state", str(FIXTURES / "state_i_d2.json"), "--basis-a", "computational", "--basis-b", "fourier"]


def _child(argv, unbuffered=False, limit=None, **kwargs):
    """``python -m kdq argv``, with ``PYTHONUNBUFFERED`` set or unset, under an address-space limit if given."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONUNBUFFERED": "1"} if unbuffered else {}, OPENBLAS_NUM_THREADS="1")
    preexec = None if limit is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return subprocess.run(
        [sys.executable, "-m", "kdq", *argv], env=env, preexec_fn=preexec, text=True, timeout=60, **kwargs
    )


def test_allocation_failure_in_a_child_exit_2():
    # the identity basis alone takes 549 MiB at d=6000, over a 400 MiB limit,
    # so numpy refuses it whatever the interpreter and BLAS have mapped before
    proc = _child(["audit", "--rep", "kd", "--dim", "6000", "--c1"], limit=400 << 20, capture_output=True)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    doc = json.loads(proc.stderr)
    assert doc["code"] == "out_of_memory"
    assert doc["message"].startswith("Unable to allocate 549. MiB")
    assert doc["context"] == {"command": "audit"}


@pytest.fixture(scope="module")
def child_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("child")
    # a table over one basis twice: its overlaps <b|a> vanish off the diagonal
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*KD_I[:-1], "computational"]) == 0
    singular = tmp / "kd-singular.json"
    singular.write_text(out.getvalue())
    psi = np.random.default_rng(64).normal(size=(64, 2))
    psi /= np.linalg.norm(psi)
    d64 = tmp / "state-d64.json"
    d64.write_text(json.dumps({"schema": "kdq/1", "dim": 64, "kind": "pure", "data": psi.tolist()}))
    return {"singular": str(singular), "d64": str(d64)}


# one op per exit code, and a d=64 csv table, larger than a pipe's buffer
CHILD_OPS = {
    "kd-0": (0, lambda f: KD_I),
    "audit-violator-1": (1, lambda f: ["audit", "--rep", "violator:0.1", "--dim", "4", "--c1", "--c2", "--span"]),
    "dim-mismatch-2": (
        2,
        lambda f: ["kd", "--state", str(FIXTURES / "state_doubleslit_d5.json"), "--basis-a", "hadamard2",
                   "--basis-b", "fourier"],
    ),
    "singular-overlap-3": (3, lambda f: ["reconstruct", "--kd", f["singular"]]),
    "degenerate-postselection-4": (
        4,
        lambda f: ["weak", "--state", str(FIXTURES / "state_zero_d2.json"), "--a-index", "0", "--basis-a",
                   "computational", "--b-index", "1", "--basis-b", "computational", "--couplings", "0.2"],
    ),
    "kd-csv-d64": (0, lambda f: ["kd", "--state", f["d64"], "--basis-a", "computational", "--basis-b", "fourier",
                                 "--format", "csv"]),
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("op", list(CHILD_OPS))
def test_child_output_equals_in_process_main(op, unbuffered, child_files, capsys):
    expected_code, make_argv = CHILD_OPS[op]
    argv = make_argv(child_files)
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code
    proc = _child(argv, unbuffered, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    if op == "kd-csv-d64":
        assert len(out) > 1 << 16


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("op", ["kd-0", "kd-csv-d64"])
def test_closed_stdout_exit_2(op, unbuffered, child_files):
    # buffered, the small table fails at run's final flush and the large one
    # inside main; unbuffered, both fail at their first write
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes
    try:
        proc = _child(CHILD_OPS[op][1](child_files), unbuffered, stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    # one error object and nothing else: no traceback, no second flush at shutdown
    assert json.loads(proc.stderr) == {"code": "broken_pipe", "message": "standard output is closed", "context": {}}


def test_closed_stderr_keeps_the_error_off_stdout(tmp_path):
    # started with fd 2 closed, the child's sys.stderr is None, and print(file=None)
    # writes to stdout, where a caller reads the artifact
    argv = ["kd", "--state", str(tmp_path / "missing.json"), "--basis-a", "computational", "--basis-b", "fourier"]
    proc = subprocess.run(
        [sys.executable, "-m", "kdq", *argv], stdout=subprocess.PIPE, text=True, timeout=60,
        preexec_fn=lambda: os.close(2),
    )
    assert (proc.returncode, proc.stdout) == (2, "")


@pytest.mark.parametrize("argv, runs", [(KD_I, False), (["kd"], True)], ids=["run-exits", "argparse-exits"])
def test_atexit_handlers_run_only_on_the_interpreters_exit(argv, runs):
    script = (
        "import atexit, sys; atexit.register(print, 'atexit ran'); "
        f"sys.argv[1:] = {argv!r}; from kdq.cli import run; run()"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == (2 if runs else 0)
    assert ("atexit ran" in proc.stdout) is runs


USAGE_ERRORS = {
    "bad-int": ["audit", "--rep", "kd", "--dim", "abc", "--all"],
    "unknown-flag": [*KD_I, "--bogus"],
    "unknown-short-flag": [*KD_I, "-x"],
    "stray-number": [*KD_I, "-1e-3"],  # a number after no flag is no value
    "negative-flag-value": [*KD_I, "--tol", "--bogus"],
    "bad-choice": [*KD_I, "--format", "xml"],
    "missing-required": KD_I[:1] + KD_I[3:],
    "no-command": [],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_errors_end_in_one_json_error_object(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    doc = _strict_json(lines[0])
    assert set(doc) == {"code", "message", "context"}
    assert doc["code"] == "validation"
    assert doc["message"].startswith("kdq")


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--help"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    assert captured.out.startswith("usage: kdq audit")


@pytest.fixture(scope="module")
def refusal_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("refusals")

    def write(name, doc):
        (tmp / name).write_text(json.dumps(doc))
        return str(tmp / name)

    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(KD_I) == 0
    kd = json.loads(out.getvalue())
    mixed = [[[1 / 3, 0], [0, 1e-4], [0, 0]], [[0, 1e-4], [1 / 3, 0], [0, 0]], [[0, 0], [0, 0], [1 / 3, 0]]]
    return {
        "list": write("list.json", [1, 2]),
        "data-5": write("data-5.json", {"schema": "kdq/1", "dim": 2, "kind": "pure", "data": 5}),
        "kd-xy": write("kd-xy.json", {**kd, "ordering": "XY"}),
        "kd-short": write("kd-short.json", {**kd, "table": kd["table"][:1]}),
        "pure-3": write("pure-3.json", {"schema": "kdq/1", "dim": 2, "kind": "pure", "data": [[1, 0], [0, 0], [0, 0]]}),
        "mixed-2": write("mixed-2.json", {"schema": "kdq/1", "dim": 3, "kind": "mixed",
                                          "data": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}),
        "basis-2": write("basis-2.json", {"schema": "kdq/1", "dim": 3, "unitary": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}),
        # 1e-4 i at (0, 1) and (1, 0): an anti-Hermitian part that --tol 1e-3 lets in
        "anti-hermitian": write("anti-hermitian.json", {"schema": "kdq/1", "dim": 3, "kind": "mixed", "data": mixed}),
    }


WEAK_01 = [*WEAK_PLUS, "--couplings", "0.1"]
NO_FILE = str(FIXTURES / "no_such_file.json")

# argv from the files, KDQ_TOL, then the error's code and message
REFUSALS = {
    "a-index": (lambda f: [*WEAK_01, "--a-index", "5"], None, "validation", "a-index must be an integer from 0 to 1, got 5"),
    "b-index": (lambda f: [*WEAK_01, "--b-index", "-1"], None, "validation", "b-index must be an integer from 0 to 1, got -1"),
    "couplings-x": (lambda f: [*WEAK_PLUS, "--couplings", "0.1,x"], None, "validation", "bad couplings list '0.1,x'"),
    "couplings-inf": (lambda f: [*WEAK_PLUS, "--couplings", "inf"], None, "validation",
                      "coupling must be a finite number, got inf"),
    "couplings-nan": (lambda f: [*WEAK_PLUS, "--couplings", "nan"], None, "validation",
                      "coupling must be a finite number, got nan"),
    "audit-kd-no-dim": (lambda f: ["audit", "--rep", "kd", "--all"], None, "validation", "--dim is required"),
    "audit-wigner-no-dim": (lambda f: ["audit", "--rep", "wigner", "--all"], None, "validation",
                            "--dim is required for the wigner representation"),
    "env-tol": (lambda f: KD_I, "abc", "validation", "KDQ_TOL is not a number: 'abc'"),
    "state-list": (lambda f: [*KD_I[:1], "--state", f["list"], *KD_I[3:]], None, "validation",
                   "state file: expected a JSON object"),
    "state-data-number": (lambda f: [*KD_I[:1], "--state", f["data-5"], *KD_I[3:]], None, "validation",
                          "state file data: expected a list of [re, im] pairs"),
    "state-missing": (lambda f: [*KD_I[:1], "--state", NO_FILE, *KD_I[3:]], None, "validation",
                      f"state file: cannot read {NO_FILE}: [Errno 2] No such file or directory: '{NO_FILE}'"),
    "kd-ordering": (lambda f: ["reconstruct", "--kd", f["kd-xy"]], None, "validation",
                    "joint table file: ordering must be 'AB' or 'BA', got 'XY'"),
    "kd-table-shape": (lambda f: ["reconstruct", "--kd", f["kd-short"]], None, "validation",
                       "joint table file: table shape (1, 2) vs dim 2"),
    "pure-state-shape": (lambda f: [*KD_I[:1], "--state", f["pure-3"], *KD_I[3:]], None, "validation",
                         "state file: data length (3,) does not match dim 2"),
    "mixed-state-shape": (lambda f: ["wigner", "--state", f["mixed-2"]], None, "validation",
                          "state file: data shape (2, 2) does not match dim 3"),
    "basis-shape": (lambda f: ["audit", "--rep", "kd", "--dim", "3", "--basis-a", "@" + f["basis-2"], "--all"], None,
                    "validation", "basis file: unitary shape (2, 2) does not match dim 3"),
    "wigner-imaginary": (lambda f: ["wigner", "--tol", "1e-3", "--state", f["anti-hermitian"]], None, "validation",
                         "phase-space table has imaginary part 6.667e-05"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusals_end_in_one_json_error_object(case, refusal_files, capsys, monkeypatch):
    make_argv, env_tol, error_code, message = REFUSALS[case]
    if env_tol is not None:
        monkeypatch.setenv("KDQ_TOL", env_tol)
    code, out, err = run_cli(capsys, *make_argv(refusal_files))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1, err
    doc = _strict_json(lines[0])
    assert set(doc) == {"code", "message", "context"}
    assert (doc["code"], doc["message"]) == (error_code, message)
