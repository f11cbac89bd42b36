"""The package and the CLI import a submodule only when it is used.

A ``kdq`` child pays for every module it imports, so ``import kdq.cli`` and
a ``kd`` run must not load the audit, pointer or Wigner modules.  Module
loading is process-wide, so each case that counts loaded modules runs in a
fresh ``python -c`` child, one at a time.
"""

import importlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import kdq

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
STATE_D2 = str(FIXTURES / "state_plus_d2.json")
SLITS_D5 = str(FIXTURES / "state_doubleslit_d5.json")

# the package's public names, by the submodule that defines them
PUBLIC = {
    "errors": (
        "BadEpsilonError", "BadRankError", "BadSampleCountError", "BadSlitsError",
        "DegeneratePostselectionError", "DimMismatchError", "EvenDimensionError",
        "KdqError", "NotNormalizedError", "SingularOverlapError",
        "ValidationError", "ZeroCouplingError",
    ),
    "hilbert": (
        "TOL", "TOL_PSD", "DensityOperator",
        "LinearOperator", "OrthonormalBasis", "StateVector", "basis_state", "computational_basis",
        "fourier_basis", "make_pure_density", "maximally_mixed", "overlap", "product_trace",
        "random_basis", "random_density", "random_state",
    ),
    "kd": (
        "TOL_OVERLAP", "KDDistribution", "Ordering", "conditional_weak_value", "kd_inverse",
        "kd_marginal_a", "kd_marginal_b", "kd_operator", "kd_transform", "total_probability",
    ),
    "audit": (
        "AuditReport", "QuasiProbRep", "SpanResidual", "check_condition1", "check_condition2",
        "check_condition3", "check_span", "evaluate", "kd_rep", "make_condition2_violator",
        "mixed_rep", "span_residual",
    ),
    "pointer": (
        "PointerConfig", "PointerReadout", "SweepPoint", "coupling_sweep",
        "simulate_weak_measurement", "weak_value_estimate",
    ),
    "wigner": (
        "WignerTable", "condition3_violation_report", "discrete_wigner", "double_slit_state",
        "momentum_basis", "phase_point_operator", "position_marginal", "wigner_as_rep",
    ),
}


def _child(code: str) -> dict:
    """Run ``code`` in a fresh interpreter and return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_by(*argv) -> dict:
    """The kdq modules loaded by ``import kdq.cli``, then by ``kdq.cli.main(argv)``, and its exit code."""
    return _child(
        f"""
        import contextlib, io, json, sys
        import kdq.cli

        def loaded():
            return sorted(m for m in sys.modules if m.startswith("kdq."))

        on_import = loaded()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = kdq.cli.main({list(argv)!r})
        print(json.dumps({{"import": on_import, "run": loaded(), "code": code}}))
        """
    )


def test_import_and_kd_load_none_of_audit_pointer_wigner():
    got = _loaded_by("kd", "--state", STATE_D2, "--basis-a", "computational", "--basis-b", "fourier")
    assert got["code"] == 0
    assert got["import"] == got["run"] == ["kdq.cli", "kdq.errors", "kdq.hilbert", "kdq.io", "kdq.kd"]


def test_audit_on_a_term_rep_loads_neither_pointer_nor_wigner():
    got = _loaded_by("audit", "--rep", "kd", "--dim", "4", "--all")
    assert got["code"] == 0
    assert "kdq.audit" in got["run"]
    assert not {"kdq.pointer", "kdq.wigner"} & set(got["run"])


def test_wigner_report_loads_neither_audit_nor_pointer():
    got = _loaded_by("wigner", "--state", SLITS_D5, "--report")
    assert got["code"] == 0
    assert "kdq.wigner" in got["run"]
    assert not {"kdq.audit", "kdq.pointer"} & set(got["run"])


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--rep", "kd", "--dim", "2", "--all", "--samples", "0"],
        ["audit", "--rep", "wigner", "--all"],
        ["weak", "--state", STATE_D2, "--a-index", "5", "--basis-a", "computational", "--b-index", "0",
         "--basis-b", "hadamard2", "--couplings", "0.1"],
        ["wigner", "--state", str(FIXTURES / "no_such_file.json")],
    ],
    ids=["audit-samples-0", "audit-wigner-no-dim", "weak-a-index-5", "wigner-missing-state"],
)
def test_refused_runs_load_none_of_audit_pointer_wigner(argv):
    # a command loads its module when it first calls into it, after its input is validated
    got = _loaded_by(*argv)
    assert got["code"] == 2
    assert got["run"] == ["kdq.cli", "kdq.errors", "kdq.hilbert", "kdq.io", "kdq.kd"]


LAZY_NUMPY = ("numpy.random", "numpy.fft")  # numpy 2.x loads these on first use, not with numpy


def _lazy_numpy_loaded(*argv) -> tuple[list[str], int]:
    """Which of ``LAZY_NUMPY`` ``kdq.cli.main(argv)`` loads in a fresh child, and its exit code."""
    got = _child(
        f"""
        import contextlib, io, json, sys
        import kdq.cli

        lazy = {LAZY_NUMPY!r}
        before = [m for m in lazy if m in sys.modules]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = kdq.cli.main({list(argv)!r})
        print(json.dumps({{"before": before, "after": [m for m in lazy if m in sys.modules], "code": code}}))
        """
    )
    assert got["before"] == []
    return got["after"], got["code"]


@pytest.fixture(scope="module")
def kd_file(tmp_path_factory):
    from kdq import computational_basis, fourier_basis, kd_transform, random_density
    from kdq.io import kd_to_dict

    path = tmp_path_factory.mktemp("kd") / "kd_d4.json"
    dist = kd_transform(random_density(4, 2, seed=4), computational_basis(4), fourier_basis(4))
    path.write_text(json.dumps(kd_to_dict(dist)))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["kd", "--state", STATE_D2, "--basis-a", "computational", "--basis-b", "fourier"],
        ["reconstruct", "--kd", None],
        ["weak", "--state", STATE_D2, "--a-index", "0", "--basis-a", "computational", "--b-index", "0",
         "--basis-b", "hadamard2", "--couplings", "0.1"],
        ["wigner", "--state", SLITS_D5, "--report"],
        ["audit", "--rep", "mixed:0.3", "--dim", "4", "--c1", "--c2", "--span"],
        ["audit", "--rep", "wigner", "--dim", "5", "--c1", "--c2", "--span"],
        ["audit", "--rep", "kd", "--dim", "4", "--c3"],
        ["audit", "--rep", "wigner", "--dim", "5", "--all"],
    ],
    ids=["kd", "reconstruct", "weak", "wigner", "audit-mixed-c1-c2-span", "audit-wigner-c1-c2-span",
         "audit-kd-c3", "audit-wigner-all"],
)
def test_only_the_sampled_condition3_loads_numpy_random(argv, kd_file):
    # no kdq command loads numpy.random (about 15 ms a child): C3 is decided by
    # its compression and samples no states, so the audits load it no more than the rest
    argv = [kd_file if a is None else a for a in argv]
    loaded, code = _lazy_numpy_loaded(*argv)
    assert code in (0, 1)
    assert "numpy.random" not in loaded


def test_weak_loads_neither_numpy_random_nor_numpy_fft():
    # the pointer is read out in closed form: no grid, no FFT
    loaded, code = _lazy_numpy_loaded("weak", "--state", STATE_D2, "--a-index", "0", "--basis-a", "computational",
                                      "--b-index", "0", "--basis-b", "hadamard2", "--couplings", "0.1,-0.2",
                                      "--grid-points", "65536")
    assert code == 0
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [
        ["kd", "--state", STATE_D2, "--basis-a", "computational", "--basis-b", "fourier"],
        ["reconstruct", "--kd", None],
        ["weak", "--state", STATE_D2, "--a-index", "0", "--basis-a", "computational", "--b-index", "0",
         "--basis-b", "hadamard2", "--couplings", "0.1"],
        ["wigner", "--state", SLITS_D5, "--report"],
        ["audit", "--rep", "kd", "--dim", "4", "--all"],
        ["audit", "--rep", "wigner", "--dim", "5", "--all"],
    ],
    ids=["kd", "reconstruct", "weak", "wigner", "audit-kd-all", "audit-wigner-all"],
)
def test_no_command_imports_dataclasses(argv, kd_file):
    # kdq's value types are slotted classes: generating dataclass methods cost
    # a child about 6 ms before it read its input
    argv = [kd_file if a is None else a for a in argv]
    got = _child(
        f"""
        import contextlib, io, json, sys
        import kdq.__main__, kdq.cli

        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = kdq.cli.main({argv!r})
        print(json.dumps({{"loaded": sorted({{"dataclasses", "kdq.audit"}} & set(sys.modules)), "code": code}}))
        """
    )
    assert got["code"] in (0, 1)
    assert got["loaded"] == (["kdq.audit"] if argv[0] == "audit" else [])


def test_wrappers_installed_before_their_module_loads_see_the_calls():
    # coupling_sweep is read through kdq.cli first, as the benchmark's tracer
    # does; wigner_as_rep is assigned without reading the original at all
    got = _child(
        f"""
        import contextlib, io, json, sys
        import kdq.cli

        calls, before = [], sorted({{"kdq.pointer", "kdq.wigner"}} & set(sys.modules))
        sweep = kdq.cli.coupling_sweep
        kdq.cli.coupling_sweep = lambda *a, **k: calls.append("coupling_sweep") or sweep(*a, **k)

        def wigner_as_rep(dim):
            calls.append("wigner_as_rep")
            from kdq.wigner import wigner_as_rep as original

            return original(dim)

        kdq.cli.wigner_as_rep = wigner_as_rep
        unloaded = "kdq.wigner" not in sys.modules
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(kdq.cli.main(["weak", "--state", {STATE_D2!r}, "--a-index", "0", "--basis-a",
                                       "computational", "--b-index", "0", "--basis-b", "hadamard2",
                                       "--couplings", "0.1"]))
            codes.append(kdq.cli.main(["audit", "--rep", "wigner", "--dim", "3", "--c1"]))
        print(json.dumps({{"before": before, "unloaded": unloaded, "calls": calls, "codes": codes}}))
        """
    )
    assert got["before"] == [] and got["unloaded"]
    assert got["calls"] == ["coupling_sweep", "wigner_as_rep"]
    assert got["codes"] == [0, 0]


def test_all_lists_the_public_names_as_the_objects_of_their_modules():
    assert len(kdq.__all__) == len(set(kdq.__all__))
    assert set(kdq.__all__) == {name for names in PUBLIC.values() for name in names}
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"kdq.{module}")
        for name in names:
            assert getattr(kdq, name) is getattr(mod, name), name


def test_dir_and_star_import_cover_every_export():
    assert set(kdq.__all__) <= set(dir(kdq))
    namespace = {}
    exec("from kdq import *", namespace)
    assert all(namespace[name] is getattr(kdq, name) for name in kdq.__all__)


def test_a_submodule_read_as_an_attribute_loads_on_first_use():
    got = _child(
        """
        import json, sys
        import kdq

        before = "kdq.audit" in sys.modules
        mod = kdq.audit
        print(json.dumps({"before": before, "same": mod is sys.modules["kdq.audit"], "check": hasattr(mod, "check_span")}))
        """
    )
    assert got == {"before": False, "same": True, "check": True}


@pytest.mark.parametrize("module", ["kdq", "kdq.cli"])
def test_unknown_attribute_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(importlib.import_module(module), "no_such_name")
