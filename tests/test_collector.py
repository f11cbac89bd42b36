"""The kdq process runs without the cyclic garbage collector.

``python -m kdq`` and the ``kdq`` script enter through ``kdq.__main__``,
which turns the collector off before numpy and kdq load. That is safe only
while no command leaves reference cycles that grow with its work: the
process ends in ``os._exit``, so what a command leaves in cycles stays
until then. ``import kdq`` and ``kdq.cli.main`` leave the collector alone.
"""

import contextlib
import gc
import io
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from kdq import io as kio
from kdq import (
    computational_basis,
    double_slit_state,
    fourier_basis,
    kd_transform,
    random_density,
    random_state,
)
from kdq.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
REPS = ["kd", "kd-ba", "mixed:0.3", "violator:1e-3", "wigner"]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cycles")
    paths = {}
    for dim in (2, 64):
        paths[f"state{dim}"] = tmp / f"state{dim}.json"
        paths[f"state{dim}"].write_text(json.dumps(kio.state_to_dict(random_density(dim, 2, seed=dim))))
        dist = kd_transform(random_density(dim, 2, seed=dim + 1), computational_basis(dim), fourier_basis(dim))
        paths[f"kd{dim}"] = tmp / f"kd{dim}.json"
        paths[f"kd{dim}"].write_text(json.dumps(kio.kd_to_dict(dist)))
    for dim in (5, 129):
        paths[f"slits{dim}"] = tmp / f"slits{dim}.json"
        paths[f"slits{dim}"].write_text(json.dumps(kio.state_to_dict(double_slit_state(dim, 0, dim - 1))))
    paths["pure4"] = tmp / "pure4.json"
    paths["pure4"].write_text(json.dumps(kio.state_to_dict(random_state(4, seed=4))))
    return {name: str(path) for name, path in paths.items()}


def _commands(f):
    """(argv, exit code): a small and a large instance of each command, then a refused input."""
    for dim in (2, 64):
        for fmt in ("json", "csv"):
            yield ["kd", "--state", f[f"state{dim}"], "--basis-a", "computational", "--basis-b", "fourier",
                   "--format", fmt], 0
        yield ["reconstruct", "--kd", f[f"kd{dim}"]], 0
    for dim in (5, 129):
        yield ["wigner", "--state", f[f"slits{dim}"], "--report"], 0
    for points in (4096, 65536):
        yield ["weak", "--state", f["pure4"], "--a-index", "0", "--basis-a", "computational", "--b-index", "1",
               "--basis-b", "fourier", "--couplings", "0.05,0.1", "--grid-points", str(points),
               "--grid-extent", "40"], 0
    for rep in REPS:
        for dim in (4, 32):
            dim += rep == "wigner"  # the Wigner family takes odd dimensions
            yield ["audit", "--rep", rep, "--dim", str(dim), "--all"], int(rep in ("violator:1e-3", "wigner"))
    yield ["kd", "--state", str(FIXTURES / "state_doubleslit_d5.json"), "--basis-a", "hadamard2",
           "--basis-b", "fourier"], 2


def test_no_command_leaves_cycles_that_grow_with_its_work(files):
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found = []
        for argv, expected in _commands(files):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == expected, argv
            found.append((gc.collect(), argv))
        assert not gc.garbage
        # the same unreachable objects, argparse's, after every command of any size
        assert [count for count, _ in found] == [found[0][0]] * len(found), found
    finally:
        if enabled:
            gc.enable()


def _child(code: str):
    """Run ``code`` in a fresh interpreter and return the JSON value it prints last."""
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_the_process_entry_loads_numpy_and_kdq_with_the_collector_off():
    # each collection records whether numpy had begun to load; one while
    # kdq/__init__.py runs, before the entry module's first line, is allowed
    got = _child(
        """
        import gc, json, sys

        numpy_loading = []
        gc.callbacks.append(lambda phase, info: phase == "start" and numpy_loading.append("numpy" in sys.modules))
        from kdq.__main__ import run

        print(json.dumps({"numpy_loading": numpy_loading, "enabled": gc.isenabled(),
                          "loaded": sorted({"numpy", "kdq.cli"} & set(sys.modules))}))
        """
    )
    assert got["loaded"] == ["kdq.cli", "numpy"]
    assert True not in got["numpy_loading"]
    assert got["enabled"] is False


@pytest.mark.parametrize("module", ["kdq", "kdq.cli"])
def test_library_imports_leave_the_collector_on(module):
    assert _child(f"import gc, json, {module}; print(json.dumps(gc.isenabled()))") is True
