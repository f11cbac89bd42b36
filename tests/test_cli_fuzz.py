"""The CLI boundary under fuzzed files, flags and KDQ_TOL.

Each case mutates a shipped fixture (a type swapped, a key deleted, a value
nested or blown up to a huge int or float, the bytes cut short), draws ``--tol``, ``--format``,
``--ordering``, ``--basis-*`` and ``KDQ_TOL``, and runs ``kd``,
``reconstruct``, ``wigner`` or ``weak`` through ``main`` in-process, at the
fixtures' small dims.  Whatever the input, the run must end in the exit-code
contract: 0-4, strict JSON on stdout for a JSON success, and for a refusal
an empty stdout and exactly one strict ``{code, message, context}`` object
on stderr.  ``test_audit_*`` in test_cli.py fuzzes ``audit`` the same way.
"""

import contextlib
import copy
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdq.cli import main

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
STATES = sorted(str(p) for p in FIXTURES.glob("state_*.json"))
BASIS = str(FIXTURES / "basis_circular_d2.json")

ODD = [10**400, -(10**400), 2**63, 1e308, -1e308, 5e-324, float("inf"), float("nan"), 0, -1, 3, 0.5]
LEAVES = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.sampled_from(ODD), st.just([]), st.just({}))


def _either(good, bad):
    """A value from ``good`` half the time, else one from ``bad``: a case with one bad input refuses early."""
    return st.sampled_from(good) | st.sampled_from(bad)


# every float spelling, signed too (-1e-3, -.5E-1, -inf, -1_0), is the flag's value, never read as a flag
TOLS = _either(["1e-10", "1e-8", "1e-3", "0.5"],
               ["0", "-1e-3", "-.5E-1", "-1_0", "-inf", "-nan", "nan", "inf", "1e400", "1e-320", "abc"])
COUPLINGS = ["0.1", "0.1,-0.2", "-0.1,0.2", "-1e-1", "-.5E-1,1", "-inf", "1e-310"]
ENV_TOLS = st.none() | _either(["1e-6", "1e-12"], ["0", "nan", "-1", "abc"])  # unset half the time
BASES = _either(["computational", "fourier", "@file"], ["hadamard2", "junk", "@", "@mutated"])


def _mutate(data, doc):
    """``doc`` with the node that a random walk from its root stops at swapped, deleted, nested or blown up."""
    if isinstance(doc, (list, dict)) and doc and data.draw(st.integers(0, 3)) > 0:  # down a level, 3 times in 4
        key = data.draw(st.sampled_from(range(len(doc)) if isinstance(doc, list) else sorted(doc)))
        out = copy.copy(doc)
        if data.draw(st.integers(0, 3)) == 0:
            del out[key]
        else:
            out[key] = _mutate(data, doc[key])
        return out
    return [doc] if data.draw(st.booleans()) else data.draw(LEAVES)


def _mutated_file(data, doc, path: Path) -> str:
    """``doc`` mutated 1-3 times, written to ``path``; one time in 5 its bytes are cut short and corrupted."""
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    raw = json.dumps(doc).encode()  # inf and nan as the bare tokens Infinity and NaN, which a file may hold
    if data.draw(st.integers(0, 4)) == 0:
        raw = raw[: data.draw(st.integers(0, len(raw)))] + data.draw(st.binary(max_size=3))
    path.write_bytes(raw)
    return str(path)


def _run(argv, env_tol):
    env = {k: v for k, v in os.environ.items() if k != "KDQ_TOL"}
    if env_tol is not None:
        env["KDQ_TOL"] = env_tol
    with mock.patch.dict(os.environ, env, clear=True), contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def _assert_contract(argv, code, out, err, json_out):
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    if code in (0, 1):
        assert err == "", (argv, err)
        assert out, argv
        if json_out:
            _strict_json(out)
    else:
        assert out == "", (argv, out)
        lines = err.splitlines()
        assert len(lines) == 1, (argv, err)
        assert set(_strict_json(lines[0])) == {"code", "message", "context"}, (argv, err)
        assert "expected one argument" not in err, (argv, err)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory for the mutated files, and the docs they start from: each state, the basis and a joint table."""
    tmp = tmp_path_factory.mktemp("fuzz")
    code, kd, _ = _run(["kd", "--state", str(FIXTURES / "state_i_d2.json"), "--basis-a", "computational",
                        "--basis-b", "fourier"], None)
    assert code == 0
    (tmp / "kd-i.json").write_text(kd)
    docs = {"kd": json.loads(kd), "kd-file": str(tmp / "kd-i.json"), "basis": json.loads(Path(BASIS).read_text())}
    docs.update({p: json.loads(Path(p).read_text()) for p in STATES})
    return tmp, docs


def _argv(data, tmp, docs, command):
    def pick(options):
        return data.draw(options if isinstance(options, st.SearchStrategy) else st.sampled_from(options))

    def state():
        return _mutated_file(data, docs[pick(STATES)], tmp / "state.json") if data.draw(st.booleans()) else pick(STATES)

    def basis(flag):
        choice = pick(BASES)
        if choice == "@file":
            choice = "@" + BASIS
        elif choice == "@mutated":
            choice = "@" + _mutated_file(data, docs["basis"], tmp / f"{flag}.json")
        return [f"--{flag}", choice]

    def optional(flag, options):
        return [f"--{flag}", pick(options)] if data.draw(st.booleans()) else []

    if command == "kd":
        argv = ["kd", "--state", state(), *basis("basis-a"), *basis("basis-b"), *optional("ordering", ["AB", "BA", "ab"]),
                *optional("format", ["json", "csv", "xml"])]
    elif command == "reconstruct":
        argv = ["reconstruct", "--kd", _mutated_file(data, docs["kd"], tmp / "kd.json") if data.draw(st.booleans())
                else docs["kd-file"]]
    elif command == "wigner":
        argv = ["wigner", "--state", state(), *(["--report"] if data.draw(st.booleans()) else []),
                *optional("format", ["json", "csv", "xml"])]
    else:
        argv = ["weak", "--state", state(), "--a-index", pick(_either(["0", "1"], ["5", "-1"])), *basis("basis-a"),
                "--b-index", pick(["0", "1"]), *basis("basis-b"), "--couplings", pick(COUPLINGS)]
    return argv + optional("tol", TOLS)


@pytest.mark.parametrize("command", ["kd", "reconstruct", "wigner", "weak"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzzed_inputs_end_in_the_exit_code_contract(work, command, data):
    tmp, docs = work
    argv = _argv(data, tmp, docs, command)
    env_tol = data.draw(ENV_TOLS)
    code, out, err = _run(argv, env_tol)
    json_out = command == "reconstruct" or (command != "weak" and "csv" not in argv)
    _assert_contract(argv, code, out, err, json_out)
