"""The three workloads: inputs made from the seed, one op, and its oracle.

Every workload is a closed loop with one client: the next op starts only
after the previous one has finished, and at most one ``kdq`` child process
runs at a time.  ``ops`` is one round, a fixed multiset of op kinds whose
order and numeric inputs come from the seed, so every seed does the same
amount of work of each kind.

* ``kd-stream`` calls the library in-process: ``hilbert`` validation and
  the ``kd`` transforms do nearly all the work.
* ``cli-mix`` runs ``python -m kdq`` children over every subcommand:
  interpreter start-up, argparse and ``io`` dominate.
* ``audit-cli`` runs ``python -m kdq audit --all`` at d=31/32: the dense
  d^4 audit does about 85% of the work and sets the peak memory.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import types
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import kdq
import kdq.cli
import kdq.io
import kdq.wigner
from kdq.errors import SingularOverlapError

from spans import Tracer, patched

CHILD_TIMEOUT_S = 120.0

# oracle tolerances
TOL_ROUND_TRIP = 1e-9
TOL_BORN = 1e-10
TOL_TOTAL_PROB = 1e-10
TOL_TABLE = 1e-12


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary; column k is basis vector k."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def _density(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _pure(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def _fourier(d: int) -> np.ndarray:
    j = np.arange(d)
    return np.exp(2j * np.pi * np.outer(j, j) / d) / np.sqrt(d)


def _kd_table(rho: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Reference table[a, b] = <b|a><a|rho|b>, straight from the definition."""
    return (ub.conj().T @ ua).T * (ua.conj().T @ rho @ ub)


def _max_dev(x, y) -> float:
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y))))


# ---------------------------------------------------------------------------
# kd-stream: in-process library calls


# ops per 64-op round, weighted toward small d; 1 op in 16 is singular
KD_DIMS = {2: 16, 3: 14, 4: 12, 8: 10, 16: 8, 64: 4}
KD_SINGULAR_DIMS = (2, 3, 4, 8)


class KdInput(NamedTuple):
    d: int
    rank: int
    singular: bool
    rho: np.ndarray
    ua: np.ndarray
    ub: np.ndarray
    a: np.ndarray  # pre-selected state of the weak value: a column of ua
    b: np.ndarray  # post-selected state: a column of ub
    m: np.ndarray  # rank-1 projector whose weak value and probability are taken
    born_a: np.ndarray
    born_b: np.ndarray
    prob_m: complex
    weak: complex


def _kd_api(tracer: Tracer | None) -> types.SimpleNamespace:
    """The library calls one op makes, wrapped in spans when tracing."""
    calls = {
        "DensityOperator": ("hilbert.validate", kdq.DensityOperator),
        "OrthonormalBasis": ("hilbert.validate", kdq.OrthonormalBasis),
        "StateVector": ("hilbert.validate", kdq.StateVector),
        "LinearOperator": ("hilbert.validate", kdq.LinearOperator),
        "kd_transform": ("kd.transform", kdq.kd_transform),
        "kd_marginal_a": ("kd.marginal", kdq.kd_marginal_a),
        "kd_marginal_b": ("kd.marginal", kdq.kd_marginal_b),
        "kd_inverse": ("kd.inverse", kdq.kd_inverse),
        "conditional_weak_value": ("kd.weak_value", kdq.conditional_weak_value),
        "total_probability": ("kd.total_probability", kdq.total_probability),
    }
    if tracer is None:
        return types.SimpleNamespace(**{k: fn for k, (_, fn) in calls.items()})
    return types.SimpleNamespace(**{k: tracer.wrap(span, fn) for k, (span, fn) in calls.items()})


def _kd_op(k: types.SimpleNamespace, x: KdInput) -> dict:
    rho = k.DensityOperator(x.rho)
    basis_a = k.OrthonormalBasis(x.ua)
    basis_b = k.OrthonormalBasis(x.ub)
    a, b, m = k.StateVector(x.a), k.StateVector(x.b), k.LinearOperator(x.m)
    ab = k.kd_transform(rho, basis_a, basis_b, kdq.Ordering.AB)
    ba = k.kd_transform(rho, basis_a, basis_b, kdq.Ordering.BA)
    out = {"ab": ab.table, "ba": ba.table, "pa": k.kd_marginal_a(ab), "pb": k.kd_marginal_b(ab)}
    try:
        out["rho"] = k.kd_inverse(ab).matrix
    except SingularOverlapError:
        if not x.singular:
            raise
        out["singular"] = True
        return out
    out["weak"] = k.conditional_weak_value(m, a, b)
    out["prob"] = k.total_probability(m, rho, basis_a, basis_b)
    return out


def _kd_check(x: KdInput, out: dict) -> str | None:
    if _max_dev(out["ba"], out["ab"].conj()) > TOL_TABLE:
        return "BA table is not the conjugate of the AB table"
    if max(_max_dev(out["pa"], x.born_a), _max_dev(out["pb"], x.born_b)) > TOL_BORN:
        return "marginals differ from the Born probabilities"
    if x.singular:
        return None if out.get("singular") else "no SingularOverlapError on a vanishing overlap"
    if _max_dev(out["rho"], x.rho) > TOL_ROUND_TRIP:
        return "reconstruction round trip exceeds tolerance"
    if abs(out["prob"] - x.prob_m) > TOL_TOTAL_PROB:
        return "decomposed total probability differs from Tr(M rho)"
    if abs(out["weak"] - x.weak) > TOL_ROUND_TRIP * max(1.0, abs(x.weak)):
        return "weak value differs from <b|M|a>/<b|a>"
    return None


class KdStream:
    name = "kd-stream"
    ops_per_probe = sum(KD_DIMS.values())  # a whole round: one op takes well under 1 ms
    traced_rounds = 16

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops: list[KdInput] = []
        self._api = _kd_api(None)

    def setup(self, seed: int) -> str:
        rng = np.random.default_rng(seed)
        specs = []
        for d, n in KD_DIMS.items():
            for i in range(n):
                singular = i == 0 and d in KD_SINGULAR_DIMS
                specs.append((d, 1 if i % 2 else d, singular))
        ops, digest = [], hashlib.sha256()
        for j in rng.permutation(len(specs)):
            d, rank, singular = specs[j]
            rho, ua = _density(rng, d, rank), _unitary(rng, d)
            if singular:
                # the same basis, permuted and rephased: most <b|a> vanish
                ub = ua[:, rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))
            else:
                ub = _unitary(rng, d)
            ia, ib = (int(i) for i in rng.integers(d, size=2))
            psi = _pure(rng, d)
            m = np.outer(psi, psi.conj())
            a, b = ua[:, ia].copy(), ub[:, ib].copy()
            x = KdInput(
                d, rank, singular, rho, ua, ub, a, b, m,
                born_a=np.real(np.einsum("ia,ij,ja->a", ua.conj(), rho, ua)),
                born_b=np.real(np.einsum("ib,ij,jb->b", ub.conj(), rho, ub)),
                prob_m=complex(np.trace(m @ rho)),
                weak=complex(np.vdot(b, m @ a) / np.vdot(b, a)) if not singular else 0j,
            )
            digest.update(f"{d},{rank},{singular},{ia},{ib};".encode())
            for arr in (rho, ua, ub, m):
                digest.update(arr.tobytes())
            ops.append(x)
        self.ops = ops
        for x in ops:  # warm-up: every input once; failures count in the timed phase
            self._call(x)
        return digest.hexdigest()

    def _call(self, x: KdInput) -> tuple[dict | None, str | None]:
        try:
            return _kd_op(self._api, x), None
        except Exception as exc:  # any exception fails the op, not the run
            return None, f"unexpected {type(exc).__name__}: {exc}"

    def run(self, x: KdInput) -> tuple[float, str | None, float | None]:
        t0 = time.perf_counter()
        out, failure = self._call(x)
        latency = time.perf_counter() - t0
        return latency, failure or _kd_check(x, out), None

    def replay_ops(self) -> list[KdInput]:
        return self.ops * self.traced_rounds

    @contextmanager
    def replaying(self, tracer: Tracer | None):
        untraced, self._api = self._api, _kd_api(tracer)
        try:
            yield
        finally:
            self._api = untraced

    def replay(self, x: KdInput, op_id: int, tracer: Tracer | None) -> str | None:
        with tracer.op(op_id, "bench.op") if tracer else nullcontext():
            out, failure = self._call(x)
        return failure or _kd_check(x, out)


# ---------------------------------------------------------------------------
# CLI workloads: python -m kdq children, replayed in-process when traced


class CliOp(NamedTuple):
    label: str
    args: list[str]
    expect_exit: int
    check: Callable[[str, str], str | None]  # (stdout, stderr) -> failure or None


def _state_doc(data: np.ndarray, kind: str, schema: str = "kdq/1") -> dict:
    pairs = np.stack([data.real, data.imag], axis=-1).tolist()
    return {"schema": schema, "dim": data.shape[0], "kind": kind, "data": pairs}


def _basis_doc(mat: np.ndarray, label: str) -> dict:
    rows = mat.T  # rows of "unitary" are the basis vectors
    return {
        "schema": "kdq/1",
        "dim": mat.shape[0],
        "label": label,
        "unitary": np.stack([rows.real, rows.imag], axis=-1).tolist(),
    }


def _complex(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_kd_json(ref: np.ndarray, ordering: str = "AB"):
    def check(out: str, err: str) -> str | None:
        doc = json.loads(out)
        if doc["ordering"] != ordering:
            return "kd: wrong ordering"
        return "kd: table differs from the reference" if _max_dev(_complex(doc["table"]), ref) > TOL_TABLE else None

    return check


def _check_kd_csv(ref: np.ndarray):
    def check(out: str, err: str) -> str | None:
        table = np.zeros_like(ref)
        for row in _csv_rows(out):
            table[int(row["a"]), int(row["b"])] = complex(float(row["re"]), float(row["im"]))
        return "kd csv: table differs from the reference" if _max_dev(table, ref) > TOL_TABLE else None

    return check


def _check_reconstruct(rho: np.ndarray):
    def check(out: str, err: str) -> str | None:
        doc = json.loads(out)
        if doc["kind"] != "mixed" or _max_dev(_complex(doc["data"]), rho) > TOL_ROUND_TRIP:
            return "reconstruct: state not recovered"
        return None

    return check


def _check_wigner(midpoint: int):
    def check(out: str, err: str) -> str | None:
        hits = [v for v in json.loads(out).get("violations", []) if v["q"] == midpoint and abs(v["value"]) > TOL_BORN]
        return None if hits else f"wigner: no violation listed at the midpoint q={midpoint}"

    return check


def _check_weak(couplings: list[float], exact: complex):
    def check(out: str, err: str) -> str | None:
        rows = _csv_rows(out)
        if [float(r["g"]) for r in rows] != couplings:
            return "weak: wrong couplings"
        errs = [float(r["abs_err"]) for r in rows]  # couplings are in decreasing order
        if any(later > earlier for earlier, later in zip(errs, errs[1:])):
            return f"weak: error does not shrink with g: {errs}"
        got = complex(float(rows[0]["re_exact"]), float(rows[0]["im_exact"]))
        return "weak: exact weak value is wrong" if abs(got - exact) > TOL_ROUND_TRIP else None

    return check


def _check_audit(expected: dict[str, bool]):
    def check(out: str, err: str) -> str | None:
        got = {}
        for line in out.splitlines():
            rep = json.loads(line)
            got[rep["condition"]] = rep["passed"]
        return None if got == expected else f"audit: verdicts {got}, expected {expected}"

    return check


def _check_error(code: str):
    def check(out: str, err: str) -> str | None:
        lines = err.strip().splitlines()
        doc = json.loads(lines[-1]) if lines else {}
        if set(doc) != {"code", "message", "context"} or doc["code"] != code:
            return f"expected a {code!r} error object, got {err.strip()[-200:]!r}"
        return None

    return check


PASS_ALL = {"C1": True, "C2": True, "C3": True, "Span": True}
FAIL_C2_C3_SPAN = {"C1": True, "C2": False, "C3": False, "Span": False}
FAIL_C3_SPAN = {"C1": True, "C2": True, "C3": False, "Span": False}

WEAK_COUPLINGS = [0.2, 0.15, 0.1, 0.07, 0.05, 0.035, 0.025, 0.02]


class CliWorkload:
    """What the two CLI workloads share; subclasses write the inputs."""

    name = ""
    ops_per_probe = 1

    def __init__(self, ctx):
        self.ctx = ctx
        self.ops: list[CliOp] = []
        self._digest = hashlib.sha256()

    def _write(self, name: str, doc: dict) -> str:
        text = json.dumps(doc)
        path = self.ctx.work / name
        path.write_text(text)
        self._digest.update(name.encode() + b"\0" + text.encode())
        return str(path)

    def _add(self, label: str, args: list, expect_exit: int, check) -> None:
        self.ops.append(CliOp(label, [str(a) for a in args], expect_exit, check))

    def _make(self, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def setup(self, seed: int) -> str:
        rng = np.random.default_rng(seed)
        self.ops, self._digest = [], hashlib.sha256()
        self._make(rng)
        self.ops = [self.ops[i] for i in rng.permutation(len(self.ops))]
        work = str(self.ctx.work)
        for op in self.ops:  # paths without the checkout's location, so the hash is portable
            args = [a.replace(work, "<work>") for a in op.args]
            self._digest.update(json.dumps([op.label, op.expect_exit, args]).encode())
        self.ctx.check_child_kdq()  # warm-up child, and the check that kdq is this checkout's
        return self._digest.hexdigest()

    def run(self, op: CliOp) -> tuple[float, str | None, float | None]:
        latency, code, out, err, rss_mb = self.ctx.run_child(["-m", "kdq", *op.args])
        return latency, self._verdict(op, code, out, err), rss_mb

    @staticmethod
    def _verdict(op: CliOp, code: int, out: str, err: str) -> str | None:
        if code != op.expect_exit:
            return f"{op.label}: exit {code}, expected {op.expect_exit}: {err.strip()[-300:]}"
        try:
            return op.check(out, err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"{op.label}: unreadable output ({type(exc).__name__}: {exc})"

    def replay_ops(self) -> list[CliOp]:
        return self.ops

    def replaying(self, tracer: Tracer | None):
        return patched(_cli_targets(tracer) if tracer else [])

    def replay(self, op: CliOp, op_id: int, tracer: Tracer | None) -> str | None:
        """Run ``op`` through ``kdq.cli.main`` in this process."""
        out, err = io.StringIO(), io.StringIO()
        charged = sum(tracer.errors.values()) if tracer else 0
        try:
            with redirect_stdout(out), redirect_stderr(err):
                with tracer.op(op_id, "cli.main") if tracer else nullcontext():
                    code = kdq.cli.main(op.args)
        except Exception as exc:  # any exception fails the op, not the run
            return f"{op.label}: unexpected {type(exc).__name__}: {exc}"
        if tracer and code >= 2 and sum(tracer.errors.values()) == charged:
            tracer.errors["cli"] += 1  # raised by kdq.cli itself, not by a wrapped call
        return self._verdict(op, code, out.getvalue(), err.getvalue())


class CliMix(CliWorkload):
    """23 op kinds per round.  With an odd kind count the median latency sits
    inside one kind's cluster instead of in the gap between two clusters,
    where it would jump between runs."""

    name = "cli-mix"

    def _make(self, rng: np.random.Generator) -> None:
        for d in (2, 8, 32, 64):
            rho = _density(rng, d, d)
            ref = _kd_table(rho, np.eye(d), _fourier(d))
            state = self._write(f"mixed{d}.json", _state_doc(rho, "mixed"))
            kd_doc = {
                "schema": "kdq/1",
                "dim": d,
                "ordering": "AB",
                "basis_a": _basis_doc(np.eye(d, dtype=complex), "computational"),
                "basis_b": _basis_doc(_fourier(d), "fourier"),
                "table": np.stack([ref.real, ref.imag], axis=-1).tolist(),
            }
            table = self._write(f"kd{d}.json", kd_doc)
            kd_args = ["kd", "--state", state, "--basis-a", "computational", "--basis-b", "fourier"]
            self._add(f"kd-json-d{d}", kd_args, 0, _check_kd_json(ref))
            self._add(f"kd-csv-d{d}", kd_args + ["--format", "csv"], 0, _check_kd_csv(ref))
            self._add(f"reconstruct-d{d}", ["reconstruct", "--kd", table], 0, _check_reconstruct(rho))
            if d == 8:  # the BA table is the conjugate; also makes the kind count odd (class docstring)
                self._add("kd-ba-d8", kd_args + ["--ordering", "BA"], 0, _check_kd_json(ref.conj(), "BA"))
        for d in (5, 33, 129):
            s1 = int(rng.integers(d))
            s2 = int(rng.choice([s for s in range(s1 % 2, d, 2) if s != s1]))
            amps = np.zeros(d, dtype=complex)
            amps[[s1, s2]] = 1 / np.sqrt(2)
            state = self._write(f"slits{d}.json", _state_doc(amps, "pure"))
            self._add(f"wigner-d{d}", ["wigner", "--state", state, "--report"], 0, _check_wigner((s1 + s2) // 2))
        d = 4
        for grid in (4096, 65536):
            psi = _pure(rng, d)
            ia, ib = (int(i) for i in rng.integers(d, size=2))
            b = _fourier(d)[:, ib]
            exact = complex(np.conj(b[ia]) * psi[ia] / np.vdot(b, psi))
            state = self._write(f"pure-grid{grid}.json", _state_doc(psi, "pure"))
            weak_args = ["weak", "--state", state, "--a-index", ia, "--basis-a", "computational",
                         "--b-index", ib, "--basis-b", "fourier",
                         "--couplings", ",".join(map(str, WEAK_COUPLINGS)), "--grid-points", grid]
            self._add(f"weak-grid{grid}", weak_args, 0, _check_weak(WEAK_COUPLINGS, exact))
        audit_args = ["--all", "--seed", int(rng.integers(2**31))]
        self._add("audit-kd-d8", ["audit", "--rep", "kd", "--dim", 8, *audit_args], 0, _check_audit(PASS_ALL))
        self._add("audit-wigner-d9", ["audit", "--rep", "wigner", "--dim", 9, *audit_args], 1, _check_audit(FAIL_C3_SPAN))
        # invalid inputs: each must exit 2 with a {code, message, context} object
        bad = self._write("bad-schema.json", _state_doc(_density(rng, 8, 8), "mixed", schema="kdq/0"))
        basis4 = self._write("basis4.json", _basis_doc(_unitary(rng, 4), "random"))
        mixed8 = str(self.ctx.work / "mixed8.json")
        kd_bad = ["kd", "--state", bad, "--basis-a", "computational", "--basis-b", "fourier"]
        self._add("bad-schema", kd_bad, 2, _check_error("validation"))
        kd_mismatch = ["kd", "--state", mixed8, "--basis-a", "computational", "--basis-b", "@" + basis4]
        self._add("dim-mismatch", kd_mismatch, 2, _check_error("dim_mismatch"))
        pure = str(self.ctx.work / "pure-grid4096.json")
        self._add("index-range", ["weak", "--state", pure, "--a-index", d, "--basis-a", "computational", "--b-index", 0,
                                  "--basis-b", "fourier", "--couplings", "0.1"], 2, _check_error("validation"))


class AuditCli(CliWorkload):
    name = "audit-cli"

    def _make(self, rng: np.random.Generator) -> None:
        d = 32
        basis_a = "@" + self._write("basis-a.json", _basis_doc(_unitary(rng, d), "random-a"))
        basis_b = "@" + self._write("basis-b.json", _basis_doc(_unitary(rng, d), "random-b"))
        seed = int(rng.integers(2**31))
        common = ["--all", "--samples", 100, "--seed", seed]
        for rep, code, expected in (
            ("kd", 0, PASS_ALL),
            ("kd-ba", 0, PASS_ALL),
            ("mixed:0.3", 0, PASS_ALL),
            ("violator:1e-3", 1, FAIL_C2_C3_SPAN),
        ):
            args = ["audit", "--rep", rep, "--dim", d, "--basis-a", basis_a, "--basis-b", basis_b, *common]
            self._add(f"audit-{rep}-d{d}", args, code, _check_audit(expected))
        self._add("audit-wigner-d31", ["audit", "--rep", "wigner", "--dim", 31, *common], 1, _check_audit(FAIL_C3_SPAN))


WORKLOADS = {w.name: w for w in (KdStream, CliMix, AuditCli)}


# ---------------------------------------------------------------------------
# spans around the calls kdq.cli makes, installed at the names it looks up


def _file_bytes(counts, result, path, *args, **kwargs):
    counts["io.bytes_in"] += os.path.getsize(path)


def _basis_bytes(counts, result, spec, *args, **kwargs):
    if spec.startswith("@"):
        counts["io.bytes_in"] += os.path.getsize(spec[1:])


def _out_bytes(counts, result, *args, **kwargs):
    if isinstance(result, str):
        counts["io.bytes_out"] += len(result.encode())


def _rep_bytes(counts, result, *args, **kwargs):
    counts["audit.dense_bytes"] += result.operators.nbytes


def _grid_points(counts, result, psi, a_proj, b, cfg, couplings):
    counts["pointer.grid_points"] += cfg.grid_points * len(couplings)


def _cli_targets(tracer: Tracer) -> list[tuple]:
    cli, kio, w = kdq.cli, kdq.io, tracer.wrap
    json_shim = types.SimpleNamespace(**vars(json))
    json_shim.dumps = w("io.serialize", json.dumps, _out_bytes)
    targets = [(cli, "json", json_shim), (kdq.wigner, "discrete_wigner", w("wigner.table", kdq.wigner.discrete_wigner))]
    for owner, attr, span, count in (
        (cli, "make_pure_density", "hilbert.validate", None),
        (cli, "LinearOperator", "hilbert.validate", None),
        (cli, "kd_transform", "kd.transform", None),
        (cli, "kd_inverse", "kd.inverse", None),
        (kio, "kd_marginal_a", "kd.marginal", None),
        (kio, "kd_marginal_b", "kd.marginal", None),
        (cli, "kd_rep", "audit.rep_build", _rep_bytes),
        (cli, "mixed_rep", "audit.rep_build", _rep_bytes),
        (cli, "make_condition2_violator", "audit.rep_build", _rep_bytes),
        (cli, "check_condition1", "audit.c1", None),
        (cli, "check_condition2", "audit.c2", None),
        (cli, "check_condition3", "audit.c3", None),
        (cli, "check_span", "audit.span", None),
        (cli, "wigner_as_rep", "wigner.rep_build", _rep_bytes),
        (cli, "discrete_wigner", "wigner.table", None),
        (cli, "condition3_violation_report", "wigner.report", None),
        (cli, "coupling_sweep", "pointer.sweep", _grid_points),
        (kio, "load_state", "io.parse", _file_bytes),
        (kio, "load_kd", "io.parse", _file_bytes),
        (kio, "resolve_basis", "io.parse", _basis_bytes),
        (kio, "kd_to_dict", "io.serialize", None),
        (kio, "kd_to_csv", "io.serialize", _out_bytes),
        (kio, "state_to_dict", "io.serialize", None),
        (kio, "wigner_to_dict", "io.serialize", None),
        (kio, "wigner_to_csv", "io.serialize", _out_bytes),
        (kio, "sweep_to_csv", "io.serialize", _out_bytes),
        (kio, "report_to_json", "io.serialize", _out_bytes),
    ):
        targets.append((owner, attr, w(span, getattr(owner, attr), count)))
    return targets


# ---------------------------------------------------------------------------
# children


class Context:
    """Where a run works: the checkout, its scratch directory, the child environment."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def run_child(self, args: list[str]) -> tuple[float, int, str, str, float]:
        """Run ``python <args>`` to completion: latency, exit code, stdout, stderr, peak RSS (MB)."""
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=self.work,
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own rusage; RUSAGE_CHILDREN would only grow
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return latency, proc.returncode, out_path.read_text(), err_path.read_text(), usage.ru_maxrss / 1024

    def check_child_kdq(self) -> None:
        """Import kdq.cli in a child and fail unless it resolves inside the checkout."""
        _, code, out, err, _ = self.run_child(["-c", "import kdq.cli; print(kdq.cli.__file__)"])
        if code != 0 or self.root not in Path(out.strip() or "?").resolve().parents:
            raise RuntimeError(f"child kdq resolves to {out.strip() or err.strip()!r}, outside {self.root}")
