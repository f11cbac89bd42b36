"""Benchmark of the kdq checkout this file sits in.

    python3 kdqbench/run.py --workload {kd-stream,cli-mix,audit-cli} \\
        --seed N --seconds S --trace {0,1}

Set-up runs once for the ops, then ``SETUP_REPEATS`` more times, each in a
fresh interpreter (``--setup-only``) timed from its spawn; every set-up must
give the same input hash.
``--trace 0`` then runs whole rounds of the workload's ops until
``--seconds`` have passed and reports the end-to-end metrics.
``--trace 1`` replays one fixed op list in-process three times (untraced,
inside spans, under tracemalloc; see ``spans.py``) and reports the
per-layer metrics.  Timings are scaled by ``SpeedProbe``.  Human-readable
lines come first; the last
line of standard output is one JSON object
``{correct, attempted, failed, metrics}``.  BENCHMARK.json beside this
directory lists the metrics; METRICS.md says which end-to-end metric each
layer metric should move, and on which workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

TIMED_SPANS = (
    "io.parse", "io.serialize", "hilbert.validate",
    "kd.transform", "kd.inverse", "kd.marginal", "kd.weak_value", "kd.total_probability",
    "audit.rep_build", "audit.c1", "audit.c2", "audit.c3", "audit.span",
    "wigner.table", "wigner.report", "wigner.rep_build", "pointer.sweep",
)
COUNTS = {"io.bytes_in": "bytes", "io.bytes_out": "bytes", "audit.dense_bytes": "bytes", "pointer.grid_points": "count"}


def _die(message: str) -> None:
    print(f"kdqbench: {message}", file=sys.stderr)
    sys.exit(2)


def _one_blas_thread() -> None:
    """One BLAS thread for this process and its children; must run before numpy is imported.

    At these matrix sizes a second OpenBLAS thread only spins: on 2 cores it
    doubled CPU time in kd-stream without raising throughput.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads() -> int | None:
    """Threads OpenBLAS reports in use, or None when the library cannot be queried."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _tail_lines(latencies: list[float]) -> list[str]:
    lat, out = sorted(latencies), []
    for name, q in (("op_p90_s", 0.90), ("op_p99_s", 0.99)):
        beyond = len(lat) - math.ceil(q * len(lat))
        if beyond >= 10:
            out.append(f"{name} {_percentile(lat, q):.6g} s (n={len(lat)}, {beyond} beyond)")
        else:
            out.append(f"{name} not reported: {beyond} samples beyond it, 10 needed (n={len(lat)})")
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class SpeedProbe:
    """A fixed kernel, timed between measurements to track the machine's speed.

    On a shared host the speed of a core drifts by +-25% within seconds,
    independently per core.  Every timing the benchmark reports is scaled
    by ``ref_s / probe``, averaged over the probes just before and after it,
    so it reads as seconds on a machine where the kernel takes ``ref_s``.
    No kernel uses kdq code, so no change to kdq can move it.
    """

    def __init__(self, kernel: Callable[[], float], ref_s: float):
        self._kernel, self.ref_s = kernel, ref_s
        kernel()  # the first call pays one-off set-up
        self.last = kernel()

    def scale(self) -> float:
        """Speed factor for the work done since the previous call."""
        before, self.last = self.last, self._kernel()
        return self.ref_s / ((before + self.last) / 2)


def _compute_probe() -> SpeedProbe:
    """About 10 ms of the kinds of work the ops do, in this process: the probe for ops.

    A Python loop, calls on small complex matrices, and 256x256 matmuls.
    Without the last two (a loop and 48x48 ``eigvalsh`` only), op times
    tracked the probe two to four times less closely; see METRICS.md.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    smalls = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in (2, 3, 4, 8, 16)]
    big = rng.standard_normal((256, 256))

    def kernel() -> float:
        t0 = time.perf_counter()
        x = 0
        for i in range(15000):
            x += i * i
        for _ in range(30):
            for a in smalls:
                h = a @ a.conj().T
                np.linalg.eigvalsh(h)
                np.allclose(h, h.conj().T)
        for _ in range(3):
            big @ big
        return time.perf_counter() - t0

    return SpeedProbe(kernel, 0.01)


def _cold_start_probe(ctx) -> SpeedProbe:
    """A child that only imports numpy, about 0.2 s: the probe for timings of fresh interpreters.

    Those are mostly interpreter start and imports, which track this probe
    more closely than a compute probe.  On a shared 2-core VM, over six
    seeds run interleaved, cli-mix set-up times spread 1.7% (IQR/median)
    scaled by this probe and 10.5% scaled by an earlier compute probe.
    """
    return SpeedProbe(lambda: ctx.run_child(["-c", "import numpy"])[0], 0.2)


def _end_to_end(w, seconds: float, setups: list[float], probe: SpeedProbe) -> tuple[dict, list[str], int, list[str]]:
    latencies, raw_latencies, failures, rss_mb = [], [], [], 0.0
    scaled_busy = raw_busy = 0.0
    probe.scale()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for i in range(0, len(w.ops), w.ops_per_probe):
            t0, chunk = time.perf_counter(), []
            for op in w.ops[i : i + w.ops_per_probe]:
                latency, failure, op_rss = w.run(op)
                chunk.append(latency)
                if failure:
                    failures.append(failure)
                if op_rss is not None:
                    rss_mb = max(rss_mb, op_rss)
            busy = time.perf_counter() - t0
            factor = probe.scale()
            raw_busy += busy
            scaled_busy += busy * factor
            raw_latencies += chunk
            latencies += [lat * factor for lat in chunk]
    elapsed = time.perf_counter() - start
    if not rss_mb:  # in-process workload: this process, read after warm-up and the timed phase
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n, passed = len(latencies), len(latencies) - len(failures)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "ops_per_s": _metric(passed / scaled_busy, "1/s"),
        "op_p50_s": _metric(statistics.median(latencies), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s']['value']:.6g} s (median of {len(setups)} set-ups in fresh interpreters)",
        f"ops_per_s {metrics['ops_per_s']['value']:.6g} 1/s (n={n} ops, {n // len(w.ops)} rounds; "
        f"unscaled {passed / raw_busy:.6g} 1/s; {elapsed:.3f} s wall including probes)",
        f"op_p50_s {metrics['op_p50_s']['value']:.6g} s (n={n}; unscaled {statistics.median(raw_latencies):.6g} s)",
        *_tail_lines(latencies),
        f"fail_ratio {len(failures) / n:.6g} ({len(failures)}/{n})",
        f"peak_rss_mb {rss_mb:.6g} MB",
        f"machine speed: probe {probe.last * 1e3:.3f} ms at the end, {probe.ref_s * 1e3:g} ms nominal",
    ]
    return metrics, lines, n, failures


def _replay(w, probe: SpeedProbe, tracer=None) -> tuple[list[str], float]:
    """Replay the workload's fixed op list in-process: failures and scaled seconds."""
    ops, failures, scaled = w.replay_ops(), [], 0.0
    probe.scale()
    with w.replaying(tracer):
        for i in range(0, len(ops), w.ops_per_probe):
            chunk = range(i, min(i + w.ops_per_probe, len(ops)))
            t0 = time.perf_counter()
            failures += [f for f in (w.replay(ops[j], j, tracer) for j in chunk) if f]
            busy = time.perf_counter() - t0
            factor = probe.scale()
            scaled += busy * factor
            if tracer is not None:
                tracer.factors.update(dict.fromkeys(chunk, factor))
    return failures, scaled


def _per_layer(w, ctx, probe: SpeedProbe, cold: SpeedProbe, kdq_error) -> tuple[dict, list[str], int, list[str]]:
    from spans import LAYERS, Tracer

    import_s = 0.0
    if w.name != "kd-stream":  # median of children that only import kdq.cli
        times = []
        for _ in range(5):
            cold.scale()
            times.append(ctx.run_child(["-c", "import kdq.cli"])[0] * cold.scale())
        import_s = statistics.median(times)
    failures, untraced = _replay(w, probe)
    tracer = Tracer(kdq_error)
    more, traced = _replay(w, probe, tracer)
    failures += more

    # a pass of its own, because tracemalloc slows every allocation and
    # would inflate the self times of the allocation-heavy layers
    tracemalloc.start()
    failures += _replay(w, probe)[0]
    alloc_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    self_s, calls = tracer.self_times(), tracer.calls()
    metrics = {"cli.import_s": _metric(import_s, "s"), "cli.self_s": _metric(self_s["cli.main"], "s")}
    for span in TIMED_SPANS:
        metrics[f"{span}_s"] = _metric(self_s[span], "s")
    metrics["hilbert.validate_calls"] = _metric(calls["hilbert.validate"], "count")
    metrics["kd.calls"] = _metric(sum(c for name, c in calls.items() if name.startswith("kd.")), "count")
    for name, unit in COUNTS.items():
        metrics[name] = _metric(tracer.counts[name], unit)
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = _metric(tracer.errors[layer], "count")
    metrics["trace.overhead_s"] = _metric(traced - untraced, "s")
    metrics["trace.alloc_peak_mb"] = _metric(alloc_peak / 2**20, "MB")

    ops = len(w.replay_ops())
    root = sum((s["end"] - s["start"]) * tracer.factors[s["op_id"]] for s in tracer.spans if s["parent"] is None)
    audit_self = sum(v for k, v in self_s.items() if k.startswith("audit."))
    lines = [
        f"replayed ops {ops} (scaled times): untraced {untraced:.4f} s, traced {traced:.4f} s, "
        f"in root spans {root:.4f} s"
    ]
    for k, v in metrics.items():
        value = f"{v['value']:.6g}" if isinstance(v["value"], float) else v["value"]
        lines.append(f"{k} {value} {v['unit']}")
    lines.append(f"audit.* self time share of op time {audit_self / root:.3f}" if root else "no spans")
    out = ROOT / ".kdqbench" / f"spans-{w.name}-seed{ctx.seed}.jsonl"
    tracer.dump(out, {"workload": w.name, "seed": ctx.seed, "ops": ops, "factors": tracer.factors})
    lines.append(f"spans written to {out.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics, lines, 3 * ops, failures


def _cold_setup(ctx, args) -> tuple[float, str]:
    """One set-up in a fresh interpreter: seconds from spawning it to the end of its set-up, and its input hash.

    The child reads CLOCK_MONOTONIC when set-up ends; that clock is
    system-wide on Linux, so the reading compares with this process's.
    """
    argv = [str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--setup-only"]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    _, code, out, err, _ = ctx.run_child(argv)
    if code != 0:
        _die(f"set-up child exited {code}: {err.strip()[-300:]}")
    done = json.loads(out.strip().splitlines()[-1])
    return done["end"] - t0, done["digest"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["kd-stream", "cli-mix", "audit-cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "kdq" / "__init__.py").is_file():
        _die(f"no kdq package under {src}; run from a checkout of the repository")
    _one_blas_thread()
    nproc = len(os.sched_getaffinity(0))
    # one core for this process and its children, so the speed probe runs
    # on the core the ops run on; a closed loop with one client needs no more
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(src))
    import numpy as np

    import kdq

    if ROOT not in Path(kdq.__file__).resolve().parents:
        _die(f"kdq resolves to {kdq.__file__}, outside the checkout {ROOT}")
    from workloads import WORKLOADS, Context

    (ROOT / ".kdqbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".kdqbench"))
    try:
        ctx = Context(ROOT, work, args.seed)
        w = WORKLOADS[args.workload](ctx)
        if args.setup_only:
            digest = w.setup(args.seed)
            print(json.dumps({"digest": digest, "end": time.clock_gettime(time.CLOCK_MONOTONIC)}))
            return 0
        digests = [w.setup(args.seed)]  # the inputs the ops run on, untimed
        cold = _cold_start_probe(ctx)
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, digest = _cold_setup(ctx, args)
            setups.append(seconds * cold.scale())
            digests.append(digest)
        probe = _compute_probe()
        print(f"workload {w.name} seed {args.seed} trace {args.trace} seconds {args.seconds:g}")
        print(
            f"python {platform.python_version()} numpy {np.__version__} kdq {kdq.__version__} "
            f"({Path(kdq.__file__).resolve().relative_to(ROOT)}) nproc {nproc} pinned to cpu {cpu} "
            f"blas_threads {_blas_threads()}"
        )
        print(
            f"inputs sha256 {digests[0]} ({len(w.ops)} ops per round, "
            f"same on {len(digests)} set-ups: {len(set(digests)) == 1})"
        )
        if args.trace:
            metrics, lines, attempted, failures = _per_layer(w, ctx, probe, cold, kdq.KdqError)
        else:
            metrics, lines, attempted, failures = _end_to_end(w, args.seconds, setups, probe)
        print("\n".join(lines))
        for failure in sorted(set(failures))[:10]:
            print(f"FAILED {failure}")
        correct = not failures and len(set(digests)) == 1
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
