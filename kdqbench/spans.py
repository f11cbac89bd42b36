"""Span recorder for the traced run.

A span is ``{name, start, end, parent, op_id}``.  Spans are recorded from
the benchmark's own files, by wrapping the functions at the names through
which ``kdq.cli`` (or the benchmark itself) looks them up, so nothing in
``src/`` changes.  Spans stay in memory and are written out once, when the
run ends.  A span name is ``<layer>.<stage>``; a layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("cli", "io", "hilbert", "kd", "audit", "wigner", "pointer")


class Tracer:
    """In-memory span stack plus the counts taken at the same boundaries."""

    def __init__(self, error_type: type[BaseException]):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._error_type = error_type
        self.factors: dict[int, float] = {}  # op_id -> machine-speed factor
        self._stack: list[int] = []
        self._op_id: int | None = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op_id": self._op_id}
        )
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter()
        self._stack.pop()

    def _charge(self, exc: BaseException, layer: str) -> None:
        # an error is charged once, to the innermost span it left
        if isinstance(exc, self._error_type) and not getattr(exc, "_kdqbench_charged", False):
            exc._kdqbench_charged = True
            self.errors[layer] += 1

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; every span opened inside carries ``op_id``."""
        self._op_id = op_id
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)
            self._op_id = None

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(counts, result, *args, **kwargs)`` runs on success."""
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._charge(exc, layer)
                raise
            finally:
                self._close(idx)
            if count is not None:
                count(self.counts, result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> Counter:
        """Self time per span name, each op's spans scaled by its factor."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        out: Counter = Counter()
        for s, cov in zip(self.spans, covered):
            out[s["name"]] += (s["end"] - s["start"] - cov) * self.factors.get(s["op_id"], 1.0)
        return out

    def calls(self) -> Counter:
        return Counter(s["name"] for s in self.spans)

    def dump(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


@contextmanager
def patched(targets):
    """Temporarily replace ``(owner, attr, value)`` attributes, restoring them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
