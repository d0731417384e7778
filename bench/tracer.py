"""Spans around nilcirc's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function of the library modules,
and ``cli.main``, with a wrapper that records a span. The name is patched in
every ``nilcirc`` module that imported the function, so calls through
``from .numutil import is_prime`` are traced too. ``uninstall`` restores the
originals. A span holds its function, start, end, parent span and query id.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import random
import statistics
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LIBRARY_MODULES = ("numutil", "circring", "nilpotence", "congruence", "oracle")
# Only cli.main is wrapped in cli, so its self time is argparse, rendering and
# output: everything the CLI does outside the library.
CLI_FUNCTIONS = ("main",)
SPAN_CAP = 250_000  # spans kept for the span file; the aggregates count every call


def _targets() -> dict[str, object]:
    """Qualified name -> function, for every function the tracer wraps."""
    found = {}
    for short in LIBRARY_MODULES:
        mod = sys.modules[f"nilcirc.{short}"]
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if fn.__module__ == mod.__name__ and not name.startswith("_"):
                found[f"{short}.{name}"] = fn
    cli = sys.modules["nilcirc.cli"]
    for name in CLI_FUNCTIONS:
        found[f"cli.{name}"] = getattr(cli, name)
    return found


class Tracer:
    def __init__(self) -> None:
        targets = _targets()
        self.names = list(targets)
        self.functions = list(targets.values())
        k = len(self.names)
        self.calls = [0] * k
        self.self_ns = [0] * k
        self.durations = [array("q") for _ in range(k)]
        self.edges: Counter = Counter()  # (parent function, child function) -> calls
        self.tuples_enumerated = 0
        self.query = 0  # id of the CLI call in progress, set by the caller
        self.dropped = 0
        self._stack: list[list[int]] = []  # open spans: [child ns, function, span id]
        self._next = 0
        self._origin = time.perf_counter_ns()
        self._spans = {col: array("q") for col in ("span", "function", "start_ns",
                                                   "end_ns", "parent", "query")}
        self._patched: list[tuple[object, str, object]] = []

    def fid(self, name: str) -> int:
        return self.names.index(name)

    def install(self) -> None:
        wrapped = {id(fn): (fn, self._wrap(fid, fn)) for fid, fn in enumerate(self.functions)}
        for modname, mod in list(sys.modules.items()):
            if modname != "nilcirc" and not modname.startswith("nilcirc."):
                continue
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrapped.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, fid: int, fn):
        stack, calls, self_ns, durs = self._stack, self.calls, self.self_ns, self.durations[fid]
        edges, spans, clock = self.edges, self._spans, time.perf_counter_ns
        cols = [spans[c] for c in ("span", "function", "start_ns", "end_ns", "parent", "query")]
        counts_tuples = self.names[fid] == "congruence.counts_by_target"
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._next
            tracer._next = span + 1
            frame = [0, fid, span]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[fid] += 1
                self_ns[fid] += dur - frame[0]
                durs.append(dur)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += dur
                edges[(parent[1] if parent else -1, fid)] += 1
                if span < SPAN_CAP:
                    row = (span, fid, start - tracer._origin, end - tracer._origin,
                           parent[2] if parent else -1, tracer.query)
                    for col, value in zip(cols, row):
                        col.append(value)
                else:
                    tracer.dropped += 1
            if counts_tuples:
                tracer.tuples_enumerated += sum(result)  # the histogram sums to m**q
            return result

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------------

    def stats(self, name: str) -> tuple[int, float, float, float]:
        """(calls, self seconds, inclusive us per call, inclusive p99 ms)."""
        fid = self.fid(name)
        calls, durs = self.calls[fid], self.durations[fid]
        if not calls:
            return 0, 0.0, 0.0, 0.0
        p99 = sorted(durs)[max(0, -(-99 * calls // 100) - 1)]
        return calls, self.self_ns[fid] / 1e9, sum(durs) / calls / 1e3, p99 / 1e6

    def write(self, path: Path) -> None:
        """The span table as gzipped JSON, rows ordered by span id."""
        cols = list(self._spans)
        rows = sorted(zip(*self._spans.values()))
        payload = {"functions": self.names, "columns": cols, "spans": rows,
                   "dropped": self.dropped}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def ring_probe(circring, sizes, seed: int, modulus: int = 3) -> dict[int, float]:
    """Median microseconds per `circring.mul` on seeded random dense elements."""
    rng = random.Random(seed)
    out = {}
    for n in sizes:
        a, b = (circring.CirculantElem(n, modulus, tuple(rng.randrange(modulus)
                                                         for _ in range(n)))
                for _ in range(2))
        start = time.perf_counter()
        circring.mul(a, b)
        batch = max(1, int(0.02 / (time.perf_counter() - start)))
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(batch):
                circring.mul(a, b)
            samples.append((time.perf_counter() - start) / batch * 1e6)
        out[n] = statistics.median(samples)
    return out
