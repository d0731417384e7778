"""Benchmark of the nilcirc command line, driven in-process through cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports nilcirc from ./src.
Each workload is a closed loop from one client: a stream of `cli.main(argv)`
calls drawn from --seed, each issued after the previous one returned.

--trace 0 measures the end-to-end metrics for S seconds (whole units: a scan
cycle or a query block), with times normalized to a reference machine speed
(speed.py). --trace 1 runs every call of a fixed number of units twice, once
plain and once with spans around every public library function, and reports
the per-layer metrics, the tracing overhead and the ring probe. Every output is
checked outside the timed interval; the last line of stdout is the result,
the line before it the full report, which is also written to .bench_out/.
The exit code is 1 when any call failed or gave a wrong answer.

    python3 bench/run.py --record-digests

rewrites bench/digests.json from the current code (closed_scan's gate).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_SPAWNS = 9  # interpreter starts per run; setup_s is their median
SECONDS_PER_TRACE_UNIT = 15  # --trace 1 runs max(1, seconds // 15) units
PROBE_SIZES = (16, 48, 128, 512, 2048)

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# failed_frac is in the report only: it is 0 when the code is correct, and any
# failure already fails the run (exit 1, "correct": false).
PER_LAYER = {
    "circring.mul.calls": "count",
    "circring.mul.self_s": "s",
    "circring.mul.us_per_call": "us",
    "circring.power.calls": "count",
    "circring.power.self_s": "s",
    "circring.is_zero.calls": "count",
    "oracle.min_nilpotent_index.calls": "count",
    "oracle.min_nilpotent_index.self_s": "s",
    "oracle.muls_per_search": "count",
    "nilpotence.decide_zp.us_per_call": "us",
    "nilpotence.decide_zm.us_per_call": "us",
    "nilpotence.decide_zm_via_primes.us_per_call": "us",
    "nilpotence.witness_nonvanishing.self_s": "s",
    "numutil.is_prime.calls": "count",
    "numutil.is_prime.calls_per_cell": "count",
    "numutil.p_adic_valuation.self_s": "s",
    "numutil.factorize.calls": "count",
    "numutil.factorize.self_s": "s",
    "numutil.factorize.p99_ms": "ms",
    "congruence.counts_by_target.self_s": "s",
    "congruence.tuples_enumerated": "count",
    "congruence.count_recursive.calls": "count",
    "congruence.count_recursive.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    **{f"circring.mul.us_per_call.n{n}": "us" for n in PROBE_SIZES},
    "trace.ops_per_s_untraced": "1/s",
    "trace.ops_per_s_traced": "1/s",
    "trace.overhead": "ratio",
}


@dataclass
class Tally:
    """What one pass over a list of units did."""

    attempted: int = 0
    failed: int = 0
    cells: int = 0
    output_bytes: int = 0
    unit_cells: list = field(default_factory=list)
    unit_times: list = field(default_factory=list)  # per unit: seconds of each call
    unit_windows: list = field(default_factory=list)  # per unit: speed samples of each call
    problems: list = field(default_factory=list)

    def ops_per_s(self) -> float:
        """Cells per second over the whole pass, in raw time."""
        return self.cells / sum(map(sum, self.unit_times))


def run_unit(cli, unit, tally: Tally, trace=None, sampler=None) -> None:
    times, windows = [], []
    for op in unit:
        out, err = io.StringIO(), io.StringIO()
        if trace is not None:
            trace.query = tally.attempted
        first, stolen = (len(sampler.samples), sampler.stolen) if sampler else (0, 0.0)
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(op.argv)
            except Exception as exc:  # a traceback is a failed call, not a crashed run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if sampler:
            elapsed -= sampler.stolen - stolen
            windows.append((first, len(sampler.samples)))
        times.append(elapsed)
        tally.attempted += 1
        problem = _judge(op, code, out.getvalue(), err.getvalue())
        tally.output_bytes += len(out.getvalue())
        if op.out is not None and op.out.exists():
            tally.output_bytes += op.out.stat().st_size
            op.out.unlink()
        if problem:
            tally.failed += 1
            if len(tally.problems) < 20:
                tally.problems.append(f"{' '.join(op.argv)}: {problem}")
    cells = sum(op.cells for op in unit)
    tally.cells += cells
    tally.unit_cells.append(cells)
    tally.unit_times.append(times)
    tally.unit_windows.append(windows)


def _judge(op, code, out: str, err: str):
    if code != op.expect:
        return f"exit {code!r}, expected {op.expect}; stderr {err[-300:]!r}"
    try:
        return op.check(out, err)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def setup_seconds() -> list[tuple[float, float]]:
    """(seconds, slowness) per spawn: start an interpreter, import nilcirc.cli, build_parser().

    The child prints its CLOCK_MONOTONIC reading once build_parser returns.
    The machine's speed is sampled just before and after each spawn. The
    first spawn fills the bytecode cache and is not counted.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            "import nilcirc.cli; nilcirc.cli.build_parser(); print(time.monotonic_ns())")
    out = []
    for _ in range(SETUP_SPAWNS + 1):
        before = speed.calibrate()
        start = time.monotonic_ns()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        seconds = (int(done.stdout) - start) / 1e9
        out.append((seconds, (before + speed.calibrate()) / 2 / speed.REFERENCE_S))
    return out[1:]


def unit_metrics(units: list, cells: list) -> dict:
    """ops_per_s and call-time percentiles, each computed per unit of call times.

    Every unit of a workload has the same composition, so per-unit figures
    are comparable. The median over units discards a unit that a burst of
    load from another process slowed down.
    """
    return {
        "ops_per_s": statistics.median(c / sum(t) for c, t in zip(cells, units)),
        "query_p50_ms": statistics.median(statistics.median(t) for t in units) * 1e3,
        "query_p99_ms": statistics.median(percentile(t, 99) for t in units) * 1e3,
    }


def timed_run(cli, units, seconds: float) -> tuple[dict, Tally, dict]:
    setup = setup_seconds()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    with speed.Sampler() as sampler:
        for unit in units:
            run_unit(cli, unit, tally, sampler=sampler)
            if time.perf_counter() >= deadline:
                break
    normalized = [[t / sampler.slowness(*w) for t, w in zip(times, windows)]
                  for times, windows in zip(tally.unit_times, tally.unit_windows)]
    metrics = {
        "setup_s": statistics.median(t / k for t, k in setup),
        **unit_metrics(normalized, tally.unit_cells),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {"setup_s": statistics.median(t for t, _ in setup),
           **unit_metrics(tally.unit_times, tally.unit_cells),
           "slowness_median": statistics.median(s / speed.REFERENCE_S for s in sampler.samples)}
    return metrics, tally, raw


def traced_run(cli, units, seconds: float, seed: int, spans_path: Path) -> tuple[dict, Tally, dict]:
    fixed = list(islice(units, max(1, int(seconds) // SECONDS_PER_TRACE_UNIT)))
    plain, traced, trace = Tally(), Tally(), tracer.Tracer()
    # Each call runs plain and then traced, so that both see the same machine
    # speed and their ratio is the tracing overhead.
    for op in (op for unit in fixed for op in unit):
        run_unit(cli, [op], plain)
        trace.install()
        try:
            run_unit(cli, [op], traced, trace)
        finally:
            trace.uninstall()
    trace.write(spans_path)

    metrics = {}
    for name in ("circring.mul", "circring.power", "circring.is_zero",
                 "oracle.min_nilpotent_index", "nilpotence.decide_zp",
                 "nilpotence.decide_zm", "nilpotence.decide_zm_via_primes",
                 "nilpotence.witness_nonvanishing", "numutil.is_prime",
                 "numutil.p_adic_valuation", "numutil.factorize",
                 "congruence.counts_by_target", "congruence.count_recursive", "cli.main"):
        calls, self_s, us_per_call, p99_ms = trace.stats(name)
        metrics.update({f"{name}.calls": calls, f"{name}.self_s": self_s,
                        f"{name}.us_per_call": us_per_call, f"{name}.p99_ms": p99_ms})
    searches = metrics["oracle.min_nilpotent_index.calls"]
    in_search = trace.edges[(trace.fid("oracle.min_nilpotent_index"), trace.fid("circring.mul"))]
    metrics["oracle.muls_per_search"] = in_search / searches if searches else 0.0
    metrics["numutil.is_prime.calls_per_cell"] = metrics["numutil.is_prime.calls"] / traced.cells
    metrics["congruence.tuples_enumerated"] = trace.tuples_enumerated
    metrics["cli.output_bytes"] = traced.output_bytes
    import nilcirc.circring
    for n, us in tracer.ring_probe(nilcirc.circring, PROBE_SIZES, seed).items():
        metrics[f"circring.mul.us_per_call.n{n}"] = us
    metrics["trace.ops_per_s_untraced"] = plain.ops_per_s()
    metrics["trace.ops_per_s_traced"] = traced.ops_per_s()
    metrics["trace.overhead"] = plain.ops_per_s() / traced.ops_per_s()
    metrics = {k: v for k, v in metrics.items() if k in PER_LAYER}
    plain.attempted += traced.attempted
    plain.failed += traced.failed
    plain.problems += traced.problems
    return metrics, plain, {"spans_dropped": trace.dropped}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record_digests(cli) -> None:
    tmp = OUT_DIR / "digests"
    tmp.mkdir(parents=True, exist_ok=True)
    digests = {}
    for key, argv, _ in workloads.closed_configs():
        out = tmp / "scan.out"
        if cli.main(argv + ["--out", str(out)]) != 0:
            sys.exit(f"scan failed: {argv}")
        digests[key] = hashlib.sha256(out.read_bytes()).hexdigest()
        print(key, digests[key], flush=True)
    shutil.rmtree(tmp)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if not (SRC / "nilcirc" / "cli.py").is_file():
        print(f"error: no nilcirc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from nilcirc import cli

    if args.record_digests:
        record_digests(cli)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    cpus = os.cpu_count() or 1
    stamp = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "cpu_count": cpus,
        "python": platform.python_version(), "loadavg_1m_start": os.getloadavg()[0],
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = OUT_DIR / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        units = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            metrics, tally, extra = traced_run(cli, units, args.seconds, args.seed,
                                               OUT_DIR / f"spans-{tag}.json.gz")
            units_of = PER_LAYER
        else:
            metrics, tally, extra = timed_run(cli, units, args.seconds)
            units_of = END_TO_END
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stamp["loadavg_1m_end"] = os.getloadavg()[0]
    stamp["overloaded"] = max(stamp["loadavg_1m_start"], stamp["loadavg_1m_end"]) > cpus

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units_of.items()},
    }
    report = {
        "stamp": stamp,
        "failed_frac": {"value": tally.failed / tally.attempted, "unit": "fraction"},
        "cells": tally.cells,
        "problems": tally.problems,
        "extra": extra,
        **result,
    }
    (OUT_DIR / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
