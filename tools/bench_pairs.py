"""Paired benchmark runs of two source trees, written as one BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT CHANGE --out BENCH_tag.json --what TEXT
        --trace-workload W [--parent-commit SHA] [--change-commit SHA]
        [--pairs 10] [--first-seed 1]

PARENT and CHANGE are the roots of two checkouts, each with its own bench/ and
src/ (make them with `git archive REV | tar -x -C DIR`, so that neither holds a
bytecode cache or uncommitted files; a tree with a __pycache__ under src/ or
bench/ is refused before any run). For every workload in CHANGE's
BENCHMARK.json the script runs --pairs alternating pairs of
`python3 bench/run.py --seconds S --trace 0`, S being that file's run_seconds,
one per seed from --first-seed on: odd pairs run the parent first, even pairs
the change first. Each side then runs once with --trace 1 --seconds 0 on
--trace-workload at --first-seed, which is one traced unit (bench/run.py runs
max(1, seconds // 15) of them); of that run only the counts are kept (see
trace_counts). The end-to-end metrics, their directions and bounds come from
the same file too.

Only the standard library is used, and nothing is run in parallel: the runs
share the machine with nothing but each other.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

QUARTILES = "statistics.quantiles(n=4, method='inclusive')"
TRACE_SECONDS = 0  # of the --trace 1 run: bench/run.py runs at least one unit


def src_sha256(tree: Path) -> str:
    """Digest of every file under tree/src/nilcirc: relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src" / "nilcirc").rglob("*.py")):
        digest.update(str(path.relative_to(tree)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def bytecode_caches(tree: Path) -> list:
    """The __pycache__ directories under tree/src and tree/bench. A tree that has
    them starts its interpreters faster than one that compiles on the way: one
    cached tree beside an uncached one read setup_s 0.059-0.064 s against
    0.070-0.082 s, with no change to the code that starts."""
    return sorted(path for part in ("src", "bench") for path in (tree / part).rglob("__pycache__"))


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One bench/run.py run in tree; its full report (the second-to-last stdout line)."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:  # 1: a call failed or was wrong
        sys.exit(f"{' '.join(argv)} in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    report = json.loads(lines[-2])
    print(f"{tree} {workload} seed {seed} trace {trace}: correct {report['correct']}",
          file=sys.stderr)
    return report


def run_row(side: str, seed: int, first: str, report: dict) -> dict:
    stamp = report["stamp"]
    return {
        "side": side, "seed": seed, "first": first,
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "failed_frac": report["failed_frac"]["value"],
        "metrics": {k: v["value"] for k, v in report["metrics"].items()},
        "unnormalized": report["extra"],
        "loadavg_1m": [stamp["loadavg_1m_start"], stamp["loadavg_1m_end"]],
        "overloaded": stamp["overloaded"], "cpu_count": stamp["cpu_count"],
        "python": stamp["python"],
    }


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def trace_counts(report: dict, per_layer: list) -> dict:
    """The per-layer metrics of a traced report whose declared unit is count or B,
    and its correct flag. One traced unit a side repeats its counts but not its
    times, which swing far more than the untraced pairs do."""
    counted = {m["name"] for m in per_layer if m["unit"] in ("count", "B")}
    return {**{k: v["value"] for k, v in report["metrics"].items() if k in counted},
            "correct": report["correct"]}


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles and pair wins of one metric; parent[i], change[i] form pair i."""
    p, c = spread(parent), spread(change)
    ratio = c["median"] / p["median"]
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_over_parent": ratio,
        "change_wins": f"{wins}/{len(parent)}",
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "worse_by": (1 - ratio) if better == "higher" else (ratio - 1),
        "bound": bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--what", required=True, help="one line: the change measured")
    parser.add_argument("--parent-commit", default="unknown")
    parser.add_argument("--change-commit", default="unknown")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace-workload", required=True)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")

    for tree in (args.parent, args.change):
        if cached := bytecode_caches(tree):
            sys.exit(f"{tree} holds a bytecode cache, {cached[0]}: pair only trees"
                     " without one, such as fresh `git archive` copies")

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in declared["end_to_end"]}
    workloads = [w["name"] for w in declared["workloads"]]
    run_seconds = declared["run_seconds"]  # of every --trace 0 run, on both sides
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    result = {
        "what": args.what,
        "command": (f"python3 bench/run.py --workload W --seed S --seconds {run_seconds}"
                    " --trace 0, in each tree"),
        "pairing": ("pair i runs seed i on both sides; odd pairs run the parent first,"
                    " even pairs the change first"),
        "normalization": ("each run's metrics are bench/run.py's, with times normalized by"
                          " its machine-speed probe (bench/speed.py); 'unnormalized' holds"
                          " the raw values and the slowness factor"),
        "quartiles": QUARTILES,
        "parent": {"commit": args.parent_commit, "src_sha256": src_sha256(trees["parent"])},
        "change": {"commit": args.change_commit, "src_sha256": src_sha256(trees["change"])},
        "workloads": {},
    }
    all_runs = []
    for workload in workloads:
        runs = []
        for i, seed in enumerate(seeds, 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                report = bench(trees[side], workload, seed, run_seconds, 0)
                runs.append(run_row(side, seed, order[0], report))
        of = {side: [r for r in runs if r["side"] == side] for side in trees}
        result["workloads"][workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "failed_frac_max": max(r["failed_frac"] for r in runs),
            "all_correct": all(r["correct"] for r in runs),
            "summary": {
                name: summarize([r["metrics"][name] for r in of["parent"]],
                                [r["metrics"][name] for r in of["change"]],
                                m["better"], m["bound"])
                for name, m in end_to_end.items()
            },
            "runs": runs,
        }
        all_runs += runs

    loads = [x for r in all_runs for x in r["loadavg_1m"]]
    result["machine"] = {
        "cpu_count": sorted({r["cpu_count"] for r in all_runs}),
        "python": sorted({r["python"] for r in all_runs}),
        "loadavg_1m_min": min(loads),
        "loadavg_1m_max": max(loads),
        "overloaded_runs": sum(r["overloaded"] for r in all_runs),
    }
    result["trace"] = {
        "command": (f"python3 bench/run.py --workload {args.trace_workload}"
                    f" --seed {args.first_seed} --seconds {TRACE_SECONDS} --trace 1"),
    }
    for side, tree in trees.items():
        report = bench(tree, args.trace_workload, args.first_seed, TRACE_SECONDS, 1)
        result["trace"][side] = trace_counts(report, declared["per_layer"])
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
