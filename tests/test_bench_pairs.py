"""The paired-run recorder behind the committed BENCH_*.json files.

Nothing here launches a benchmark run: bench() is replaced by a stub that fails
the test if it is ever called, or by one that records its calls.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.fixture(autouse=True)
def no_bench_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a test launched a bench run")

    monkeypatch.setattr(bench_pairs, "bench", refuse)


def test_spread_is_inclusive_quartiles():
    assert bench_pairs.spread([1, 2, 3, 4, 5]) == {"median": 3, "q1": 2, "q3": 4}
    # order does not matter, and two values are enough
    assert bench_pairs.spread([4, 2]) == {"median": 3.0, "q1": 2.5, "q3": 3.5}


def test_summarize_higher_is_better():
    row = bench_pairs.summarize([10, 11, 12, 13], [30, 31, 9, 33], "higher", 0.25)
    assert row["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert row["change_over_parent"] == pytest.approx(30.5 / 11.5)
    assert row["change_wins"] == "3/4"  # pair 3 lost: 9 < 12
    assert row["median_gap_exceeds_parent_iqr"] is True
    assert row["worse_by"] == pytest.approx(1 - 30.5 / 11.5)
    assert row["bound"] == 0.25


def test_summarize_lower_is_better_and_ties_count_for_neither():
    row = bench_pairs.summarize([5, 5, 6], [5, 4, 7], "lower", 0.1)
    assert row["change_wins"] == "1/3"  # a tie, a win, a loss
    assert row["worse_by"] == pytest.approx(5 / 5 - 1)
    assert row["median_gap_exceeds_parent_iqr"] is False


def test_trace_counts_keep_count_valued_metrics_only():
    per_layer = [
        {"name": "circring.mul.calls", "unit": "count", "better": "lower"},
        {"name": "circring.mul.us_per_call.n16", "unit": "us", "better": "lower"},
        {"name": "cli.output_bytes", "unit": "B", "better": "lower"},
        {"name": "trace.ops_per_s_traced", "unit": "1/s", "better": "higher"},
    ]
    report = {"correct": True, "metrics": {
        "circring.mul.calls": {"value": 54, "unit": "count"},
        "circring.mul.us_per_call.n16": {"value": 6.3, "unit": "us"},
        "cli.output_bytes": {"value": 304, "unit": "B"},
        "trace.ops_per_s_traced": {"value": 75701.4, "unit": "1/s"},
        "ops_per_s": {"value": 83009.1, "unit": "1/s"},  # end to end, not per layer
    }}
    assert bench_pairs.trace_counts(report, per_layer) == {
        "circring.mul.calls": 54, "cli.output_bytes": 304, "correct": True}


def test_trace_counts_of_this_checkouts_declared_metrics():
    declared = json.loads((TOOL.parents[1] / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    report = {"correct": False, "metrics": {name: {"value": 1} for name in names}}
    kept = bench_pairs.trace_counts(report, declared["per_layer"])
    assert {"circring.mul.calls", "cli.output_bytes", "correct"} <= set(kept)
    timed = {"circring.mul.self_s", "circring.mul.us_per_call.n16", "numutil.factorize.p99_ms",
             "trace.ops_per_s_untraced", "trace.overhead"}
    assert timed <= names and not timed & set(kept)


def test_src_sha256_covers_paths_and_bytes(tmp_path):
    package = tmp_path / "src" / "nilcirc"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n")
    first = bench_pairs.src_sha256(tmp_path)
    assert first == bench_pairs.src_sha256(tmp_path)
    (package / "notes.txt").write_text("not source")
    assert bench_pairs.src_sha256(tmp_path) == first  # only .py files count
    (package / "a.py").write_text("x = 2\n")
    second = bench_pairs.src_sha256(tmp_path)
    assert second != first
    (package / "a.py").rename(package / "b.py")
    assert bench_pairs.src_sha256(tmp_path) != second  # the path is part of the digest


def test_one_pair_is_refused_before_any_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(tmp_path), str(tmp_path), "--out", str(tmp_path / "out.json"),
        "--what", "x", "--trace-workload", "closed_scan", "--pairs", "1",
    ])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code == 2
    assert "--pairs must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("side", ["parent", "change"])
@pytest.mark.parametrize("part", ["src/nilcirc", "bench"])
def test_tree_with_bytecode_cache_is_refused_before_any_run(tmp_path, monkeypatch, side, part):
    trees = {name: tmp_path / name for name in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "nilcirc").mkdir(parents=True)
        (tree / "bench").mkdir()
    cache = trees[side] / part / "__pycache__"
    cache.mkdir()
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(trees["parent"]), str(trees["change"]),
        "--out", str(tmp_path / "out.json"), "--what", "x", "--trace-workload", "closed_scan",
    ])
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main()
    assert exc.value.code.startswith(f"{trees[side]} holds a bytecode cache, {cache}:")
    assert not (tmp_path / "out.json").exists()
    cache.rmdir()
    assert bench_pairs.bytecode_caches(trees[side]) == []


def test_runs_last_the_declared_run_seconds(tmp_path, monkeypatch):
    trees = {name: tmp_path / name for name in ("parent", "change")}
    for tree in trees.values():
        (tree / "src" / "nilcirc").mkdir(parents=True)
    (trees["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 30,
        "workloads": [{"name": "closed_scan"}],
        "end_to_end": [{"name": "setup_s", "better": "lower", "bound": 0.25}],
        "per_layer": [{"name": "cli.main.calls", "unit": "count", "better": "lower"}],
    }))
    calls = []

    def record(tree, workload, seed, seconds, trace):
        calls.append((seconds, trace))
        return {"correct": True, "attempted": 1, "failed": 0, "failed_frac": {"value": 0},
                "metrics": {"setup_s": {"value": 0.07}, "cli.main.calls": {"value": 3}},
                "extra": {}, "stamp": {"loadavg_1m_start": 0.5, "loadavg_1m_end": 0.5,
                                       "overloaded": False, "cpu_count": 2, "python": "3"}}

    monkeypatch.setattr(bench_pairs, "bench", record)
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(trees["parent"]), str(trees["change"]), "--out", str(out),
        "--what", "x", "--trace-workload", "closed_scan", "--pairs", "2",
    ])
    assert bench_pairs.main() == 0
    assert calls == [(30, 0)] * 4 + [(bench_pairs.TRACE_SECONDS, 1)] * 2
    assert "--seconds 30 --trace 0" in json.loads(out.read_text())["command"]
