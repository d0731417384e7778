"""Smoke test of the benchmark itself: python3 -m pytest -q bench/test_bench.py

Runs one query block of point_queries untraced and traced (about 25 s), and
checks that the output checks reject wrong answers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("calls", "muls_per_search", "tuples_enumerated")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(trace: int, seed: int = 7) -> dict:
    done = _run("--workload", "point_queries", "--seed", str(seed), "--seconds", "0",
                "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _result(0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values())


def test_traced_runs_repeat_exact_counts():
    first, second = _result(1)["metrics"], _result(1)["metrics"]
    assert {k: v["unit"] for k, v in first.items()} == _declared("per_layer")
    exact = [k for k in first if k.rsplit(".", 1)[-1] in EXACT]
    assert "congruence.tuples_enumerated" in exact and first["cli.main.calls"]["value"] > 0
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_refuses_to_run_without_sources(tmp_path: Path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run("--workload", "point_queries", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""


@pytest.mark.parametrize("check, out", [
    (workloads._check_decide_zp(8, 2, 2),
     "T(n=8, m=2) over Z_2: nilpotent, index 7 (a=3, b=1, n*=1, m*=1)\n"),
    (workloads._check_decide_zp(8, 2, 2),
     "T(n=8, m=2) over Z_2: not nilpotent (a=3, b=1, n*=1, m*=1)\n"),
    (workloads._check_decide_zm(4, 6), json.dumps({
        "n": 4, "m": 6, "nilpotent": True, "clause": "multi_prime_divides",
        "per_prime": [
            {"n": 4, "m": 6, "p": 2, "a": 2, "b": 1, "n_star": 1, "m_star": 3,
             "nilpotent": True, "index": 4},
            {"n": 4, "m": 6, "p": 3, "a": 0, "b": 1, "n_star": 4, "m_star": 2,
             "nilpotent": True, "index": 1}]})),
    (workloads._check_lemma1(3, 1, 2, 1), json.dumps(
        {"closed_form": 9, "recursive": 8, "agree": False})),
    (workloads._check_identities(5), "expansion    pass\nwitness      FAIL\n"),
    (workloads._check_verify_scan(4, 1),
     "scan mode=zp\ncells 4, nilpotent 1\nagreements 3, disagreements 1\n"),
])
def test_checks_reject_wrong_answers(check, out):
    assert check(out, "") is not None


def test_checks_accept_right_answers():
    assert workloads._check_decide_zp(8, 2, 2)(
        "T(n=8, m=2) over Z_2: nilpotent, index 8 (a=3, b=1, n*=1, m*=1)\n", "") is None
    assert workloads._check_verify_scan(4, 1)(
        "scan mode=zp\ncells 4, nilpotent 1\nagreements 4, disagreements 0\n", "") is None
