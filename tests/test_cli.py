import contextlib
import errno
import hashlib
import io
import json
import multiprocessing
import os
import random
import signal
import time
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nilcirc import circring, cli, errors, nilpotence, numutil, oracle
from nilcirc.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# decide


def test_decide_zm_json_golden(capsys):
    code, out, _ = run(capsys, "decide", "--n", "4", "--m", "6", "--zm", "--json")
    assert code == 0
    assert out == (GOLDEN / "decide_zm.json").read_text()


@pytest.mark.parametrize("argv, text", [
    (("--n", "8", "--m", "2", "--p", "2"),
     "T(n=8, m=2) over Z_2: nilpotent, index 8 (a=3, b=1, n*=1, m*=1)\n"),
    (("--n", "12", "--m", "5", "--p", "3"),
     "T(n=12, m=5) over Z_3: not nilpotent (a=1, b=0, n*=4, m*=5)\n"),
    (("--n", "4", "--m", "4", "--zm"), "T(n=4, m=4): nilpotent over Z_4 (same_prime_powers)\n"),
    (("--n", "6", "--m", "6", "--zm"), "T(n=6, m=6): nilpotent over Z_6 (multi_prime_divides)\n"),
    (("--n", "4", "--m", "6", "--zm"), "T(n=4, m=6): not nilpotent over Z_6\n"),
    (("--n", "3", "--m", "2", "--p", "2", "--json"),
     '{\n  "n": 3,\n  "m": 2,\n  "p": 2,\n  "a": 0,\n  "b": 1,\n  "n_star": 3,\n  "m_star": 1,\n'
     '  "nilpotent": false,\n  "index": null\n}\n'),
])
def test_decide_output_exact(capsys, argv, text):
    # Whole texts, in each mode and verdict; criterion 6 pins the golden files.
    assert run(capsys, "decide", *argv) == (0, text, "")


def test_decide_zm_json_includes_per_prime(capsys):
    code, out, _ = run(capsys, "decide", "--n", "6", "--m", "6", "--zm", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["clause"] == "multi_prime_divides"
    assert [v["p"] for v in doc["per_prime"]] == [2, 3]


def test_decide_zm_json_factorizes_m_once(capsys, spy):
    calls = spy(nilpotence, "factorize")
    code, out, _ = run(capsys, "decide", "--zm", "--n", "6", "--m", "12", "--json")
    assert code == 0
    assert json.loads(out)["nilpotent"] is True
    assert [q for (q,), _ in calls] == [12]


@pytest.mark.parametrize("m, primes", [
    (4294967279 * 4294967291, [4294967279, 4294967291]),  # balanced, just below 2**64
    (2**64 - 59, [2**64 - 59]),  # the largest prime below 2**64
])
def test_decide_zm_is_fast_on_64_bit_moduli(cli_process, m, primes):
    start = time.perf_counter()
    code, out, _ = cli_process("decide", "--zm", "--json", "--n", str(m), "--m", str(m)).finish()
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert doc["nilpotent"] is True
    assert [v["p"] for v in doc["per_prime"]] == primes


# ---------------------------------------------------------------------------
# scan


def test_scan_zp_verify_csv_golden(capsys):
    code, out, _ = run(
        capsys, "scan", "--p", "3", "--n-max", "12", "--m-max", "12",
        "--verify", "--format", "csv", "--jobs", "1",
    )
    assert code == 0
    assert out == (GOLDEN / "scan_zp_12x12_verify.csv").read_text()


VERIFY_48 = {
    "verify_p2_48x48.csv": ("--p", "2"),
    "verify_p3_48x48.csv": ("--p", "3"),
    "verify_zm_48x48.csv": ("--zm",),
}


def _digests(name: str) -> dict:
    """{file: SHA-256} from a golden file in sha256sum's format."""
    return dict(reversed(line.split("  ")) for line in (GOLDEN / name).read_text().splitlines())


def test_scan_verify_48x48_digests(capsys):
    # At the bound n <= 48 over each ring, every nilpotent T is walked one
    # product per power to its index, which the CSV's digest pins.
    digests = _digests("verify_48x48.sha256")
    assert set(digests) == set(VERIFY_48)
    for name, ring in VERIFY_48.items():
        code, out, _ = run(capsys, "scan", *ring, "--n-max", "48", "--m-max", "48",
                           "--verify", "--format", "csv", "--jobs", "1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digests[name], name


def test_scan_zm_30x2100_pooled_digest(capsys, monkeypatch):
    # Over Z_m each block is walked in parts of one slot width, each part in the
    # layout of its largest modulus. The digest is of the serial output, and a
    # real pool of two workers runs on any host.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    digests = _digests("verify_zm_30x2100.sha256")
    code, out, _ = run(capsys, "scan", "--zm", "--n-max", "30", "--m-max", "2100",
                       "--verify", "--format", "csv", "--jobs", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests["verify_zm_30x2100.csv"]


ROWS_1100 = {
    "rows_p3.csv": ("--p", "3", "--m-max", "40"),
    "rows_zm.csv": ("--zm", "--m-max", "40"),
    "rows_p2.csv": ("--p", "2", "--m-max", "2100"),
}


@pytest.mark.parametrize("name", ROWS_1100)
def test_scan_rows_1100_digests(capsys, name):
    # Rows past the first block of m (n > 1024 here) are split as any other
    # row. The Z_2 grid's m axis also crosses two block edges.
    digests = _digests("rows_1100.sha256")
    assert set(digests) == set(ROWS_1100)
    code, out, _ = run(capsys, "scan", *ROWS_1100[name], "--n-max", "1100", "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[name]


ZM_40X5000 = ("scan", "--zm", "--n-max", "40", "--m-max", "5000", "--format", "csv")


def test_scan_zm_40x5000_digest(capsys):
    # A closed Z_m grid whose rows cross four block edges of m: row 1, rows that
    # are powers of one prime, and rows of two primes or more.
    code, out, _ = run(capsys, *ZM_40X5000)
    assert code == 0
    digest = _digests("scan_zm_40x5000.sha256")["scan_zm_40x5000.csv"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("grid", [
    ("--p", "2", "--n-max", "1", "--m-max", str(2**64 - 1)),  # one row, the whole m axis
    ("--p", "2", "--n-max", "4096", "--m-max", "4096"),
    ("--zm", "--n-max", "4096", "--m-max", "4096"),
])
def test_scan_verify_beyond_work_budget_is_refused(cli_process, tmp_path, grid):
    target = tmp_path / "report.csv"
    target.write_text("earlier report\n")
    start = time.perf_counter()
    code, out, err = cli_process("scan", *grid, "--verify", "--out", str(target)).finish()
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: BudgetExceeded: scan --verify work ")
    assert target.read_text() == "earlier report\n"  # refused before --out is opened


def test_scan_verify_budget_counts_m_values_times_sum_of_squares(capsys, monkeypatch):
    # 3 values of m times 1 + 4 + 9 is 42: m in [1, 3] over Z_p, m in [2, 4] over Z_m.
    monkeypatch.setattr(nilpotence, "VERIFY_BUDGET", 42)
    assert run(capsys, "scan", "--p", "2", "--n-max", "3", "--m-max", "3", "--verify")[0] == 0
    assert run(capsys, "scan", "--zm", "--n-max", "3", "--m-max", "4", "--verify")[0] == 0
    for grid in (("--p", "2", "--n-max", "3", "--m-max", "4"),
                 ("--p", "2", "--n-max", "4", "--m-max", "2"),  # 2 * 30
                 ("--zm", "--n-max", "3", "--m-max", "5")):
        code, out, err = run(capsys, "scan", *grid, "--verify")
        assert (code, out) == (3, "")
        assert "BudgetExceeded" in err
    # the closed form alone has no oracle work to count
    assert run(capsys, "scan", "--p", "2", "--n-max", "4", "--m-max", "4")[0] == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_zp_golden(capsys, fmt):
    code, out, _ = run(capsys, "scan", "--p", "3", "--n-max", "12", "--m-max", "12",
                       "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"scan_zp_12x12.{fmt}").read_text()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_zm_golden(capsys, fmt):
    code, out, _ = run(capsys, "scan", "--zm", "--n-max", "12", "--m-max", "12",
                       "--format", fmt)
    assert code == 0
    assert out == (GOLDEN / f"scan_zm_12x12.{fmt}").read_text()


def _reference_scan(p, n_max: int, m_max: int, fmt: str, verify: bool) -> str:
    """A scan's output built cell by cell from the library, as the documented layout."""
    mode = "zp" if p else "zm"
    m_lo = 1 if p else 2
    cells, disagreements = [], []
    for n in range(1, n_max + 1):
        for m in range(m_lo, m_max + 1):
            if p:
                v = nilpotence.decide_zp(n, m, p)
                cell = {"n": n, "m": m, "nilpotent": v.nilpotent, "index": v.index}
            else:
                v = nilpotence.decide_zm_via_primes(n, m)
                cell = {"n": n, "m": m, "nilpotent": v.nilpotent, "clause": v.clause.value}
            if verify:
                found = oracle.min_nilpotent_index(circring.geom_sum(n, m, p or m), n)
                agree = found == v.index if p else (found is not None) == v.nilpotent
                cell.update(oracle_index=found, agree=agree)
                if not agree:
                    disagreements.append({"n": n, "m": m})
            cells.append(cell)
    if fmt == "csv":
        columns = cli._CSV_COLUMNS[mode]
        rows = [",".join(_csv(cell.get(key)) for key in columns) for cell in cells]
        return "\n".join([",".join(columns), *rows]) + "\n"
    parameters = {"mode": mode, "n_range": [1, n_max], "m_range": [m_lo, m_max],
                  "verify": verify}
    if p:
        parameters["p"] = p
    summary = {"cells": len(cells), "nilpotent": sum(c["nilpotent"] for c in cells),
               "disagreements": disagreements}
    if verify:
        summary["agreements"] = len(cells) - len(disagreements)
    report = {"parameters": parameters, "cells": cells, "summary": summary}
    return json.dumps(report, indent=2) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(p=st.sampled_from([2, 3, 5, None]), n_max=st.integers(1, 40), m_max=st.integers(2, 40),
       fmt=st.sampled_from(["csv", "json"]), verify=st.booleans(), jobs=st.sampled_from([1, 2]),
       block=st.integers(1, 8))
def test_scan_blocks_match_cell_by_cell_reference(fake_pool, p, n_max, m_max, fmt, verify, jobs,
                                                  block):
    # Small blocks, so that rows split into several blocks past the first one,
    # whose splits and texts are kept for the later rows.
    mode = ("--p", str(p)) if p else ("--zm",)
    argv = ["scan", *mode, "--n-max", str(n_max), "--m-max", str(m_max), "--format", fmt,
            "--jobs", str(jobs), *(["--verify"] if verify else [])]
    fake_pool.tasks.clear()  # one pool serves every example
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(cli, "_BLOCK", block)
        assert main(argv) == 0
    # the oracle alone: no verdict goes in
    assert all(fn is oracle.geom_sum_indices for fn, _ in fake_pool.tasks)
    # A pooled verify sends one task (n, block, p) per block, in row order, and
    # a single block starts no pool.
    ms = range(1 if p else 2, m_max + 1)
    pooled = verify and jobs == 2 and n_max * -(-len(ms) // block) > 1
    assert [args for _, args in fake_pool.tasks] == (
        [(n, ms[lo:lo + block], p) for n in range(1, n_max + 1)
         for lo in range(0, len(ms), block)] if pooled else [])
    # Line by line: pytest's diff of two long texts takes minutes.
    got = out.getvalue().split("\n")
    want = _reference_scan(p, n_max, m_max, fmt, verify).split("\n")
    assert next(((i, a, b) for i, (a, b) in enumerate(zip(got, want), 1) if a != b), None) is None
    assert len(got) == len(want)


@pytest.mark.parametrize("mode, bound", [
    (("--p", "2"), sum(-(-64 // (2 * numutil.p_adic_valuation(n, 2)[1])) for n in range(1, 65))),
    # Over Z_m the row rule gives every class its clause, and Theorem 1 runs on
    # no cell.
    (("--zm",), 0),
])
def test_scan_decides_only_candidate_cells(capsys, spy, mode, bound):
    # A scan that fell back to deciding every cell (4096 here) fails this bound,
    # and each block (one per row here) takes one call of the row rule.
    zp, rows = spy(nilpotence, "zp_index"), spy(nilpotence, "_row_verdicts")
    assert run(capsys, "scan", *mode, "--n-max", "64", "--m-max", "64", "--format", "csv")[0] == 0
    assert len(rows) == 64 and min(1, bound) <= len(zp) <= bound


@pytest.mark.parametrize("mode, expected", [
    # Over Z_3: each row n <= 64 split once and m never; Theorem 1 once per row
    # and distinct valuation b of its candidates (a row of n* > 21 has none).
    (("--p", "3"), {"_valuation": 64, "zp_index": 60}),
    # Over Z_m: each row n <= 64 split once, and m = 2..64 once in row 1, whose
    # clause asks whether m is a prime power.
    (("--zm",), {"prime_divisors": 64 + 63}),
])
def test_scan_verdict_stage_splits_each_axis_value_once(capsys, spy, mode, expected):
    spies = {name: spy(module, name) for module, name in [
        (cli, "_valuation"), (nilpotence, "zp_index"), (nilpotence, "prime_divisors")]}
    assert run(capsys, "scan", *mode, "--n-max", "64", "--m-max", "64", "--format", "csv")[0] == 0
    calls = {name: len(spied) for name, spied in spies.items()}
    assert calls == {**dict.fromkeys(calls, 0), **expected}


ZM_VERIFY_8X300 = ("scan", "--zm", "--n-max", "8", "--m-max", "300", "--verify")


@pytest.mark.parametrize("argv, block, pooled", [
    (ZM_40X5000, cli._BLOCK, False),
    ((*ZM_VERIFY_8X300, "--jobs", "1"), 64, False),
    ((*ZM_VERIFY_8X300, "--jobs", "2"), 64, True),
], ids=["closed", "verify_serial", "verify_pooled"])
def test_scan_zm_factors_m_only_in_row_1(capsys, spy, fake_pool, monkeypatch, argv, block,
                                         pooled):
    # factorize runs on each m of row 1, whose clause asks for prime powers, then
    # on each row n >= 2 (row 1 has no primes), in that order and nothing more:
    # no later row, and no bracket of the verify stage, factors m.
    monkeypatch.setattr(cli, "_BLOCK", block)
    calls = spy(nilpotence, "factorize")
    assert run(capsys, *argv)[0] == 0
    assert bool(fake_pool.tasks) == pooled
    n_max, m_max = int(argv[argv.index("--n-max") + 1]), int(argv[argv.index("--m-max") + 1])
    assert [args for args, _ in calls] == [(x,) for x in [*range(2, m_max + 1),
                                                         *range(2, n_max + 1)]]


def _csv_rows(out):
    header, *rows = out.splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def _csv(value):
    return "" if value is None else str(value).lower()


@pytest.mark.parametrize("p, size", [(2, 60), (3, 60), (5, 60), (7, 60), (2**61 - 1, 12)])
def test_scan_zp_equals_decide_zp(capsys, p, size):
    code, out, _ = run(capsys, "scan", "--p", str(p), "--n-max", str(size),
                       "--m-max", str(size), "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    grid = [(n, m) for n in range(1, size + 1) for m in range(1, size + 1)]
    assert [(int(row["n"]), int(row["m"])) for row in rows] == grid
    for row in rows:
        v = nilpotence.decide_zp(int(row["n"]), int(row["m"]), p)
        assert row == {"n": str(v.n), "m": str(v.m), "nilpotent": _csv(v.nilpotent),
                       "index": _csv(v.index), "agree": ""}


def test_scan_zm_equals_decide_zm(capsys):
    code, out, _ = run(capsys, "scan", "--zm", "--n-max", "60", "--m-max", "60",
                       "--format", "csv")
    assert code == 0
    rows = _csv_rows(out)
    grid = [(n, m) for n in range(1, 61) for m in range(2, 61)]
    assert [(int(row["n"]), int(row["m"])) for row in rows] == grid
    for row in rows:
        v = nilpotence.decide_zm(int(row["n"]), int(row["m"]))
        assert row == {"n": str(v.n), "m": str(v.m), "nilpotent": _csv(v.nilpotent),
                       "clause": v.clause.value, "oracle_index": "", "agree": ""}


@pytest.mark.parametrize("argv", [
    ("scan", "--p", "2", "--n-max", "1", "--m-max", str(2**70)),  # would walk 2**70 cells
    ("scan", "--p", "2", "--n-max", "2", "--jobs", str(2**64)),
    ("identities", "--n", "3", "--p", "2", "--random-trials", str(2**64)),
])
def test_range_flag_above_limit_is_usage_error(cli_process, argv):
    start = time.perf_counter()
    code, out, err = cli_process(*argv).finish()
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}: value={argv[-1]} is above the limit 2**64 - 1" in err


def test_scan_unopenable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.csv"
    code, out, err = run(capsys, "scan", "--p", "2", "--n-max", "2", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot open --out: ")
    assert not target.parent.exists()


def test_scan_rejected_input_leaves_out_file(tmp_path, capsys):
    # --out is opened (and truncated) only after every other check
    target = tmp_path / "report.csv"
    target.write_bytes(b"earlier report\n")
    code, _, err = run(capsys, "scan", "--p", "6", "--n-max", "2", "--out", str(target))
    assert code == 3
    assert "InvalidPrime" in err
    assert target.read_bytes() == b"earlier report\n"


def test_scan_json_round_trips(capsys):
    code, out, _ = run(
        capsys, "scan", "--p", "3", "--n-max", "6", "--m-max", "6",
        "--verify", "--format", "json", "--jobs", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["summary"]["cells"] == 36 == len(doc["cells"])
    assert doc["summary"]["agreements"] == 36
    assert doc["parameters"]["p"] == 3
    # cells cover the grid exactly once, sorted by n then m
    keys = [(c["n"], c["m"]) for c in doc["cells"]]
    assert keys == sorted(keys) and len(set(keys)) == 36
    # summary recounts
    assert doc["summary"]["nilpotent"] == sum(1 for c in doc["cells"] if c["nilpotent"])


def test_scan_parallel_matches_serial(capsys, monkeypatch):
    # only --verify scans use the process pool, whose workers return only the
    # oracle's indices; the parent checks them against its own verdicts. A real
    # pool of two workers runs on any host. At m_max = 2100 the m axis crosses
    # two block edges, where only candidate cells are decided; over Z_3, T(n, m)
    # repeats with period 3n in m, and serial and pooled blocks cut the axis alike.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    for mode, m_max in ((("--p", "2"), "8"), (("--zm",), "8"),
                        (("--p", "2"), "2100"), (("--p", "3"), "2100")):
        grid = ("scan", *mode, "--n-max", "8", "--m-max", m_max, "--verify", "--format", "csv")
        code1, out1, _ = run(capsys, *grid, "--jobs", "1")
        code2, out2, _ = run(capsys, *grid, "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2


def test_scan_parallel_blocks_cut_rows(capsys, monkeypatch):
    # Three blocks per row, each its own task in a real pool. The workers run
    # only oracle.geom_sum_indices, which does not read _BLOCK.
    monkeypatch.setattr(cli, "_BLOCK", 3)
    grid = ("scan", "--zm", "--n-max", "6", "--m-max", "10", "--verify", "--format", "csv")
    serial = run(capsys, *grid, "--jobs", "1")
    assert serial[0] == 0
    assert run(capsys, *grid, "--jobs", "2") == serial


def test_scan_closed_form_never_starts_pool(capsys, fake_pool):
    for mode in (("--p", "2"), ("--zm",)):
        code, _, _ = run(
            capsys, "scan", *mode, "--n-max", "8", "--m-max", "8", "--jobs", "2",
        )
        assert code == 0
    assert fake_pool.workers == []  # a closed-form scan starts no process pool


def test_import_leaves_process_pool_unloaded(cli_process):
    # Only a pooled scan imports concurrent.futures (and with it multiprocessing).
    # The records are named tuples, so nilcirc adds no dataclasses, inspect or
    # typing either. Those count only if nilcirc adds them: a site module may
    # preload typing, and argparse itself may load dataclasses when it formats
    # (Python 3.14's colour themes are dataclasses), so the baseline is taken
    # after a throwaway parser has added an argument.
    code = ("import sys, argparse; argparse.ArgumentParser().add_subparsers()"
            ".add_parser('x').add_argument('--x'); before = set(sys.modules); "
            "import nilcirc.cli; nilcirc.cli.build_parser(); added = set(sys.modules) - before; "
            "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules),"
            " sorted(m for m in ('dataclasses', 'inspect', 'typing') if m in added))")
    assert cli_process(code=code).finish()[:2] == (0, "[] []\n")


def test_scan_jobs_capped_at_cpus_and_cells(capsys, fake_pool):
    # Never starts real workers: the pool records its size and maps in-process.
    grid = ("scan", "--p", "2", "--n-max", "4", "--m-max", "4", "--verify")
    assert run(capsys, *grid, "--jobs", "64")[0] == 0
    assert run(capsys, *grid)[0] == 0
    assert fake_pool.workers == [2, 2]
    one_cell = ("scan", "--p", "2", "--n-max", "1", "--m-max", "1", "--verify")
    assert run(capsys, *one_cell, "--jobs", "64")[0] == 0
    assert fake_pool.workers == [2, 2]  # a single cell starts no pool
    one_block = ("scan", "--p", "2", "--n-max", "1", "--m-max", "2", "--verify")
    assert run(capsys, *one_block, "--jobs", "64")[0] == 0
    assert fake_pool.workers == [2, 2]  # nor does a single block of two cells


def test_scan_pool_keeps_a_bounded_window(capsys, fake_pool):
    # A future counts as in flight until the scan takes its result.
    grid = ("scan", "--p", "2", "--n-max", "20", "--m-max", "20", "--verify", "--format", "csv")
    serial = run(capsys, *grid, "--jobs", "1")
    assert run(capsys, *grid, "--jobs", "2") == serial  # cells in task order
    assert len(fake_pool.tasks) == 20  # one task per block: here one per row
    assert fake_pool.most == 4  # never more than 2 x jobs in flight


def test_scan_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "scan", "--zm", "--n-max", "3", "--m-max", "3",
        "--format", "csv", "--out", str(target), "--jobs", "1",
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().splitlines()
    assert lines[0] == "n,m,nilpotent,clause,oracle_index,agree"
    assert len(lines) == 1 + 3 * 2  # n in [1,3], m in [2,3]


CLOSED_OUT = {
    "closed_zm_400x400.json": ("--zm", "--n-max", "400", "--m-max", "400", "--format", "json"),
    "closed_p2_250x300.csv": ("--p", "2", "--n-max", "250", "--m-max", "300", "--format", "csv"),
}


@pytest.mark.parametrize("name", CLOSED_OUT)
def test_scan_out_file_digests(tmp_path, capsys, name):
    # The two largest closed grids that the benchmark writes to --out, whose
    # file gathers several blocks per write: its bytes are pinned, and are
    # the bytes that stdout gets.
    digests = _digests("closed_out.sha256")
    assert set(digests) == set(CLOSED_OUT)
    target = tmp_path / name
    argv = ("scan", *CLOSED_OUT[name], "--jobs", "1")
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    data = target.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digests[name]
    code, out, _ = run(capsys, *argv)
    same = code == 0 and out.encode() == data  # not in the assert: pytest would diff 16 MB
    assert same


class Discard:
    """A stdout that keeps nothing, so tracemalloc sees only the program's memory."""

    def write(self, text):
        return len(text)

    def flush(self):
        pass


class Stop(Exception):
    pass


class RowLimit(Discard):
    """A stdout that keeps nothing and stops the run after 10000 rows."""

    rows = 0

    def write(self, text):
        self.rows += text.count("\n")
        if self.rows > 10_000:
            raise Stop
        return len(text)


@pytest.mark.parametrize("mode", [("--p", "2"), ("--zm",)])
def test_scan_huge_m_axis_streams(peak_memory, mode):
    # 2**40 cells in one row: nothing may be sized by the m axis up front, and
    # the texts kept for later rows are bounded.
    stop, peak = peak_memory(["scan", *mode, "--n-max", "1", "--m-max", str(2**40),
                              "--format", "csv"], RowLimit())
    assert isinstance(stop, Stop)
    assert peak < 1_000_000


@pytest.mark.parametrize("fmt", ["csv", "json", "human"])
def test_scan_streams(peak_memory, fmt):
    # 250000 cells: the scan must not hold one cell, row or string per cell. At
    # this size a scan that kept each row's cell texts holds about 2.5 MB.
    code, peak = peak_memory(["scan", "--p", "2", "--n-max", "500", "--m-max", "500",
                              "--format", fmt], Discard())
    assert code == 0
    assert peak < 1_000_000


def test_scan_disagreement_exits_one(capsys, monkeypatch):
    # force the oracle to miss every nilpotent cell; the scan must exit 1
    monkeypatch.setattr(cli.oracle, "geom_sum_indices", lambda n, ms, q=None: [None] * len(ms))
    code, out, _ = run(
        capsys, "scan", "--p", "2", "--n-max", "2", "--m-max", "2",
        "--verify", "--jobs", "1",
    )
    assert code == 1
    assert "DISAGREE" in out


def _scan_6x8_patched(capsys, monkeypatch, ring, cell, index):
    """The human and CSV reports of a verified scan over ring, n <= 6, m <= 8,
    whose oracle reports index(k) at cell, k the true index there; both exit 1."""
    real = cli.oracle.geom_sum_indices

    def patched(n, ms, q=None):
        return [index(k) if (n, m) == cell else k for m, k in zip(ms, real(n, ms, q))]

    monkeypatch.setattr(cli.oracle, "geom_sum_indices", patched)
    reports = []
    for fmt in ("human", "csv"):
        code, out, _ = run(capsys, "scan", *ring, "--n-max", "6", "--m-max", "8",
                           "--verify", "--jobs", "1", "--format", fmt)
        assert code == 1
        reports.append(out)
    return reports


@pytest.mark.parametrize("cell, index, line", [
    # T(6, 6) is nilpotent over Z_6 with index 2, as over Z_2 and Z_3: an oracle
    # index of 3 agrees on the verdict but leaves the one-point bracket (2, 2)
    # that every cell with 1 < n | m has.
    ((6, 6), 3, "6,6,true,multi_prime_divides,3,false"),
    # T(2, 4) = 2*J is nonzero over Z_4 and T**2 = 0: index 1 leaves (2, 2), although
    # Theorem 1 at 2 alone brackets it by (k, e*k) = (1, 2).
    ((2, 4), 1, "2,4,true,same_prime_powers,1,false"),
    # T(4, 8) = 2*J over Z_8 likewise: index 3 leaves (2, 2), not (1, 3).
    ((4, 8), 3, "4,8,true,same_prime_powers,3,false"),
], ids=["n6_m6", "n2_m4", "n4_m8"])
def test_scan_zm_index_outside_bracket_exits_one(capsys, monkeypatch, cell, index, line):
    human, csv = _scan_6x8_patched(capsys, monkeypatch, ("--zm",), cell, lambda k: index)
    assert "agreements 41, disagreements 1" in human
    assert human.splitlines()[-1] == "DISAGREE at n=%d m=%d" % cell
    assert line in csv.splitlines()


@pytest.mark.parametrize("cell, index, line", [
    # T(4, 6) is not nilpotent over Z_6 (4 does not divide 6, which has two
    # primes): an oracle index there disagrees on the verdict itself.
    ((4, 6), 2, "4,6,false,not_nilpotent,2,false"),
    # T(6, 6) is nilpotent over Z_6: an oracle that finds no index disagrees.
    ((6, 6), None, "6,6,true,multi_prime_divides,,false"),
])
def test_scan_zm_oracle_verdict_disagreement_exits_one(capsys, monkeypatch, cell, index, line):
    human, csv = _scan_6x8_patched(capsys, monkeypatch, ("--zm",), cell, lambda k: index)
    assert "agreements 41, disagreements 1" in human
    assert human.splitlines()[-1] == "DISAGREE at n=%d m=%d" % cell
    assert line in csv.splitlines()


@pytest.mark.parametrize("cell, index, line", [
    # T(4, 2) is nilpotent over Z_2 with index ceil(2**2 / (2 - 1)) = 4, the
    # value printed: an oracle index of 5 disagrees.
    ((4, 2), 5, "4,2,true,4,false"),
    # T(3, 2) is not nilpotent over Z_2 (n* = 3 does not divide m* = 1): an
    # oracle index there disagrees on the verdict itself.
    ((3, 2), 2, "3,2,false,,false"),
])
def test_scan_zp_oracle_index_disagreement_exits_one(capsys, monkeypatch, cell, index, line):
    human, csv = _scan_6x8_patched(capsys, monkeypatch, ("--p", "2"), cell, lambda k: index)
    assert "agreements 47, disagreements 1" in human
    assert human.splitlines()[-1] == "DISAGREE at n=%d m=%d" % cell
    assert line in csv.splitlines()


# ---------------------------------------------------------------------------
# lemma1


def test_lemma1_all_targets(capsys):
    code, out, _ = run(
        capsys, "lemma1", "--d", "2", "--m-star", "3", "--n-star", "1",
        "--q", "2", "--enumerate",
    )
    assert code == 0
    lines = out.splitlines()
    assert "closed form 9" in lines[0]
    assert len([l for l in lines if l.startswith("c=")]) == 4
    assert all("enumerated 9" in l for l in lines if l.startswith("c="))
    assert lines[-1] == "all agree"


def test_lemma1_enumerates_at_the_budget_edge(capsys):
    # m**q = 10**7 = ENUM_BUDGET tuples: answered, not refused
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "lemma1", "--d", "2", "--m-star", "5", "--n-star", "1", "--q", "7",
        "--enumerate", "--c", "3",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert out.splitlines()[1] == "c=3: recursive 78125, enumerated 78125, agree"


def test_lemma1_single_target_json(capsys):
    code, out, _ = run(
        capsys, "lemma1", "--d", "3", "--m-star", "4", "--n-star", "2",
        "--q", "2", "--c", "0", "--enumerate", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["closed_form"] == doc["recursive"] == doc["enumerated"] == 8
    assert doc["agree"] is True
    assert doc["instance"]["m"] == 12 and doc["instance"]["n"] == 18


def test_lemma1_all_targets_streams(peak_memory):
    # 4096 targets: the sweep must not hold one report per target
    code, peak = peak_memory(["lemma1", "--d", "2", "--m-star", "1", "--n-star", "1",
                              "--q", "12", "--json"], Discard())
    assert code == 0
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [
    ("lemma1", "--d", "3", "--m-star", "2", "--n-star", "1", "--q", "2", "--enumerate",
     "--json"),
    ("lemma1", "--d", "2", "--m-star", "1", "--n-star", "1", "--q", "8", "--json"),  # batches
    # Scans write one block per row: several rows, in each scan mode.
    ("scan", "--p", "2", "--n-max", "4", "--m-max", "4", "--format", "json"),
    ("scan", "--p", "3", "--n-max", "9", "--m-max", "9", "--format", "json"),
    ("scan", "--p", "2", "--n-max", "9", "--m-max", "8", "--verify", "--format", "json",
     "--jobs", "1"),
    ("scan", "--zm", "--n-max", "9", "--m-max", "9", "--format", "json"),
    ("scan", "--zm", "--n-max", "9", "--m-max", "9", "--verify", "--format", "json",
     "--jobs", "1"),
    # 1024 reports with --enumerate: four writes of _LINES reports
    ("lemma1", "--d", "4", "--m-star", "5", "--n-star", "1", "--q", "5", "--json",
     "--enumerate"),
])
def test_lemma1_streamed_json_matches_json_dumps(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_lemma1_json_all_targets_is_array(capsys):
    code, out, _ = run(
        capsys, "lemma1", "--d", "2", "--m-star", "1", "--n-star", "1",
        "--q", "2", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert isinstance(doc, list) and len(doc) == 4
    assert all(entry["closed_form"] == 1 for entry in doc)
    assert all("enumerated" not in entry for entry in doc)  # no --enumerate


def test_lemma1_disagreement_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli.congruence, "count_closed_form", lambda inst: 17)
    code, out, _ = run(
        capsys, "lemma1", "--d", "2", "--m-star", "3", "--n-star", "1", "--q", "2",
    )
    assert code == 1
    assert "DISAGREEMENT detected" in out


# ---------------------------------------------------------------------------
# identities


def test_identities_point_pass(capsys):
    code, out, _ = run(capsys, "identities", "--n", "8", "--m", "2", "--p", "2")
    assert code == 0
    for name in ("expansion", "witness", "annihilation", "frobenius", "geometric"):
        assert any(line.startswith(name) and line.endswith("pass") for line in out.splitlines())


def test_identities_point_decides_once(capsys, spy):
    decides, sums = spy(nilpotence, "decide_zp"), spy(circring, "geom_sum")
    code, _, _ = run(capsys, "identities", "--n", "8", "--m", "2", "--p", "2")
    assert code == 0
    # one T for the witness and annihilation, one for the oracle's geometric check
    assert {"decide_zp": len(decides), "geom_sum": len(sums)} == {"decide_zp": 1, "geom_sum": 2}


@pytest.mark.parametrize("argv, text", [
    (("--n", "243", "--m", "6", "--p", "3"),
     "".join(f"{name:<13}pass\n" for name in
             ("expansion", "witness", "annihilation", "frobenius", "geometric"))),
    # a prime above 2**53, whose coefficients are drawn by getrandbits with rejection
    (("--n", "16", "--p", str(2**61 - 1), "--random-trials", "2", "--seed", "3"),
     "frobenius    pass (2/2)\ngeometric    pass (2/2)\n"),
    # slot widths 6 and 7 bytes: each slot takes part of a coefficient's 8-byte item
    (("--n", "16", "--p", "1000003", "--random-trials", "2", "--seed", "3"),
     "frobenius    pass (2/2)\ngeometric    pass (2/2)\n"),
    (("--n", "16", "--p", "16777213", "--random-trials", "2", "--seed", "3"),
     "frobenius    pass (2/2)\ngeometric    pass (2/2)\n"),
])
def test_identities_output_exact(capsys, argv, text):
    assert run(capsys, "identities", *argv) == (0, text, "")


def test_identities_random_mode(capsys):
    code, out, _ = run(capsys, "identities", "--random-trials", "100", "--p", "3", "--n", "7")
    assert code == 0
    assert "frobenius    pass (100/100)" in out
    assert "geometric    pass (100/100)" in out


@pytest.mark.parametrize("check, name", [("geometric_identity_check", "geometric"),
                                         ("frobenius_check", "frobenius")])
@pytest.mark.parametrize("mode, note", [(("--m", "2"), ""), (("--random-trials", "3"), " (0/3)")])
def test_identities_failure_exits_one(capsys, monkeypatch, check, name, mode, note):
    monkeypatch.setattr(cli.oracle, check, lambda *args: False)
    code, out, err = run(capsys, "identities", "--n", "8", "--p", "2", *mode)
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == [f"{name:<13}FAIL{note}"]


@pytest.mark.parametrize("q", [2, 3, 7, 251, 2**31 - 1, 2**53 + 5, 2**63 + 1, 2**64 - 59,
                               2**64 - 1])
def test_random_elem_is_uniform_and_seeded(q):
    # 2000 coefficients, each uniform on [0, q): as often in the lower half as
    # its share, and odd as often, which a float-based draw misses above 2**53.
    rng = random.Random(q)
    coeffs = [c for _ in range(40) for c in cli._random_elem(rng, 50, q).coeffs]
    assert len(coeffs) == 2000 and all(0 <= c < q for c in coeffs)
    for observed, share in ((sum(c < q // 2 for c in coeffs), (q // 2) / q),
                            (sum(c % 2 for c in coeffs), (q // 2) / q)):
        assert abs(observed / 2000 - share) < 0.06, (observed, share)
    # --seed fixes every draw
    assert cli._random_elem(random.Random(7), 50, q) == cli._random_elem(random.Random(7), 50, q)


@pytest.mark.parametrize("argv", [
    ("identities", "--n", str(2**40), "--m", "2", "--p", "2"),  # T of order 2**40
    ("identities", "--n", "3", "--p", "2", "--random-trials", str(2**63)),
    # 64-bit p: inside a count of trials * n alone, and about a minute of work
    ("identities", "--n", "4096", "--p", str(2**64 - 59), "--random-trials", "1"),
])
def test_identities_beyond_work_budget_is_refused(cli_process, argv):
    start = time.perf_counter()
    code, out, err = cli_process(*argv).finish()
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err.startswith("error: BudgetExceeded: ")


def test_identities_budget_bounds_n_and_weighted_trials(capsys, monkeypatch):
    # A point run counts n; a random run counts trials * n * p.bit_length().
    monkeypatch.setattr(nilpotence, "IDENTITIES_BUDGET", 16)
    for argv in (
        ("--n", "16", "--m", "2", "--p", "2"),
        ("--random-trials", "2", "--n", "4", "--p", "2"),  # 2 * 4 * 2
        ("--random-trials", "1", "--n", "4", "--p", "7"),  # 1 * 4 * 3
    ):
        assert run(capsys, "identities", *argv)[0] == 0
    for argv in (
        ("--n", "32", "--m", "2", "--p", "2"),
        ("--random-trials", "3", "--n", "3", "--p", "2"),  # 3 * 3 * 2
        ("--random-trials", "2", "--n", "3", "--p", "7"),  # 2 * 3 * 3
    ):
        code, out, err = run(capsys, "identities", *argv)
        assert (code, out) == (3, "")
        assert "BudgetExceeded" in err


def test_identities_random_large_prime(capsys):
    # p above 2**32: a trial with k = 2 checks x -> x**(p**2), and p**2 is above 2**64
    code, out, err = run(
        capsys, "identities", "--random-trials", "8", "--p", "4294967311", "--n", "3",
    )
    assert (code, err) == (0, "")
    assert "frobenius    pass (8/8)" in out


# ---------------------------------------------------------------------------
# global contract

# The exit-code table: 0 success, 2 usage, 3 bad input (exit 1, a disagreement,
# needs a patched oracle and is tested above). A row is (argv, code, stdout,
# stderr). An error leaves stdout empty; --help's starts with the row's text. A
# stderr of main's own, "error: ...", is the whole stream; argparse's error line
# ends its usage and holds the row's text (the rest varies by Python version).
EXIT_CODES = [
    (("decide", "--n", "8", "--m", "2", "--p", "4"), 3, "",
     "error: InvalidPrime: 4 is not prime\n"),
    (("decide", "--n", "8", "--m", "2"), 2, "",
     "nilcirc decide: error: one of the arguments --p --zm is required"),
    (("decide", "--n", "8", "--m", "2", "--p", "2", "--zm"), 2, "",
     "nilcirc decide: error: argument --zm: not allowed with argument --p"),
    (("decide", "--n", "8", "--p", "2"), 2, "",
     "nilcirc decide: error: the following arguments are required: --m"),
    (("decide", "--n", "0", "--m", "2", "--p", "2"), 3, "",
     "error: InvalidInput: n must be >= 1, got 0\n"),
    (("decide", "--p", "2", "--n", str(2**128), "--m", "3"), 3, "",
     f"error: Overflow: n={2**128} is above the limit 2**64 - 1\n"),
    (("decide", "--zm", "--n", str(2**128 + 1), "--m", "6"), 3, "",
     f"error: Overflow: n={2**128 + 1} is above the limit 2**64 - 1\n"),
    (("scan", "--p", "3", "--n-max", "0"), 2, "",
     "nilcirc scan: error: argument --n-max: value must be >= 1, got 0"),
    (("scan", "--zm", "--m-max", "1"), 2, "",
     "error: --m-max leaves the m range empty (got 1)\n"),
    (("scan", "--p", "2", "--jobs", "0"), 2, "",
     "nilcirc scan: error: argument --jobs: value must be >= 1, got 0"),
    (("scan", "--p", "6", "--n-max", "4", "--m-max", "4"), 3, "",
     "error: InvalidPrime: 6 is not prime\n"),
    (("lemma1", "--d", "2", "--m-star", "4", "--n-star", "1", "--q", "1"), 3, "",
     "error: CoprimalityViolated: gcd(d=2, m_star=4) != 1\n"),
    (("lemma1", "--d", "3", "--m-star", "2", "--n-star", "4", "--q", "1"), 3, "",
     "error: DivisibilityViolated: n_star=4 does not divide m_star=2\n"),
    (("lemma1", "--d", "2", "--m-star", "3", "--n-star", "1", "--q", "0"), 3, "",
     "error: InvalidInput: qvars must be >= 1, got 0\n"),
    # n = 2**40 targets: refused up front, never materialized
    (("lemma1", "--d", "2", "--m-star", "1", "--n-star", "1", "--q", "40"), 3, "",
     "error: BudgetExceeded: lemma1 targets (pass --c) work 1099511627776 exceeds budget"
     " 10000000\n"),
    # n = d**q * n_star is refused before any counting or d**q itself
    (("lemma1", "--d", "2", "--m-star", "1", "--n-star", "1", "--q", "2000", "--c", "0"), 3, "",
     "error: Overflow: 2**2000 exceeds the supported range\n"),
    (("lemma1", "--d", "3", "--m-star", "1", "--n-star", "1", "--q", "100000000", "--c", "0"),
     3, "", "error: Overflow: 3**100000000 exceeds the supported range\n"),
    # m = 3 * 2**63 leaves the domain although n = 3 does not
    (("lemma1", "--d", "3", "--m-star", str(2**63), "--n-star", "1", "--q", "1", "--c", "0"),
     3, "", f"error: Overflow: m={3 * 2**63} is above the limit 2**64 - 1\n"),
    # --n is a mathematical parameter: the library rejects it, as for decide
    (("identities", "--n", "0", "--p", "2", "--m", "2"), 3, "",
     "error: InvalidInput: n must be >= 1, got 0\n"),
    (("identities", "--n", "0", "--p", "2", "--random-trials", "1"), 3, "",
     "error: InvalidInput: n must be >= 1, got 0\n"),
    (("identities", "--n", "4", "--m", "6", "--p", "3"), 3, "",
     "error: InvalidInput: not applicable: T(n=4, m=6) is not nilpotent over Z_3\n"),
    (("identities", "--n", "2", "--m", "4", "--p", "2"), 3, "",
     "error: InvalidInput: not applicable: a=1 < b=2, T is already zero and the expansion is"
     " bypassed\n"),
    (("identities", "--n", "4", "--p", "2"), 2, "",
     "nilcirc identities: error: one of the arguments --m --random-trials is required"),
    (("identities", "--n", "4", "--m", "2", "--p", "2", "--random-trials", "5"), 2, "",
     "nilcirc identities: error: argument --random-trials: not allowed with argument --m"),
    # refused before the first random element would draw n coefficients
    (("identities", "--random-trials", "1", "--p", "2", "--n", str(2**70)), 3, "",
     f"error: Overflow: n={2**70} is above the limit 2**64 - 1\n"),
    # Without the prime check up front, 0 and -7 raise ValueError out of randrange.
    (("identities", "--random-trials", "5", "--p", "4", "--n", "3"), 3, "",
     "error: InvalidPrime: 4 is not prime\n"),
    (("identities", "--random-trials", "5", "--p", "0", "--n", "3"), 3, "",
     "error: InvalidPrime: 0 is not prime\n"),
    (("identities", "--random-trials", "5", "--p", "-7", "--n", "3"), 3, "",
     "error: InvalidPrime: -7 is not prime\n"),
    (("frobnicate",), 2, "", "nilcirc: error: argument command: invalid choice: 'frobnicate'"),
    ((), 2, "", "nilcirc: error: the following arguments are required: command"),
    (("--help",), 0, "usage: nilcirc ", ""),
]


@pytest.mark.parametrize("argv, code, stdout, stderr", EXIT_CODES,
                         ids=[" ".join(argv) for argv, *_ in EXIT_CODES])
def test_exit_code_table(capsys, argv, code, stdout, stderr):
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert got == code
    assert (out == stdout) if code else out.startswith(stdout)
    if stderr.startswith("nilcirc"):  # argparse's line, after its usage
        *usage, last = err.splitlines()
        assert usage[0].startswith("usage: nilcirc ") and stderr in last
    else:
        assert err == stderr


def test_every_error_kind_has_a_row():
    # A new error kind fails here until a row shows its exit. ShapeMismatch has
    # none: the CLI builds every ring element itself and never mixes two rings.
    kinds = {name for name, kind in vars(errors).items()
             if isinstance(kind, type) and issubclass(kind, errors.InputError)}
    named = {stderr.split(": ")[1] for *_, stderr in EXIT_CODES if stderr.startswith("error: ")}
    assert kinds - named == {"InputError", "ShapeMismatch"}


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_pipe_ends_quietly(cli_process):
    # The reader takes one line of a 65536-target sweep, far more than a pipe
    # buffers, and closes the pipe: no traceback, and not the disagreement exit.
    proc = cli_process("lemma1", "--d", "2", "--m-star", "1", "--n-star", "1", "--q", "16")
    assert proc.stdout.readline().startswith("instance ")
    proc.stdout.close()
    assert proc.finish(timeout=60)[::2] == (-signal.SIGPIPE, "")


# A scan as `python -c`, on a host of two CPUs, under the multiprocessing start
# method named by its first argument, or the default one if that is empty.
POOLED_SCAN = """
import multiprocessing, os, sys
from nilcirc import cli
os.cpu_count = lambda: 2
if method := sys.argv.pop(1):
    multiprocessing.set_start_method(method)
cli.entry()
"""


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_pool_workers_end_with_their_scan(cli_process):
    # A worker blocked on the pool's call queue outlives a scan ended by a closed
    # pipe or by SIGTERM, unless it watches the scan. The reader waits for the
    # first row, which a worker answered. Each process that the scan starts holds
    # its stderr, so stderr ends (within finish's 5 s) only when the last one does.
    for method, signum in (("", signal.SIGPIPE), ("spawn", signal.SIGPIPE),
                           ("", signal.SIGTERM)):
        proc = cli_process(method, "scan", "--p", "2", "--n-max", "128", "--m-max", "128",
                           "--verify", "--jobs", "2", "--format", "csv", code=POOLED_SCAN)
        assert proc.stdout.readline() == "n,m,nilpotent,index,agree\n"
        assert proc.stdout.readline() == "1,1,false,,true\n"
        if signum == signal.SIGTERM:
            proc.terminate()
        proc.stdout.close()
        code, _, err = proc.finish()
        assert code == -signum, method
        # Under spawn (and forkserver) the resource tracker removes the pool's
        # named semaphores, which the scan's death left behind, and says so in
        # two lines.
        lines = err.splitlines()
        if lines and "leaked semaphore objects" in lines[0]:
            del lines[:2]
        assert signum == signal.SIGTERM or lines == [], method


# The pooled scan above, whose pool SIGKILLs one of its workers at the eighth
# task: by then the scan has written rows 1 and 2, two blocks each.
KILLED_WORKER_SCAN = POOLED_SCAN.replace("cli.entry()", """
import signal
pool = cli._process_pool
def kill_at_eighth_task(jobs):
    executor, futures = pool(jobs), []
    def submit(*task):
        futures.append(executor_submit(*task))
        if len(futures) == 8:
            os.kill(multiprocessing.active_children()[0].pid, signal.SIGKILL)
        return futures[-1]
    executor_submit, executor.submit = executor.submit, submit
    return executor
cli._process_pool = kill_at_eighth_task
cli.entry()
""")


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_killed_pool_worker_is_usage_error(cli_process, method):
    # A dead worker breaks the pool: one error line and the exit of a failed
    # write, not a traceback. The rows written before it stay, whole and in order.
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    code, out, err = cli_process(method, "scan", "--zm", "--n-max", "60", "--m-max", "1800",
                                 "--verify", "--format", "csv", "--jobs", "2",
                                 code=KILLED_WORKER_SCAN).finish(timeout=60)
    assert code == 2 and err.startswith("error: scan stopped: ") and err.count("\n") == 1, err
    header, *rows = out.splitlines()
    assert header == "n,m,nilpotent,clause,oracle_index,agree"
    cells = [(n, m) for n in range(1, 61) for m in range(2, 1801)]
    assert 2 * 1799 <= len(rows) < len(cells)
    assert [tuple(map(int, row.split(",")[:2])) for row in rows] == cells[:len(rows)]


def test_broken_pool_is_usage_error(capsys, fake_pool, monkeypatch):
    # A worker killed mid-scan breaks the pool, and each future not yet taken
    # raises BrokenProcessPool: here from row 3 on. The scan stops with one line
    # and exit 2, and keeps the rows written before it.
    from concurrent.futures.process import BrokenProcessPool

    def broken():
        raise BrokenProcessPool("A process in the process pool was terminated abruptly")

    submit = fake_pool.submit
    monkeypatch.setattr(fake_pool, "submit", lambda fn, n, *args: submit(fn, n, *args)
                        if n < 3 else types.SimpleNamespace(result=broken))
    grid = ("scan", "--p", "2", "--n-max", "4", "--m-max", "4", "--verify", "--format", "csv")
    rows = run(capsys, *grid, "--jobs", "1")[1].splitlines(keepends=True)
    assert run(capsys, *grid, "--jobs", "2") == (
        2, "".join(rows[:1 + 2 * 4]),
        "error: scan stopped: A process in the process pool was terminated abruptly\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", [
    ("scan", "--p", "2", "--n-max", "2", "--m-max", "2", "--out", "/dev/full"),
    ("decide", "--n", "4", "--m", "2", "--p", "2", "--json"),
])
def test_failed_write_is_usage_error(cli_process, monkeypatch, argv):
    # A full device: one error line and the exit of an unopenable --out, no
    # traceback, and nothing more from the interpreter's last flush of stdout.
    # stdout is buffered, as by default: unbuffered, a write fails at once and
    # leaves nothing for that last flush to fail on again.
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    with open("/dev/full", "w") as full:
        code, _, err = cli_process(*argv, stdout=full).finish(timeout=60)
    assert code == 2
    err = err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write output: ")


class FullDevice(io.RawIOBase):
    """A device that refuses every write with ENOSPC while full is set."""

    full = True

    def writable(self):
        return True

    def write(self, data):
        if self.full:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(data)


def test_buffered_write_to_full_device_is_usage_error(capsys, monkeypatch):
    # A buffered stdout on a full device fails only when it is flushed: main's
    # own flush must report it, where /dev/full, unbuffered, fails at the write.
    device = FullDevice()
    stdout = io.TextIOWrapper(io.BufferedWriter(device))
    monkeypatch.setattr("sys.stdout", stdout)
    code = main(["decide", "--n", "4", "--m", "2", "--p", "2", "--json"])
    err = capsys.readouterr().err.splitlines()
    device.full = False  # so that closing the stream drops what it holds
    stdout.close()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("error: cannot write output: ")
