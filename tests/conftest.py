"""Shared test plumbing: one pass/fail summary line per acceptance criterion, and
the harness of the tests' seams: a call spy, a pool stand-in, a CLI process
runner and a memory probe."""

import contextlib
import functools
import os
import signal
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import pytest

from nilcirc import cli

CRITERIA = [
    ("test_criterion_1_theorem1_grid",
     "criterion 1: Z_p verdict+index match brute force, p in {2,3,5,7}, n,m in [1,48]"),
    ("test_criterion_2_corollary1_grid",
     "criterion 2: Z_m three-way agreement and index <= n, m in [2,36], n in [1,36]"),
    ("test_criterion_3_lemma1_triple_agreement",
     "criterion 3: congruence count closed form = recursion = enumeration, all c"),
    ("test_criterion_4_identity_suite",
     "criterion 4: index expansion identity; witness and annihilation on nilpotent cells"),
    ("test_criterion_5_ring_properties",
     "criterion 5: 1000 Frobenius + 1000 geometric-series checks + ring axioms"),
    ("test_criterion_6_cli_contract",
     "criterion 6: CLI golden files and exit-code contract"),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            name = report.nodeid.rsplit("::", 1)[-1]
            outcomes[name] = "PASS" if status == "passed" else "FAIL"
    lines = [
        f"{outcomes[name]}  {label}"
        for name, label in CRITERIA
        if name in outcomes
    ]
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) wraps owner.name for the test and returns the list of
    its calls, each (args, result). Spying on a name again starts a new list."""
    def wrap(owner, name):
        calls, real = [], getattr(owner, name)
        real = getattr(real, "spied", real)

        def recorded(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((args, result))
            return result

        recorded.spied = real
        monkeypatch.setattr(owner, name, recorded)
        return calls
    return wrap


class FakePool:
    """cli._process_pool's in-process stand-in: a task runs when it is submitted,
    and its future is in flight until the scan takes its result."""

    def __init__(self):
        self.workers, self.tasks = [], []  # each pool's worker count; each task (fn, args)
        self.in_flight = self.most = 0  # futures not yet taken; the most at once

    def __call__(self, workers):
        self.workers.append(workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.tasks.append((fn, args))
        self.in_flight += 1
        self.most = max(self.most, self.in_flight)
        return types.SimpleNamespace(result=functools.partial(self._take, fn(*args)))

    def _take(self, value):
        self.in_flight -= 1
        return value


@pytest.fixture
def fake_pool(monkeypatch):
    """A FakePool in place of cli's process pool, on a host of two CPUs."""
    pool = FakePool()
    monkeypatch.setattr(cli, "_process_pool", pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    return pool


class CliProcess(subprocess.Popen):
    def finish(self, timeout=5):
        """(exit status, stdout, stderr) once the process ends, within timeout seconds."""
        out, err = self.communicate(timeout=timeout)
        return self.returncode, out, err


@pytest.fixture
def cli_process():
    """cli_process(*args, code=None, **kwargs) starts `python -m nilcirc.cli *args`,
    or `python -c code *args`, with the tested src/ on PYTHONPATH and in a
    session of its own, and returns its CliProcess. The child's environment is
    the test's at the call, so monkeypatch can change it. stdout and stderr are
    text pipes unless kwargs say otherwise. At teardown whatever is left of each
    session is killed, so a process that does not end fails its test, not the run."""
    started = []

    def start(*args, code=None, **kwargs):
        command = ["-c", code] if code else ["-m", "nilcirc.cli"]
        options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        started.append(CliProcess([sys.executable, *command, *args], env=env,
                                  start_new_session=True, **options))
        return started[-1]

    yield start
    for proc in started:
        with proc, contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)


@pytest.fixture
def peak_memory(monkeypatch):
    """peak_memory(argv, stdout) is (outcome, peak) of one in-process main(argv)
    call that writes to stdout: outcome is its exit code, or the exception that
    ended it (a stdout may stop a run so), and peak is tracemalloc's, in bytes."""
    def measure(argv, stdout):
        monkeypatch.setattr(sys, "stdout", stdout)
        tracemalloc.start()
        try:
            outcome = cli.main(argv)
        except Exception as exc:
            outcome = exc
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return outcome, peak
    return measure
