"""The machine's speed, sampled while the benchmark runs.

On a shared machine the speed of plain Python code swings by 20-30 % within
seconds, with load that no process inside can see. ``calibrate`` times a
fixed pure-Python loop. A call's *slowness* is the loop's mean time around
or during the call over ``REFERENCE_S``, the loop's median time on the 2-CPU
machine where the benchmark was defined. Dividing a call's time by its
slowness gives its time at that reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOPS = 50_000  # about 3.6 ms
EVERY_S = 0.1
REFERENCE_S = 0.0036


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop."""
    start = time.perf_counter()
    s = 0
    for i in range(LOOPS):
        s += i * i % 7
    return time.perf_counter() - start


class Sampler:
    """Calibrates every EVERY_S, also in the middle of a long call.

    An ITIMER_REAL timer raises SIGALRM, and the handler runs ``calibrate``
    in the main thread between bytecodes. The handler's own time is summed in
    ``stolen`` so that it can be taken out of the call it interrupted.
    Use as a context manager around the calls, on the main thread only.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())

    def slowness(self, first: int, end: int) -> float:
        """Slowness of a call during which samples[first:end] were taken.

        A call with no sample of its own gets the mean of the samples just
        before and just after it.
        """
        around = self.samples[first:end] if end > first else self.samples[first - 1:first + 1]
        return statistics.mean(around) / REFERENCE_S
