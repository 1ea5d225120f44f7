"""Timings rescaled to the host's nominal speed.

Other tenants of a shared host slow every CPU-bound process on it, for
stretches of seconds to minutes: a fixed pure-Python loop runs 30-60 %
slower while they are busy.  A pass timed during such a stretch says
more about the neighbours than about the program.

:class:`HostSpeed` therefore times the same fixed loop right before and
right after each timed block, and every :data:`SAMPLE_INTERVAL_S` inside
it from a timer signal.  The block's wall time, less the loop's own
time, is rescaled by the loop's nominal time over its mean measured
time.  The result is in seconds at the speed the host runs the loop
when nobody contends.  A change that makes the program faster or slower
moves it in full; the neighbours' load moves it far less than the raw
wall time.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

#: The probe loop's time on the reference host (a 2-core Xeon) when no
#: other tenant is busy.
NOMINAL_LOOP_S = 1.15e-3

#: How often the timer signal samples the loop inside a timed block.
SAMPLE_INTERVAL_S = 0.1

#: A closing probe this recent also opens the next block.
REUSE_S = 0.005


def _loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def loop_seconds(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the probe loop."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


class HostSpeed:
    """Times blocks of work and rescales them to the nominal host speed."""

    def __init__(self) -> None:
        self._inside: list[float] = []
        self._own_s = 0.0
        #: (when, loop seconds) of the last closing probe.
        self._last = (float("-inf"), 0.0)

    def _on_timer(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        self._inside.append(loop_seconds(1))
        self._own_s += time.perf_counter() - start

    def time(self, fn: Callable[[], Any], *, sample: bool = True) -> tuple[Any, float, float]:
        """Run ``fn()``; return (its result, wall seconds, nominal seconds).

        ``sample=False`` skips the in-block timer samples, for blocks
        that wait on another process (the signal would interrupt the
        wait and the loop would compete with that process).
        """
        when, last = self._last
        speeds = [last if time.perf_counter() - when < REUSE_S else loop_seconds()]
        self._inside.clear()
        self._own_s = 0.0
        previous = None
        if sample:
            previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
            wall = time.perf_counter() - start
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self._own_s
        speeds += self._inside
        speeds.append(loop_seconds())
        self._last = (time.perf_counter(), speeds[-1])
        scale = statistics.fmean(NOMINAL_LOOP_S / s for s in speeds)
        return result, wall, wall * scale
