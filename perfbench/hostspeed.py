"""How fast the host runs this process, sampled throughout a run.

The benchmark shares a few cores of a host whose other tenants slow it by up
to about 2.3x, in phases lasting from fractions of a second to minutes, and
the guest sees neither steal time nor a gap between CPU and wall time. A
``Meter`` runs a fixed reference kernel from a ``SIGALRM`` handler every
``PERIOD`` seconds of wall time, in the benchmark's own (and only) thread,
between the bytecodes of whatever the package is doing, so that the host's
speed is sampled inside long steps too. ``Meter.normalise`` turns the wall
time of an interval into the time it would have taken with the kernel at
its nominal speed: the interval's own time, less the sampling inside it,
divided by the interval's slowdown (the kernel's mean time near the interval
over ``NOMINAL_S``).

The kernel does the kind of work the package does, and nothing of the
package: string building and dict lookups, and numpy log-sum-exp steps over
4x4 arrays. Its timings do not move when the package changes, so a change
that makes the package faster or slower moves normalised times as much as
raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD = 0.02  # seconds of wall time between kernel runs
NOMINAL_S = 0.0004  # the kernel's time on a quiet development host
MIN_SAMPLES = 8  # kernel runs that set the slowdown of a short interval

_WORDS = [f"w{i % 97}-{i % 13}" for i in range(80)]
_TRANS = np.random.default_rng(0).standard_normal((4, 4))


def kernel() -> float:
    """Fixed work of about ``NOMINAL_S``; returns a value so nothing is skipped."""
    table: dict[str, int] = {}
    for i, w in enumerate(_WORDS):
        for j in range(4):
            key = w + "|" + _WORDS[(i + j) % len(_WORDS)]
            table[key] = table.get(key, 0) + j
    alpha = np.zeros(4)
    for _ in range(40):
        scores = alpha[:, None] + _TRANS
        top = scores.max(axis=0)
        alpha = top + np.log(np.exp(scores - top).sum(axis=0))
    return float(alpha.sum()) + len(table)


class Meter:
    """Samples the kernel's time while started; times are ``time.perf_counter``."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []  # of the timed (second) kernel run
        self.spent: list[float] = []  # in the handler
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrived while sampling
            return
        self._busy = True
        # the first run warms the caches the interrupted code has cooled
        start = time.perf_counter()
        kernel()
        warm = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.spent.append(end - start)
        self.times.append(end - warm)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def slowdown(self, begin: float, end: float) -> float:
        """Mean kernel time over nominal, from the samples in [begin, end].

        A short interval holds few samples; it takes the ``MIN_SAMPLES``
        nearest its middle instead.
        """
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_right(self.starts, end)
        if hi - lo < MIN_SAMPLES:
            middle = bisect.bisect_left(self.starts, (begin + end) / 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = min(len(self.starts), lo + MIN_SAMPLES)
        if hi <= lo:
            return 1.0
        return sum(self.times[lo:hi]) / (hi - lo) / NOMINAL_S

    def sampled(self, begin: float, end: float) -> float:
        """Time spent sampling within [begin, end]."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.spent[lo:hi])

    def normalise(self, begin: float, end: float) -> float:
        """Seconds [begin, end] would have taken at the kernel's nominal speed."""
        return (end - begin - self.sampled(begin, end)) / self.slowdown(begin, end)
