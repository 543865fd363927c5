"""Host-speed calibration: reference seconds instead of wall seconds.

A shared host's speed drifts, in wall and CPU time alike: the same solve
can take 35 ms at one moment and 65 ms a second later, and the mean over a
20 s run moves by 20% or more from one run to the next.  Raw times
therefore spread more across runs than any change in didom worth
measuring.  The drift is slow enough to track, so each run:

- reads every time from the thread's CPU clock, which leaves out waits for
  a CPU while other processes run;
- times a fixed piece of pure Python that belongs to the benchmark, once
  every ``EVERY_S`` of CPU time, from a profiling-timer signal that
  interrupts whatever runs, long solves included;
- subtracts those calibrations from the times they interrupted, and scales
  each time by ``NOMINAL_NS / c`` averaged over the calibrations ``c``
  taken during it and just before it.

A time so scaled reads as it would on a host where the calibration takes
``NOMINAL_NS``: reference seconds.  On such a host, with no other process
competing for the CPU, reference seconds equal wall seconds.

The calibration shares no code with didom, so no change to didom moves it.
It allocates no container objects (only ints), so it never triggers the
garbage collector and its time does not grow with the workload's heap.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import thread_time_ns

# Every time the benchmark reports is read from this clock.
clock = thread_time_ns

# Closed out-neighbourhoods of a fixed 11-vertex digraph, as bitmasks.
_SETS = tuple((1 << v) | (1 << (v + 1) % 11) | (1 << (3 * v + 2) % 11) for v in range(11))
_FULL = (1 << 11) - 1
_COUNTS = [0] * 12  # covers found, by size; kept so the scan has no dead work
# Typical time of one calibration on the host the reference figures come
# from: a 2-vCPU KVM guest, Python 3.11.7 (see README.md).
NOMINAL_NS = 1_850_000
EVERY_S = 0.05  # one calibration per 50 ms of CPU time
WINDOW = 3  # calibrations before an item that also scale it


def _work() -> int:
    """Smallest cover of _FULL by _SETS, by scanning every subset."""
    sets, full = _SETS, _FULL
    best = len(sets)
    counts = _COUNTS
    for mask in range(1, 1 << len(sets)):
        covered = 0
        m = mask
        while m:
            low = m & -m
            covered |= sets[low.bit_length() - 1]
            m ^= low
        if covered == full:
            size = mask.bit_count()
            counts[size] += 1
            if size < best:
                best = size
    return best


class Calibrator:
    """Calibrations in the order they were taken: the clock when each
    started, and running totals of their times and of NOMINAL_NS / time."""

    def __init__(self) -> None:
        self.at = array("q")
        self.spent = array("q", [0])
        self.speed = array("d", [0.0])
        _work()  # warm the interpreter's specialisation of _work

    def sample(self, *_signal) -> None:
        t = clock()
        _work()
        c = clock() - t
        self.spent.append(self.spent[-1] + c)
        self.speed.append(self.speed[-1] + NOMINAL_NS / c)
        self.at.append(t)

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    @contextmanager
    def periodic(self, handler=None):
        """Take one sample per EVERY_S of CPU time while the block runs,
        through handler (a wrapper of self.sample) if given."""
        previous = signal.signal(signal.SIGPROF, handler or self.sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def spent_ns(self, first: int = 0) -> int:
        """Time of the calibrations from the first-th on."""
        return self.spent[-1] - self.spent[first]

    def scale(self) -> float:
        """Reference time per CPU time over every calibration: the mean of
        NOMINAL_NS / c, since the work done in a stretch of time is
        proportional to 1 / c.  Below 1 on a slow host."""
        return self.speed[-1] / len(self.at)

    def reference_ns(self, start: int, t: int) -> float:
        """The time t of an item that started at clock `start`, less the
        calibrations that started within it, scaled over those and the
        WINDOW before it.  A calibration runs whole between two bytecodes,
        so one that started within the item also ended within it."""
        hi = bisect_right(self.at, start + t)
        lo = bisect_left(self.at, start, 0, hi)
        a = max(0, lo - WINDOW)
        return (t - self.spent[hi] + self.spent[lo]) * (self.speed[hi] - self.speed[a]) / (hi - a)
