"""Times in reference seconds, steady on a machine whose speed drifts.

On a shared host the speed at which this process runs the interpreter
drifts: a fixed pure-Python loop takes anywhere from 0.04 s to 0.11 s from
one moment to the next, and ten-second medians move by half, so raw wall
times of the same code spread past any useful bound. The benchmark
therefore measures the machine's speed while the program runs and reports
time as it would have passed on a machine of fixed speed.

While ``metered()`` is active, an interval timer (SIGALRM, every
``INTERVAL_S`` of wall time) interrupts the single thread between bytecodes
and runs ``slice_of_work``, a fixed pure-Python slice that does not depend on
the program. Its duration is the speed of the moment: the reference machine
runs it in exactly ``SLICE_REFERENCE_S``.

``clock()`` is the program clock, ``perf_counter()`` minus the time spent in
slices, so no span measured with it contains a slice. ``Timeline`` maps
program-clock times to reference time: the stretch between two slices is
scaled by the mean of their speeds, a slice's speed being
``SLICE_REFERENCE_S / duration`` averaged over its neighbours. Raw times go
to the run record next to the reference ones.
"""

from __future__ import annotations

import bisect
import signal
from contextlib import contextmanager
from time import perf_counter

INTERVAL_S = 0.01
SLICE_REFERENCE_S = 0.0005
SLICE_ITERATIONS = 1000
# a slice's own duration is noisy; the speed at a slice is the mean over
# the slices within SMOOTHING of it (about a tenth of a second)
SMOOTHING = 4

_spent = 0.0  # wall seconds spent in slices so far
_at: list[float] = []  # program-clock time of each slice
_durations: list[float] = []  # wall seconds of each slice


def clock() -> float:
    """Program clock: wall time that excludes the meter's slices."""
    return perf_counter() - _spent


def slice_of_work() -> int:
    """Fixed work in the idiom of the program: int and bit arithmetic,
    tuples, a set and a dict in a loop."""
    acc = 0
    seen = set()
    table = {}
    for i in range(SLICE_ITERATIONS):
        m = (i * 2654435761) & 0xFFFF
        acc ^= m >> (i & 7)
        if m & 3 == 0:
            seen.add(m & 255)
        table[i & 63] = (acc, m)
    return acc + len(seen)


def _on_alarm(signum, frame) -> None:
    global _spent
    t0 = perf_counter()
    slice_of_work()
    duration = perf_counter() - t0
    _at.append(t0 - _spent)
    _durations.append(duration)
    _spent += duration


@contextmanager
def metered():
    """Run the speed meter over the block."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def spent() -> float:
    """Wall seconds spent in slices so far."""
    return _spent


def durations() -> list[float]:
    """Wall seconds of the slices so far."""
    return list(_durations)


class Timeline:
    """Reference time of program-clock times, from the slices so far."""

    def __init__(self):
        if not _at:  # nothing metered yet: one speed, measured now
            _on_alarm(None, None)
        self.at = list(_at)
        speeds = [SLICE_REFERENCE_S / d for d in _durations]
        self.factor = []
        for i in range(len(speeds)):
            near = speeds[max(0, i - SMOOTHING) : i + SMOOTHING + 1]
            self.factor.append(sum(near) / len(near))
        self.cumulative = [0.0]
        for i in range(1, len(self.at)):
            step = (self.at[i] - self.at[i - 1]) * (self.factor[i] + self.factor[i - 1]) / 2
            self.cumulative.append(self.cumulative[-1] + step)

    def __call__(self, t: float) -> float:
        i = bisect.bisect_right(self.at, t) - 1
        if i < 0:
            return (t - self.at[0]) * self.factor[0]
        if i == len(self.at) - 1:
            return self.cumulative[i] + (t - self.at[i]) * self.factor[i]
        mean = (self.factor[i] + self.factor[i + 1]) / 2
        return self.cumulative[i] + (t - self.at[i]) * mean

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds between two program-clock times."""
        return self(end) - self(start)
