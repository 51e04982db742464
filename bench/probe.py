"""Machine-speed probe sampled from inside the timed section.

On a shared 2-core VM the speed of one core swings by up to 1.7x within
seconds, so the raw wall time of identical work varies by 20% from run to run.
While the benchmark runs, a SIGALRM timer fires every INTERVAL_S and its
handler times a fixed pure-Python loop.  The handler runs between the
program's bytecodes, so the samples are spread over each timed interval and
see most of the slowdowns the program sees.  An interval's calibrated time is
its wall time minus the probe time in it, scaled by REF_PROBE_S over the mean
probe time in it: the seconds the interval would take on a machine where the
probe loop takes REF_PROBE_S.  Work
removed from the program shows up one for one, because the probe does not call
the program.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
PROBE_LOOPS = 3000
REF_PROBE_S = 1e-4


def _spin(n: int) -> int:
    s = 0
    for i in range(n):
        s += i
    return s


class SpeedProbe:
    """Collects (start, duration) of each probe while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _spin(PROBE_LOOPS)
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrate(self, start: float, end: float) -> float:
        """Calibrated time of the perf_counter interval [start, end].

        An interval too short to hold a sample is scaled by the mean of all
        samples taken so far.
        """
        inside = [d for t, d in self.samples if start <= t <= end]
        window = inside or [d for _, d in self.samples]
        if not window:
            return end - start
        return (end - start - sum(inside)) * REF_PROBE_S / (sum(window) / len(window))
