"""Correction of timings for the speed of a shared host.

On a shared machine the same Python code runs up to about 1.8x slower while
other tenants load the core, in phases that last from seconds to minutes.
A fixed probe loop, timed ten times a second from an interval timer while
the workload runs, measures that speed.  A corrected time is the measured
time scaled by REFERENCE_S over the median probe time around it: seconds
at the speed at which the probe takes REFERENCE_S.  The probe touches only
a small list and dict, so the program's own cache footprint barely moves it,
while a slower program still shows in full.  Raw times are reported beside
the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.1
# Typical probe time on an uncontended 2.1 GHz Xeon vCPU, Python 3.11;
# it only sets the scale of corrected times.
REFERENCE_S = 60e-6
# Probes within this distance of a timed interval count towards its speed,
# so that ops shorter than the period still see several probes.
WINDOW_S = 1.0

_TABLE = list(range(256))


def probe() -> int:
    acc = 0
    seen = {}
    for i in range(400):
        acc += _TABLE[i & 255] * i % 7
        seen[i & 63] = acc
    return acc


def warm_probe_s() -> float:
    """Probe time once the probe is warm: the second of two runs."""
    probe()
    start = time.perf_counter()
    probe()
    return time.perf_counter() - start


def speed_factor(probe_times) -> float:
    """Median probe time over REFERENCE_S: above 1 on a slowed host."""
    return statistics.median(probe_times) / REFERENCE_S


class SpeedSampler:
    """Times the probe every PERIOD_S while active (a context manager).

    For each alarm it records when the handler started, how long it ran and
    the probe time; handler time is taken out of the intervals it interrupts.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.handler_s: list[float] = []
        self.probe_s: list[float] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_s = warm_probe_s()
        self.starts.append(start)
        self.probe_s.append(probe_s)
        self.handler_s.append(time.perf_counter() - start)

    def correct(self, start: float, end: float) -> float:
        """Corrected length of the interval [start, end]."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        raw = end - start - sum(self.handler_s[lo:hi])
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_left(self.starts, end + WINDOW_S)
        if lo == hi:
            return raw
        return raw / speed_factor(self.probe_s[lo:hi])
