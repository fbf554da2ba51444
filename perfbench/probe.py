"""How fast the machine is running right now, sampled during a measurement.

The benchmark runs on shared hosts whose speed drifts: on a two-core
virtual machine the same pure-Python loop was measured between 1.2x and
2.3x its fastest time, in phases lasting from seconds to minutes, so that
whole runs came out 50% slower than others.  A SpeedProbe times a fixed
loop every EVERY_S seconds from a SIGALRM handler, in the same process as
the work it measures.  Dividing a measured time by the probe's slowdown
over the same interval gives the time the work would have taken on the
machine when the loop runs in REF_S: "reference-speed seconds".  The
probe's own time is subtracted from every interval first.

The loop does integer arithmetic on a few local variables, so its time does
not depend on what the measured program left in the caches: a faster or
leaner gridmono cannot change the probe's reading.  The price is that the
loop sees less of the slowdown that comes from other tenants' use of cache
and memory (with a memory-bandwidth hog on the other core it ran 2% slower
while the workloads ran 13-23% slower), so part of the drift stays in the
numbers.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

ITERS = 20_000
EVERY_S = 0.1
# The loop's fastest time on a two-core x86-64 cloud VM under CPython 3.11
REF_S = 0.0013


def _loop() -> float:
    t = time.perf_counter()
    x = 0
    for j in range(ITERS):
        x += j * j % 7
    return time.perf_counter() - t


class SpeedProbe:
    def __init__(self):
        self._starts: list = []
        self._durations: list = []
        self.spent_s = 0.0   # total time inside the probe, to subtract

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        d = _loop()
        self._starts.append(start)
        self._durations.append(d)
        self.spent_s += time.perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, t0: float, t1: float) -> float:
        """Median probe time over [t0, t1], and the sample before it, over REF_S."""
        lo = max(0, bisect.bisect_left(self._starts, t0) - 1)
        hi = bisect.bisect_right(self._starts, t1)
        return statistics.median(self._durations[lo:max(hi, lo + 1)]) / REF_S
