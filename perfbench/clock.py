"""Job timing scaled to a reference machine speed.

On a shared machine the speed of the CPU a run gets can change by a
factor of two, within milliseconds and for tens of seconds at a time,
which no amount of repetition averages out.  So while a run measures,
an interval timer interrupts it every INTERVAL_S and times one run of a
fixed pure-Python kernel that shares no code with mereo.  The time spent
in the kernel is taken out of every measured interval, and each interval
is scaled by REFERENCE_S over the mean kernel time sampled during it
(widened by WINDOW_S on each side).  A job that takes twice as long
because the machine runs at half speed reads the same; a job that does
more work reads more.
"""

from __future__ import annotations

import bisect
import itertools
import signal
import statistics
from time import perf_counter

# Kernel time that defines the reference speed: scaled times read as
# seconds on a machine where one kernel run takes this long.
REFERENCE_S = 0.0014
# Time between kernel samples.
INTERVAL_S = 0.025
# Samples this close to an interval count towards its speed.
WINDOW_S = 0.05


def _kernel():
    """Fixed work in the style of the program: bit masks over permutations."""
    n = 6
    acc = 0
    seen = {}
    for p in itertools.permutations(range(n)):
        m = 0
        for i in range(n):
            m |= 1 << (p[i] * n + p[(i + 1) % n])
        seen[m & 0xFFFF] = m
        while m:
            low = m & -m
            acc += low.bit_length()
            m ^= low
    return acc + len(seen)


class ScaledClock:
    """Use as a context manager; inside it, time an interval with
    ``start = clock.now()`` ... ``clock.scaled(start)``."""

    def __init__(self):
        self._times = []       # when each kernel sample ended
        self._kernel = []      # the kernel time it measured
        self._stolen = 0.0     # total time spent taking samples
        self._previous = None

    def _sample(self, signum, frame):
        entered = perf_counter()
        _kernel()
        done = perf_counter()
        self._times.append(done)
        self._kernel.append(done - entered)
        self._stolen += perf_counter() - entered

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self):
        """An interval start: wall time and sampling time so far."""
        return perf_counter(), self._stolen

    def interval(self, start):
        """(begin, end, seconds) of the interval from start to now,
        without the time spent sampling."""
        begin, stolen = start
        end = perf_counter()
        return begin, end, end - begin - (self._stolen - stolen)

    def scale(self, begin, end):
        """Factor turning seconds measured in [begin, end] into reference
        seconds.  Call it once WINDOW_S has passed after end."""
        lo = bisect.bisect_left(self._times, begin - WINDOW_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_S)
        around = self._kernel[lo:hi] or self._kernel[max(lo - 1, 0):lo + 1]
        return REFERENCE_S * len(around) / sum(around)

    def median_kernel(self):
        return statistics.median(self._kernel)
