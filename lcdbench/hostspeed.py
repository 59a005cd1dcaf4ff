"""Host-speed calibration: timings scaled to a fixed reference speed.

On a shared virtual machine the host's speed drifts: the same pure-Python
loop takes from 1x to almost 2x its fastest time, in phases of a few
seconds, and lcdkit's jobs slow down with it (roughly, not in exact
proportion).  Wall times of the same inputs then spread by 20-30 %
between runs.  ``SpeedSampler`` measures that drift while the benchmark
runs: a SIGALRM timer interrupts the work every ``PERIOD`` seconds and the
handler times a fixed loop (``probe``) that shares no code with lcdkit.
``SpeedSampler.scaled`` then turns an interval of wall time into the time
it would have taken at the reference speed, the speed at which ``probe``
takes ``REF_S`` seconds:

    scaled = (wall time - time spent in the handler) * mean(REF_S / probe time)

over the probes taken inside the interval (or, for an interval shorter
than a few periods, the nearest ``MIN_PROBES`` probes).  A change to
lcdkit moves the wall time and not the probes, so it moves the scaled
time by the same share.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD = 0.02  # seconds between probes
REF_S = 0.0006  # probe time at the reference speed
PROBE_ROUNDS = 1500
MIN_PROBES = 25
# the probe's inputs, made once at import: fixed pseudo-random residues and
# a dict it writes into.  It holds only ints, which the cyclic garbage
# collector does not track, so a probe never triggers a collection.
_TABLE = [(i * 7919 + 13) % 65521 for i in range(256)]
_SLOTS = dict.fromkeys(range(1024), 0)


def probe() -> int:
    """A fixed mix of the operations lcdkit spends its time on: integer
    arithmetic modulo a prime, list indexing and dict stores.  Its working
    set is small, so the caches it finds warm or cold depend little on
    what lcdkit did before the interrupt."""
    table, slots = _TABLE, _SLOTS
    acc = 1
    for i in range(PROBE_ROUNDS):
        acc = (acc * 31 + table[acc & 255]) % 65521
        slots[(acc ^ i) & 1023] = acc
    return acc


class SpeedSampler:
    """Probes the host's speed every PERIOD seconds while active.

    Use as a context manager around the timed work; read ``scaled`` after
    it has ended, so that probes after an interval are there too."""

    def __init__(self, period: float = PERIOD):
        self.period = period
        self.starts: list[float] = []  # handler entry times, increasing
        self.ends: list[float] = []  # handler exit times
        self.probe_s: list[float] = []  # probe times
        self._old = None

    def _handler(self, _signum, _frame):
        perf = time.perf_counter
        t0 = perf()
        probe()
        t1 = perf()
        self.starts.append(t0)
        self.probe_s.append(t1 - t0)
        self.ends.append(perf())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _window(self, a: float, b: float) -> tuple[int, int]:
        """Indices [lo, hi) of the probes inside [a, b], widened to the
        nearest MIN_PROBES probes when fewer fall inside."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        n = len(self.starts)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < n):
            before = a - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - b if hi < n else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return lo, hi

    def handler_time(self, a: float, b: float) -> float:
        """Time the handler took inside [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        return sum(min(self.ends[i], b) - self.starts[i] for i in range(lo, hi))

    def speed(self, a: float, b: float) -> float:
        """Mean speed over [a, b] relative to the reference speed."""
        lo, hi = self._window(a, b)
        if lo == hi:
            raise RuntimeError("no speed probe was taken")
        return statistics.fmean(REF_S / t for t in self.probe_s[lo:hi])

    def scaled(self, a: float, b: float) -> float:
        """Wall interval [a, b] as seconds at the reference speed."""
        return (b - a - self.handler_time(a, b)) * self.speed(a, b)


class WallClock:
    """Stands in for SpeedSampler where timings stay unscaled (traced runs)."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    @staticmethod
    def scaled(a: float, b: float) -> float:
        return b - a
