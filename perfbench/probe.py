"""Host-speed probe: scales measured times to a reference speed.

On a host whose cores are shared with other tenants, a core's speed can
swing by up to 2x over tens of seconds, longer than a run, and CPU time
swings with it.  A fixed piece of work, timed every PROBE_PERIOD seconds
while operations run, tracks that speed.  An operation's time is scaled by
the mean of PROBE_NOMINAL / probe time over the probes taken during it and
in the PROBE_WINDOW seconds before it.  The probe is the benchmark's own
code, so a change to the engine moves scaled times as it moves wall times.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_PERIOD = 0.1
PROBE_WINDOW = 1.0
PROBE_NOMINAL = 1e-3   # about the probe's time on a fast 2-core x86 host
_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(3)}


def probe_work() -> dict:
    """Fixed work shaped like the engine's: products of small sparse
    polynomials with rational coefficients."""
    for _ in range(2):
        out: dict = {}
        for m1, c1 in _POLY.items():
            for m2, c2 in _POLY.items():
                m = (m1[0] + m2[0], m1[1] + m2[1])
                out[m] = out.get(m, 0) + c1 * c2
    return out


class SpeedProbe:
    """Probe samples; as a context manager, taken from a SIGALRM timer."""

    def __init__(self):
        self.ends: list[float] = []
        self.costs: list[float] = []

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.costs.append(t1 - t0)

    def __enter__(self):
        for _ in range(int(PROBE_WINDOW / PROBE_PERIOD)):
            self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale(self, t0: float, t1: float) -> tuple[float, float]:
        """(scaled, raw) time of [t0, t1], without the probes taken inside it."""
        lo = bisect.bisect_left(self.ends, t0 - PROBE_WINDOW)
        mid = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        raw = t1 - t0 - sum(self.costs[mid:hi])
        factor = statistics.fmean(PROBE_NOMINAL / c for c in self.costs[lo:hi])
        return raw * factor, raw
