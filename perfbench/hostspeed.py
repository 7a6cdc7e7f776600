"""Host speed during timed ops, for normalising their times.

The benchmark runs on shared hosts whose speed changes, as other tenants
come and go, by up to 1.9x within seconds, and can stay slow for longer than
a whole run.  A ``Sampler`` runs a short fixed probe every INTERVAL_S of wall
time, from a SIGALRM handler, and records how long it took.  The probe builds
tuples and updates a dict, as genxmod's inner loops do: on a 2-core shared VM
its slow-state time rose by the same factor (about 1.8-1.9x) as genxmod's
ops, where a pure-arithmetic loop rose by only 1.45x.

``Sampler.normalised_s`` turns an op's wall time into the time it would take
on a host where the probe takes REFERENCE_S, using the probes that ran during
the op (their own time is taken out of the op's).  The probe is the
benchmark's own code, so no change to genxmod can change it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from time import perf_counter

INTERVAL_S = 0.05
PROBE_ITERATIONS = 600
# about the probe's time on an unloaded 2.0 GHz Xeon core
REFERENCE_S = 0.001

_PERM = tuple((7 * i + 3) % 24 for i in range(24))


def probe() -> None:
    q = _PERM
    seen: dict = {}
    for _ in range(PROBE_ITERATIONS):
        q = tuple(_PERM[j] for j in q)
        seen[q] = seen.get(q, 0) + 1


class Sampler:
    """Times the probe every INTERVAL_S while active (use as a context manager)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _handle(self, signum, frame) -> None:
        start = perf_counter()
        probe()
        self.seconds.append(perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalised_s(self, start: float, end: float) -> float:
        """Seconds the op that ran from start to end would take at reference speed.

        The host speed is the mean of REFERENCE_S / probe time over the probes
        that ran during the op; an op without one takes the nearest probe.
        """
        lo = bisect_left(self.starts, start)
        hi = bisect_left(self.starts, end)
        inside = self.seconds[lo:hi]
        if inside:
            speeds = inside
        elif self.seconds:
            speeds = self.seconds[lo - 1 : lo] or self.seconds[hi : hi + 1]
        else:
            return end - start
        speed = statistics.fmean(REFERENCE_S / s for s in speeds)
        return (end - start - sum(inside)) * speed
