"""The CPU speed this thread sees, sampled while the benchmark runs.

On a shared 2-vCPU virtual machine the throughput of one core swings by
20-45% over tens of seconds, and the two cores swing independently (measured
with a fixed loop pinned to each core: correlation -0.16, one core at half
speed for 12 s while the other ran at full speed).  A wall time alone then
says more about the neighbours than about opcert.

``Speed`` runs a fixed reference loop, independent of opcert, from a
``SIGALRM`` handler ten times a second on the benchmark's own thread.  A
timed interval is reported as ``(wall - sampling time) * REFERENCE_S / mean
sample``, the mean taken over the samples from ``WINDOW_S`` before the
interval to ``WINDOW_S`` after it: its length at the reference speed.  A pass
of the ``fixtures`` job list measured this way varied 3% between 8-pass
windows where its wall time varied 13%.
"""

from __future__ import annotations

import bisect
import gc
import signal
from time import perf_counter

PERIOD_S = 0.1
WINDOW_S = 0.2
REFERENCE_S = 0.0007  # one sample on an unloaded core of the 2-vCPU machine

_WORDS = [tuple((i * 7 + k) % 5 for k in range(8)) for i in range(64)]


def _reference_work() -> int:
    """Tuple slicing and dict lookups, like the reduction kernels."""
    total = 0
    for _ in range(4):
        d: dict = {}
        for w in _WORDS:
            for k in range(1, 7):
                key = w[:k] + w[k:]
                d[key[k:]] = d.get(key[:k], 0) + 1
        total += len(d)
    return total


class Speed:
    """Samples the reference loop while active (a context manager)."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0  # seconds spent sampling, read around timed work
        self._previous = None

    def sample(self, *_) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would bill opcert's heap to us
        try:
            t0 = perf_counter()
            _reference_work()
            dt = perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t0, dt))
        self.spent += dt

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference speed over the speed sampled around ``start``..``end``
        (``perf_counter`` readings); samples once more if none is near."""
        lo = bisect.bisect_left(self.samples, (start - WINDOW_S,))
        hi = bisect.bisect_right(self.samples, (end + WINDOW_S, float("inf")))
        near = self.samples[lo:hi]
        if not near:
            self.sample()
            near = self.samples[-1:]
        return REFERENCE_S * len(near) / sum(dt for _, dt in near)
