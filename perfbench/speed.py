"""The machine's speed while a run goes on, from a fixed loop timed throughout it.

The shared 2-vCPU hosts this benchmark was written on change speed by
themselves: a fixed pure-Python loop took anywhere from 13.6 to 22.5 ms
in 25 s windows a few minutes apart, and 0.5 s lrcdec ops swung by a
fifth from one second to the next, with no steal time reported.  Runs
of the same code therefore spread by as much as the metrics' bounds.

To take that out, a timer signal runs ``probe``, a loop that shares no
code with lrcdec, every INTERVAL_S of wall time, during ops as well as
between them.  A probe that ran during an op is taken out of the op's
latency.  Each op's latency is divided by the speed factor around it:
the median probe time of the samples taken while the op ran, widened to
at least WINDOW samples, over REFERENCE_S.  A timing metric then reads
as the time the op would take on the machine when the probe takes
REFERENCE_S.  The probes take PROBE_SHARE of the run.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REFERENCE_S = 0.00045  # the probe's median on that host in a typical stretch
PROBE_SHARE = 0.05
INTERVAL_S = REFERENCE_S / PROBE_SHARE
WINDOW = 32  # fewest probe samples behind one op's speed factor


def probe() -> float:
    """Seconds for one pass of a fixed interpreter loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(6000):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedMeter:
    """Probe samples of one run, and the speed factor over any stretch of it."""

    def __init__(self):
        self.samples: list[float] = []
        self.starts: list[float] = []  # perf_counter() when each sample began
        self._probing = False

    def _sample(self, *_):
        if self._probing:  # a tick that fell due during a sample is dropped
            return
        self._probing = True
        try:
            start = time.perf_counter()
            seconds = probe()
        finally:
            self._probing = False
        self.starts.append(start)
        self.samples.append(seconds)

    def burst(self, count: int) -> None:
        for _ in range(count):
            self._sample()

    @contextmanager
    def sampling(self):
        """Take a sample every INTERVAL_S of wall time while the block runs.

        The handler runs between two bytecodes of the main thread, so a
        sample lies wholly inside or wholly outside any timed call.
        """
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Position of the next sample, to bound a stretch of the run."""
        return len(self.samples)

    def probe_time(self, lo: int, t0: float, t1: float) -> float:
        """Seconds of the samples from position lo on that began between t0 and t1."""
        return sum(s for s, t in zip(self.samples[lo:], self.starts[lo:]) if t0 <= t < t1)

    def factor(self, lo: int = 0, hi: int | None = None) -> float:
        """Median of the samples in [lo, hi), widened to WINDOW, over REFERENCE_S."""
        n = len(self.samples)
        hi = n if hi is None else hi
        short = max(0, WINDOW - (hi - lo))
        lo = max(0, min(lo - short // 2, n - WINDOW))
        hi = min(n, max(hi, lo + WINDOW))
        return statistics.median(self.samples[lo:hi]) / REFERENCE_S
