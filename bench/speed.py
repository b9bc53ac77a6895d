"""The host's speed, sampled while a workload runs.

On a host shared with other tenants (measured: a 2-vCPU Intel Xeon VM),
speed drifts by up to 2x with their load, within seconds and over minutes,
so raw times of the same work spread by 15-30%.

While a repetition runs, a timer signal interrupts it every
``SAMPLE_PERIOD_S`` and times a tiny fixed pure-Python loop that does not
touch lobsim. Like lobsim's hot loop, it allocates small immutable records
and re-sorts short tuples. The samples are cut out of the measured interval,
and the rest is scaled to the reference speed:

    reported = (measured - sampled) * REFERENCE_NOMINAL_S / mean(sample)

The signal handler runs between bytecodes, so a sample lies either wholly
inside a span of lobsim's code or wholly outside it.
"""

from __future__ import annotations

import random
import signal
import time
from array import array
from dataclasses import dataclass

SAMPLE_ITERATIONS = 200
SAMPLE_PERIOD_S = 0.05
# One sample's time at the speed all reported times are scaled to.
REFERENCE_NOMINAL_S = 0.0015


@dataclass(frozen=True)
class _Order:
    side: int
    level: int
    seq: int


def reference_loop(iterations: int = SAMPLE_ITERATIONS) -> float:
    """Run the fixed loop; returns its duration in seconds."""
    start = time.perf_counter()
    rng = random.Random(1)
    bids: tuple = ()
    asks: tuple = ()
    for i in range(iterations):
        order = _Order(i & 1, rng.randrange(1, 21), i)
        if order.side:
            bids = tuple(sorted(bids + (order,), key=lambda o: (-o.level, o.seq)))[:30]
        else:
            asks = tuple(sorted(asks + (order,), key=lambda o: (o.level, o.seq)))[:30]
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the reference loop on SIGALRM while the ``with`` block runs."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a signal that arrives during a sample is dropped
            return
        self._sampling = True
        start = time.perf_counter()
        reference_loop()
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self._sampling = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def sampled_between(self, start: float, end: float) -> float:
        """Sampled seconds inside [start, end]."""
        return sum(e - s for s, e in zip(self.starts, self.ends) if start <= s < end)

    def scale(self) -> float:
        """Nominal over mean sample time; one extra sample if none was taken."""
        durations = [e - s for s, e in zip(self.starts, self.ends)] or [reference_loop()]
        return REFERENCE_NOMINAL_S * len(durations) / sum(durations)

    def inside(self, span_starts, span_ends):
        """Sampled seconds inside each [start, end] of two numpy arrays."""
        import numpy as np  # not at module level: set-up probes time numpy's import

        starts = np.frombuffer(self.starts) if self.starts else np.empty(0)
        ends = np.frombuffer(self.ends) if self.ends else np.empty(0)
        cumulative = np.concatenate([[0.0], np.cumsum(ends - starts)])
        lo = np.searchsorted(starts, span_starts)
        hi = np.searchsorted(starts, span_ends)
        return cumulative[hi] - cumulative[lo]
