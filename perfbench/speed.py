"""Timing at a reference machine speed on a host whose speed swings.

A shared host can run the same code at full speed one second and at
little more than half speed the next, as other tenants come and go.
:class:`SpeedSampler` measures that speed while a workload runs: a
timer signal interrupts the process every ``period`` seconds to time a
short, fixed piece of interpreter work (:func:`calibration_s`), and the
ratio of its duration on the reference machine to its duration now is
the speed factor at that moment.  :meth:`SpeedSampler.scaled` turns a
measured interval into the time it would have taken at reference
speed: the interval minus the sampler's own time, times the mean
speed factor sampled inside it.  The calibration work imports nothing
from the program under test, so a change to the program cannot move it.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time

#: Rounds of :func:`calibration_s` per speed sample.
SAMPLE_ROUNDS = 3000

#: Seconds one sample takes on the reference machine (an otherwise
#: idle x86-64 core running CPython 3.11).
REFERENCE_SAMPLE_S = 0.0025


class _Token:
    __slots__ = ("key", "total")

    def __init__(self, key):
        self.key = key
        self.total = 0

    def add(self, value):
        self.total += value
        return self.total


def calibration_s(rounds=SAMPLE_ROUNDS):
    """Seconds this process takes for a fixed piece of interpreter work:
    heap pushes and pops of tuples, slot access, method calls and dict
    stores - the operations a discrete-event loop is made of."""
    start = time.perf_counter()
    heap = []
    table = {}
    tokens = [_Token(i) for i in range(64)]
    for i in range(rounds):
        heapq.heappush(heap, ((i * 7919) % 1000, i, tokens[i & 63]))
        if len(heap) > 100:
            token = heapq.heappop(heap)[2]
            table[i & 1023] = token.add(i)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the machine's speed on a ``SIGALRM`` timer.

    ``samples`` holds ``(time.monotonic() at the sample's end, speed
    factor, seconds the sample took)``.
    """

    def __init__(self, period=0.05):
        self.period = period
        self.samples = []
        self._take = self._sample

    def start(self):
        calibration_s()  # warm the code path; not a sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def trace_with(self, tracer, layer):
        """Record the sampler's own time as spans of ``layer``."""
        self._take = tracer.wrap(self._sample, layer)

    def _tick(self, signum, frame):
        self._take()

    def _sample(self):
        start = time.monotonic()
        seconds = calibration_s()
        end = time.monotonic()
        self.samples.append((end, REFERENCE_SAMPLE_S / seconds, end - start))

    def factor(self, start, end):
        """Mean speed factor sampled in ``[start, end]``, or the nearest
        sample's when the interval is shorter than the period."""
        inside = [f for t, f, _ in self.samples if start < t <= end]
        if inside:
            return statistics.fmean(inside)
        if not self.samples:
            return REFERENCE_SAMPLE_S / calibration_s()
        middle = (start + end) / 2
        return min(self.samples, key=lambda s: abs(s[0] - middle))[1]

    def sampling_s(self, start, end):
        """Seconds the sampler itself took in ``[start, end]``."""
        return sum(spent for t, _, spent in self.samples if start < t <= end)

    def scaled(self, start, end):
        """``end - start`` without the sampler's time, at reference speed."""
        return (end - start - self.sampling_s(start, end)) * self.factor(start, end)
