"""Property: ``RedQueue``'s average follows Floyd–Jacobson exactly.

The average once lived in two copies (a method and an inlined duplicate
in ``enqueue``), and the idle-epoch advance was fixed in one copy only.
``enqueue`` now holds the only copy.  These tests pin it against an
independent reference written here from the RED paper (Floyd &
Jacobson 1993, Section 4):

* on every arrival with ``q`` packets queued,
  ``avg <- (1 - w) * avg + w * q``;
* an arrival at an empty queue first decays ``avg`` by ``(1 - w) ** m``
  where ``m = int(idle / s)`` small packets "could have been sent"
  during the idle span (``s`` the mean packet time), then applies the
  arrival's own update with ``q = 0``;
* the idle span starts when a departure empties the queue, and an
  arrival at an empty queue, accepted or dropped, advances it to the
  arrival time (the decay so far has been consumed); an arrival at a
  busy queue ends it.

The real queue is driven through ``enqueue``/``dequeue`` only and the
reference mirrors each step, taking the accept/drop outcome (which
never touches ``avg``) from the real queue; the two averages must be
float-identical over arbitrary arrival/idle/drain patterns.
"""

import pytest

from repro.net.packet import data_packet
from repro.net.red import RedParams, RedQueue
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream

# A slow EWMA (small weight, coarse mean packet time) keeps ``avg`` in
# the drop region across idle gaps — drops at an *empty* queue are where
# the idle-epoch rule matters.
PARAMS = RedParams(
    min_th=3.0, max_th=8.0, max_p=0.1, weight=0.05, limit=12, mean_pkt_time=0.02
)


class ReferenceAverage:
    """The RED average and idle epoch, transcribed from the paper."""

    def __init__(self, params, start_time):
        self.w = params.weight
        self.s = params.mean_pkt_time
        self.avg = 0.0
        self.qlen = 0
        self.idle_since = start_time  # None while the queue is busy

    def arrival(self, now, accepted):
        w = self.w
        q = self.qlen
        if q > 0 or self.idle_since is None:
            self.avg = (1 - w) * self.avg + w * q
        else:
            m = int((now - self.idle_since) / self.s)
            self.avg = self.avg * (1 - w) ** m
            self.avg = (1 - w) * self.avg
        self.idle_since = now if q == 0 else None
        if accepted:
            self.qlen += 1

    def departure(self, now):
        if self.qlen:
            self.qlen -= 1
        if self.qlen == 0:
            self.idle_since = now


def make_pair(sim, params=PARAMS):
    real = RedQueue(sim, params, RngStream(7, "red/real"), name="real")
    return real, ReferenceAverage(params, sim.now)


def offer(sim, real, ref, seq):
    """One arrival at both; returns ``(real_avg, reference_avg)``."""
    accepted = real.enqueue(data_packet(1, "S1", "K1", seq))
    ref.arrival(sim.now, accepted)
    return real.avg, ref.avg


def drain(sim, real, ref, n):
    for _ in range(n):
        real.dequeue()
        ref.departure(sim.now)


def test_drop_at_empty_queue_keeps_epochs_aligned():
    """Forced drops at an empty queue: each drop must consume the idle
    span so far (with the epoch wiped on drop, the next arrival would
    skip the decay and ``avg`` would stay locked above max_th)."""
    sim = Simulator()
    real, ref = make_pair(sim)
    real.avg = ref.avg = 40.0  # forced-drop region, queues empty
    pairs = []
    for i in range(5):
        sim.run(until=sim.now + 0.04)
        pairs.append(offer(sim, real, ref, i))
        drain(sim, real, ref, len(real))  # keep the link idle
    assert real.forced_drops > 0
    for got, want in pairs:
        assert got == want, pairs


@pytest.mark.parametrize("seed", [11, 29, 83])
def test_random_patterns_stay_in_lockstep(seed):
    pattern = RngStream(seed, "red/pattern")
    sim = Simulator()
    real, ref = make_pair(sim)
    real.avg = ref.avg = 20.0  # start hot: early arrivals find drops
    seq = 0
    real_avgs, ref_avgs = [], []
    for _ in range(500):
        roll = pattern.random()
        if roll < 0.55:
            r, s = offer(sim, real, ref, seq)
            real_avgs.append(r)
            ref_avgs.append(s)
            seq += 1
        elif roll < 0.8:
            drain(sim, real, ref, 1 + int(pattern.random() * 4))
        else:
            # Idle gap: advance the clock with nothing in flight.
            sim.run(until=sim.now + pattern.random() * 0.05)
    assert real.early_drops + real.forced_drops > 0  # pattern hit RED
    assert real_avgs == ref_avgs


def test_occupancy_mirroring_is_sound():
    """Sanity for the harness itself: reference occupancy tracks real."""
    sim = Simulator()
    real, ref = make_pair(sim)
    for i in range(20):
        offer(sim, real, ref, i)
        if i % 5 == 4:
            drain(sim, real, ref, 2)
    assert len(real) == ref.qlen > 0
