"""The one-event link transmitter against the two-event reference.

``TwoEventLink`` below is the transmitter ``Link`` used to have: a
transmission-done event at service end books the delivery and starts
the next packet, so every hop costs two engine events.  ``Link`` books
the delivery at service start and drains queued packets with one event
per service start.  On tie-free traffic the two must agree *bit for
bit* — delivery timestamps, delivery order and drop decisions — across
every link feature: DropTail and RED queues, rate schedules, reorder
jitter, tamper duplicates and outages.  Equality is exact (``==`` on
floats), not approx: the transmitter elides events, it must not
re-round arithmetic.

At equal timestamps the two differ on purpose.  ``Link`` serves the
next packet (departure) before it takes an arrival; the reference's
order depends on which event was booked first.  ``TestTieRule`` pins
the rule.
"""

import random

import pytest

from repro.faults.tamper import PacketTamperer
from repro.net.link import Link
from repro.net.packet import data_packet
from repro.net.queues import DropTailQueue
from repro.net.red import RedParams, RedQueue
from repro.net.reorder import JitterReorderer
from repro.net.varlink import RateSchedule
from repro.sim.engine import Simulator
from repro.sim.rng import RngStream
from repro.sim.tracing import TraceBus
from repro.snapshot import Snapshot


class TwoEventLink(Link):
    """Reference transmitter: tx-done event, then deliver event."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._busy = False

    def send(self, packet):
        if self._down or self.tamper is not None:
            if not self._screen(packet):
                return
        self._admit(packet)

    def _admit(self, packet):
        if self._loss_active and self._loss.should_drop(packet):
            self._emit("link.injected_drop", packet=packet)
            return
        if self.queue.enqueue(packet) and not self._busy:
            self._start_transmission()

    def _start_transmission(self):
        packet = self.queue.dequeue()
        self._busy = True
        self._sim.schedule(
            packet.size * 8.0 / self.bandwidth_bps, self._transmission_done, packet
        )

    def _transmission_done(self, packet):
        self._busy = False
        delay = self.delay
        if self.reorder is not None:
            delay += self.reorder.extra_delay(packet)
        self._sim.schedule(delay, self._deliver, packet)
        if not self.queue.is_empty:
            self._start_transmission()


class SinkNode:
    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, packet):
        self.arrivals.append((self.sim.now, packet.seqno))


class DropLog:
    def __init__(self):
        self.drops = []

    def __call__(self, record):
        self.drops.append(
            (record.time, record.fields["packet"].seqno, record.fields.get("reason"))
        )


class World:
    """One link feeding a sink, with every drop recorded."""

    def __init__(self, link_cls=Link, bandwidth_bps=8000.0, delay=1.0, limit=10,
                 red=None, seed=0):
        self.sim = Simulator()
        self.trace = TraceBus()
        if red is None:
            queue = DropTailQueue(limit=limit, name="q")
        else:
            queue = RedQueue(self.sim, red, RngStream(seed, "red"), name="q")
        self.link = link_cls(self.sim, "A->B", bandwidth_bps, delay, queue,
                             trace=self.trace)
        self.sink = SinkNode(self.sim)
        self.link.connect(self.sink)
        self.drop_log = DropLog()
        self.trace.subscribe("link.drop", self.drop_log)
        self.trace.subscribe("link.injected_drop", self.drop_log)

    def book(self, sends):
        for t, seqno, size in sends:
            self.sim.schedule_at(t, self.link.send, pkt(seqno, size=size))

    def run(self, until=None):
        self.sim.run(until=until)
        return self.sink.arrivals, self.drop_log.drops


def pkt(seqno, size=1000):
    return data_packet(1, "S1", "K1", seqno, size=size)


#: Propagation delay of the random-traffic worlds: not a round number,
#: so a re-associated ``(now + tx) + delay`` sum shows in the timestamps.
ODD_DELAY = 0.0371


def random_sends(seed, n=60, horizon=30.0):
    rng = random.Random(seed)
    sends = []
    for seqno in range(n):
        sends.append((rng.uniform(0.0, horizon), seqno, rng.choice([40, 500, 1000, 1500])))
    sends.sort()
    return sends


def run_both(sends, configure=None, **world_options):
    """Run ``sends`` through the one-event link and the reference.

    ``configure(world)`` attaches features after the build.
    Returns ``(one_event, reference)``, each ``(arrivals, drops,
    events_processed)``.
    """
    results = []
    for link_cls in (Link, TwoEventLink):
        world = World(link_cls, **world_options)
        if configure is not None:
            configure(world)
        world.book(sends)
        arrivals, drops = world.run()
        results.append((arrivals, drops, world.sim.events_processed))
    return results


def assert_bit_equal(one_event, reference):
    assert one_event[0] == reference[0]  # delivery times and order, exact
    assert one_event[1] == reference[1]  # drop decisions, exact


class TestEquivalence:
    def test_single_uncontended_packet_bit_equal(self):
        one, ref = run_both([(0.25, 0, 1000)])
        assert_bit_equal(one, ref)
        assert one[0] == [(2.25, 0)]

    def test_back_to_back_burst_identical(self):
        one, ref = run_both([(0.0, i, 1000) for i in range(5)])
        assert_bit_equal(one, ref)
        assert one[1] == []

    def test_overflow_drops_identical(self):
        # 20 simultaneous arrivals into a 3-slot queue: same survivors.
        one, ref = run_both([(0.0, i, 1000) for i in range(20)], limit=3)
        assert_bit_equal(one, ref)
        assert len(one[1]) > 0

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_randomised_traffic_bit_equal(self, seed):
        one, ref = run_both(random_sends(seed), limit=5, delay=ODD_DELAY)
        assert_bit_equal(one, ref)
        assert len(one[1]) > 0

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_red_queue_bit_equal(self, seed):
        red = RedParams(min_th=1.0, max_th=4.0, max_p=0.2, weight=0.2, limit=8)
        one, ref = run_both(random_sends(seed), red=red, seed=seed, delay=ODD_DELAY)
        assert_bit_equal(one, ref)
        reasons = {reason for _, _, reason in one[1]}
        assert len(reasons) > 1  # early and forced/overflow drops both seen

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_rate_schedule_bit_equal(self, seed):
        rng = random.Random(seed + 1000)
        times = sorted(rng.uniform(0.0, 30.0) for _ in range(12))
        steps = tuple((t, rng.uniform(4000.0, 16000.0)) for t in times)

        def configure(world):
            RateSchedule(steps=steps).apply(world.link)

        one, ref = run_both(random_sends(seed), configure, limit=5, delay=ODD_DELAY)
        assert_bit_equal(one, ref)

    def test_rate_step_mid_service(self):
        # 1000 B at 8000 bps is in service over [0, 1]; the step at 0.5
        # doubles the rate for the next service start only.
        def configure(world):
            RateSchedule(steps=((0.5, 16000.0),)).apply(world.link)

        one, ref = run_both([(0.0, 0, 1000), (0.0, 1, 1000)], configure)
        assert_bit_equal(one, ref)
        assert one[0] == [(2.0, 0), (2.5, 1)]

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_jitter_reorderer_bit_equal(self, seed):
        def configure(world):
            world.link.reorder = JitterReorderer(RngStream(seed, "jitter"), max_jitter=2.0)

        one, ref = run_both(random_sends(seed), configure, limit=5, delay=ODD_DELAY)
        assert_bit_equal(one, ref)
        seqnos = [seqno for _, seqno in one[0]]
        assert seqnos != sorted(seqnos)  # the jitter really reorders

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_tamper_duplicates_bit_equal(self, seed):
        def configure(world):
            world.link.tamper = PacketTamperer(
                world.sim, RngStream(seed, "tamper"), duplicate_rate=0.2, corrupt_rate=0.1
            )

        one, ref = run_both(random_sends(seed), configure, limit=5, delay=ODD_DELAY)
        assert_bit_equal(one, ref)
        seqnos = [seqno for _, seqno in one[0]]
        assert len(seqnos) > len(set(seqnos))  # duplicates were delivered

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_outages_bit_equal(self, seed):
        rng = random.Random(seed + 2000)
        windows = [(rng.uniform(0.0, 28.0), rng.uniform(0.1, 2.0)) for _ in range(4)]

        def configure(world):
            for start, duration in windows:
                world.link.schedule_outage(start, duration)

        one, ref = run_both(random_sends(seed), configure, limit=5, delay=ODD_DELAY)
        assert_bit_equal(one, ref)
        assert any(reason == "outage" for _, _, reason in one[1])

    def test_uncontended_traffic_uses_fewer_events(self):
        # Widely spaced packets: reference = tx_done + deliver per
        # packet, one-event transmitter = deliver only (on top of the
        # booked send events).
        sends = [(float(i * 10), i, 1000) for i in range(10)]
        one, ref = run_both(sends)
        assert_bit_equal(one, ref)
        assert one[2] - len(sends) == len(sends)
        assert ref[2] - len(sends) == 2 * len(sends)

    def test_contended_burst_never_uses_more_events(self):
        one, ref = run_both([(0.0, i, 1000) for i in range(10)])
        assert_bit_equal(one, ref)
        assert one[2] <= ref[2]


class TestTieRule:
    @staticmethod
    def _limit_one_world(link_cls, late_booking):
        # limit=1, 1 s transmission.  The head leaves the transmitter at
        # exactly t=1.0, when the third packet arrives.
        world = World(link_cls, limit=1)
        world.book([(0.0, 0, 1000), (0.5, 1, 1000)])
        third = pkt(2)
        if late_booking:
            world.sim.schedule_at(0.2, world.sim.schedule_at, 1.0, world.link.send, third)
        else:
            world.sim.schedule_at(1.0, world.link.send, third)
        return world

    @pytest.mark.parametrize("late_booking", [False, True])
    def test_departure_before_arrival_whatever_the_booking(self, late_booking):
        arrivals, drops = self._limit_one_world(Link, late_booking).run()
        assert arrivals == [(2.0, 0), (3.0, 1), (4.0, 2)]
        assert drops == []

    def test_reference_order_depends_on_booking(self):
        # The scenario above really hits the tie: the two-event
        # transmitter drops the third packet when its send was booked
        # before the service end that frees the queue slot.
        early, _ = self._limit_one_world(TwoEventLink, False).run()
        late, _ = self._limit_one_world(TwoEventLink, True).run()
        assert [seqno for _, seqno in early] == [0, 1]
        assert [seqno for _, seqno in late] == [0, 1, 2]

    def test_tx_aligned_sends_hit_the_busy_boundary_exactly(self):
        # tx = 1500*8/8e6 = 1.5 ms; sends every 0.5 ms land a packet on
        # every service boundary.  Whether each send was booked before
        # the run or from a callback, the outcome is the same, and no
        # service slot is ever double-booked.
        sends = [(i * 0.0005, i, 1500) for i in range(50)]
        outcomes = []
        for late_booking in (False, True):
            world = World(bandwidth_bps=8e6, delay=0.01, limit=20)
            if late_booking:
                for t, seqno, size in sends:
                    world.sim.schedule_at(
                        t / 2, world.sim.schedule_at, t, world.link.send, pkt(seqno, size)
                    )
            else:
                world.book(sends)
            outcomes.append(world.run())
        assert outcomes[0] == outcomes[1]
        arrivals, drops = outcomes[0]
        assert len(drops) > 0
        tx = 1500 * 8.0 / 8e6
        gaps = [b - a for (a, _), (b, _) in zip(arrivals, arrivals[1:])]
        assert min(gaps) >= tx * (1 - 1e-9)

    def test_simultaneous_arrivals_keep_fifo_order_at_a_tie(self):
        # Two arrivals at the service end t=1.0 of packet 0: packet 1
        # (queued) departs first, then both arrivals queue in send order.
        world = World(limit=2)
        world.book([(0.0, 0, 1000), (0.5, 1, 1000), (1.0, 2, 1000), (1.0, 3, 1000)])
        arrivals, drops = world.run()
        assert arrivals == [(2.0, 0), (3.0, 1), (4.0, 2), (5.0, 3)]
        assert drops == []


class TestBusyProperty:
    def test_busy_tracks_service_horizon(self):
        world = World()
        link = world.link
        assert not link.busy
        link.send(pkt(0))  # 1 s transmission
        assert link.busy
        world.run(until=0.5)
        assert link.busy
        world.run(until=1.5)
        assert not link.busy


class TestSnapshot:
    def test_mid_busy_period_roundtrip_continues_bit_identically(self):
        def build():
            world = World(limit=5, seed=3)
            world.link.reorder = JitterReorderer(RngStream(3, "jitter"), max_jitter=0.5)
            world.book(random_sends(3, n=60, horizon=10.0))
            return world

        reference = build().run()

        world = build()
        world.run(until=5.0)
        link = world.link
        assert link.busy and len(link.queue) > 0 and link._drain_pending
        restored = Snapshot.capture(world).restore()
        assert restored.run() == reference
