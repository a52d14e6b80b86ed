"""Unidirectional links with transmission + propagation delay.

A link models one output interface: an ingress queue discipline plus a
transmitter that serves one packet at a time.  A packet of ``size``
bytes occupies the transmitter for ``size * 8 / bandwidth`` seconds and
arrives at the far end ``delay`` seconds after transmission completes —
classic store-and-forward.

The transmitter costs one engine event per hop.  A packet that finds
it idle starts service at once, and only its delivery is booked, at
``(now + size * 8 / bandwidth) + delay``.  Packets that queue behind a
busy transmitter are served by one drain event booked at the instant
the transmitter frees up; it serves the head of the queue and rebooks
itself while packets wait.  At equal timestamps the departure (the
next service start) happens before an arrival, whatever order the two
were booked in, so drop decisions never depend on booking history.

An optional :class:`~repro.net.loss.LossModule` sits in front of the
queue for artificial loss injection ("artificial losses are introduced
at the gateway R1", paper Section 4).
"""

from __future__ import annotations

from typing import Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.loss import LossModule, NoLoss
from repro.net.packet import Packet
from repro.net.queues import PacketQueue
from repro.sim.engine import Simulator
from repro.sim.tracing import NULL_CHANNEL, TraceBus

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node


class Link:
    """One-way link ``src -> dst``.

    Parameters
    ----------
    sim:
        Event engine.
    name:
        Human-readable identifier, e.g. ``"R1->R2"``.
    bandwidth_bps:
        Link rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue:
        Ingress queue discipline (owned by this link).
    trace:
        Optional trace bus; publishes ``link.drop`` / ``link.tx`` records
        (``link.tx`` at service start).
    loss:
        Optional artificial loss module applied before the queue.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        delay: float,
        queue: PacketQueue,
        trace: Optional[TraceBus] = None,
        loss: Optional[LossModule] = None,
    ):
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth_bps}")
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay}")
        self._sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.queue = queue
        self.trace = trace
        self.loss = loss or NoLoss()  # property: also derives _loss_active
        self._dst: Optional["Node"] = None
        # Optional reordering injector (see repro.net.reorder): adds
        # per-packet extra propagation delay so later packets overtake.
        self.reorder = None
        # Optional packet tamperer (see repro.faults.tamper): may
        # duplicate or corrupt-drop packets before they reach the queue.
        self.tamper = None
        self._down = False
        # Transmitter state: the packet in service leaves the
        # transmitter at _busy_until, and while packets wait behind it
        # exactly one drain event is booked (_drain_pending).
        self._busy_until = sim.now
        self._drain_pending = False
        # Optional time-varying rate schedule (repro.net.varlink); set
        # by RateSchedule.apply.  None is stripped from checkpoints so
        # unscheduled links pickle as a schedule-unaware link would.
        self.rate_schedule = None
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.outage_drops = 0
        # Let RED age its average using this link's packet service time.
        setter = getattr(queue, "set_mean_packet_time", None)
        if setter is not None:
            setter(8.0 * 1000 / bandwidth_bps)
        queue.on_drop = self._queue_dropped
        # Derived tracing state (never pickled; see __getstate__).
        self._bind_trace_channels()

    # ------------------------------------------------------------------
    # tracing fast path / checkpointing
    # ------------------------------------------------------------------
    def _bind_trace_channels(self):
        """(Re)derive the cached ``link.tx`` channel — the only
        per-packet emit on a link's hot path."""
        trace = self.trace
        self._ch_tx = NULL_CHANNEL if trace is None else trace.channel("link.tx")
        return self._ch_tx

    @property
    def loss(self) -> LossModule:
        return self._loss

    @loss.setter
    def loss(self, module: LossModule) -> None:
        # Cache "is this a real loss module?" so the per-packet path
        # skips the NoLoss.should_drop call entirely.
        self._loss = module
        self._loss_active = type(module) is not NoLoss

    def __getstate__(self):
        """The live ``__dict__`` minus derived caches (trace channel,
        loss-activity flag), with the loss module under its public
        ``loss`` key — keeping checkpoints and golden digests identical
        to a cache-free link."""
        state = self.__dict__.copy()
        state.pop("_ch_tx", None)
        del state["_loss"], state["_loss_active"]
        state["loss"] = self._loss
        if state.get("rate_schedule") is None:
            state.pop("rate_schedule", None)
        return state

    def __setstate__(self, state) -> None:
        state = dict(state)
        loss = state.pop("loss")
        state.setdefault("rate_schedule", None)
        self.__dict__.update(state)
        self.loss = loss
        # Rebound lazily on first emit: the trace bus may itself still
        # be mid-unpickle here.
        self._ch_tx = None

    def connect(self, dst: "Node") -> None:
        """Attach the receiving node."""
        self._dst = dst

    @property
    def dst(self) -> Optional["Node"]:
        return self._dst

    @property
    def busy(self) -> bool:
        """True while a packet occupies the transmitter, or waits to
        enter it at this instant."""
        return self._drain_pending or self._sim.now < self._busy_until

    def transmission_time(self, packet: Packet) -> float:
        """Seconds the transmitter is occupied by ``packet``."""
        return packet.size * 8.0 / self.bandwidth_bps

    def set_bandwidth(self, bandwidth_bps: float) -> None:
        """Change the link rate at runtime (rate schedules use this as
        their step callback).  Takes effect at the next service start:
        the packet currently in the transmitter keeps the service time
        it was admitted with.  RED's idle-aging clock follows the new
        rate."""
        if bandwidth_bps <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {bandwidth_bps}")
        if bandwidth_bps != self.bandwidth_bps:
            self.bandwidth_bps = bandwidth_bps
            setter = getattr(self.queue, "set_mean_packet_time", None)
            if setter is not None:
                setter(8.0 * 1000 / bandwidth_bps)
            self._emit("link.rate", bandwidth_bps=bandwidth_bps)

    # ------------------------------------------------------------------
    # outages
    # ------------------------------------------------------------------
    @property
    def is_down(self) -> bool:
        return self._down

    def set_down(self) -> None:
        """Take the link down: every packet arriving while down is
        destroyed (a natural generator of loss bursts).  Packets
        already in the queue or in flight are unaffected."""
        if not self._down:
            self._down = True
            self._emit("link.down")

    def set_up(self) -> None:
        """Restore the link."""
        if self._down:
            self._down = False
            self._emit("link.up")

    def schedule_outage(self, start: float, duration: float) -> None:
        """Convenience: go down at absolute time ``start`` for
        ``duration`` seconds."""
        if duration < 0:
            raise ConfigurationError("outage duration must be >= 0")
        self._sim.schedule_at(start, self.set_down)
        self._sim.schedule_at(start + duration, self.set_up)

    def send(self, packet: Packet) -> None:
        """Entry point: apply outages, tampering and loss injection,
        queue, and serve the packet at once if the transmitter is idle."""
        if self._down or self.tamper is not None:
            if not self._screen(packet):
                return
        # Common path: _admit and _serve inlined (one Python frame per
        # packet that finds the transmitter idle).
        if self._loss_active and self._loss.should_drop(packet):
            self._emit("link.injected_drop", packet=packet)
            return
        sim = self._sim
        now = sim.clock.now
        queue = self.queue
        if now < self._busy_until:
            if queue.enqueue(packet) and not self._drain_pending:
                self._drain_pending = True
                sim.schedule_abs(self._busy_until, self._drain)
        elif self._drain_pending:
            # The transmitter frees up at this very instant: departure
            # before arrival, whatever order the two were booked in.
            self._serve(now)
            queue.enqueue(packet)
        elif queue.enqueue(packet):
            # Idle transmitter: the packet still passes through the
            # queue (its discipline sees every arrival) and leaves it
            # at once.
            packet = queue.dequeue()
            ch = self._ch_tx
            if ch is None:
                ch = self._bind_trace_channels()
            if ch.subs:
                ch.emit(now, self.name, packet=packet)
            delay = self.delay
            if self.reorder is not None:
                delay += self.reorder.extra_delay(packet)
            busy = now + packet.size * 8.0 / self.bandwidth_bps
            self._busy_until = busy
            sim.schedule_abs(busy + delay, self._deliver, packet)

    def _screen(self, packet: Packet) -> bool:
        """Apply an outage or a tamperer to ``packet``; admit a
        duplicate copy ahead of it.  False if the packet is destroyed."""
        if self._down:
            self.outage_drops += 1
            self._emit("link.injected_drop", packet=packet, reason="outage")
            return False
        verdict = self.tamper.verdict(packet)
        if verdict == "corrupt":
            # Corruption is modelled as a drop: the checksum fails at
            # the receiver, so the packet might as well vanish.
            self._emit("link.injected_drop", packet=packet, reason="corrupt")
            return False
        if verdict == "duplicate":
            self._emit("link.duplicate", packet=packet)
            self._admit(self.tamper.clone(packet))
        return True

    def _admit(self, packet: Packet) -> None:
        """Run loss injection, queueing and service for one packet copy
        (``send`` carries an inlined copy of this body)."""
        if self._loss_active and self._loss.should_drop(packet):
            self._emit("link.injected_drop", packet=packet)
            return
        now = self._sim.clock.now
        if now < self._busy_until:
            if self.queue.enqueue(packet) and not self._drain_pending:
                self._drain_pending = True
                self._sim.schedule_abs(self._busy_until, self._drain)
        elif self._drain_pending:
            self._serve(now)
            self.queue.enqueue(packet)
        elif self.queue.enqueue(packet):
            self._serve(now)

    # ------------------------------------------------------------------
    # the transmitter
    # ------------------------------------------------------------------
    def _serve(self, now: float) -> None:
        """Start service of the head-of-line packet at ``now`` and book
        its delivery at ``(now + transmission time) + delay``."""
        packet = self.queue.dequeue()
        ch = self._ch_tx
        if ch is None:
            ch = self._bind_trace_channels()
        if ch.subs:
            ch.emit(now, self.name, packet=packet)
        delay = self.delay
        if self.reorder is not None:
            delay += self.reorder.extra_delay(packet)
        # transmission_time() inlined; the expression must stay exactly
        # ``size * 8.0 / bandwidth`` and the sum must associate as
        # ``(now + tx) + delay`` — a pre-divided constant or a pre-added
        # ``tx + delay`` would round differently and shift every
        # timestamp.
        busy = now + packet.size * 8.0 / self.bandwidth_bps
        self._busy_until = busy
        self._sim.schedule_abs(busy + delay, self._deliver, packet)

    def _drain(self) -> None:
        """Service-start tick, booked at ``_busy_until`` while packets
        wait: serve the head, and rebook while the queue is non-empty.
        An arrival that tied with this tick may already have served the
        head (see ``send``); then the tick only rebooks."""
        sim = self._sim
        now = sim.clock.now
        if now >= self._busy_until:
            self._serve(now)
        if self.queue.is_empty:
            self._drain_pending = False
        else:
            sim.schedule_abs(self._busy_until, self._drain)

    def _queue_dropped(self, packet: Packet, reason: str) -> None:
        self._emit("link.drop", packet=packet, reason=reason, qlen=len(self.queue))

    def _deliver(self, packet: Packet) -> None:
        # A host recycles the packet once its agent has consumed it
        # (Host.receive); a router hands it on, so there is nothing to
        # recycle here.
        self.packets_delivered += 1
        self.bytes_delivered += packet.size
        if self._dst is None:
            raise ConfigurationError(f"link {self.name} has no destination node")
        self._dst.receive(packet)

    def _emit(self, category: str, **fields) -> None:
        if self.trace is not None:
            self.trace.emit(self._sim.now, category, self.name, **fields)
