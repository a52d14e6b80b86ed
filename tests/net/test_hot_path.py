"""Hot-path contract: which Python frames one packet-hop runs.

A hop's cost is mostly the Python frames it enters, so the per-hop
call sequence is pinned here on both engine backends: a packet crossing
an idle router runs exactly the link delivery, the router's forwarding,
the output link's admission, the queue's enqueue and dequeue, and the
booking of the next delivery — a Python frame on the pure backend, a
call straight into the C core on the compiled one.  The clock is read
as ``sim.clock.now`` (no property call), RED keeps its average inside
``enqueue``, and only the host at the end of the journey offers the
packet back to the pool.

The TCP sender's ACK clock is pinned the same way: a steady-state new
ACK runs no accessor, property or wrapper frame that does no work.

The pool tests pin the other half of that contract: a clean transfer
recycles every delivered packet, and a packet something still holds is
skipped and never handed out again.
"""

import sys

import pytest

from repro.config import TcpConfig
from repro.core.robust_recovery import RobustRecoverySender
from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.link import Link
from repro.net.node import Agent, Host, Router
from repro.net.packet import ack_packet, data_packet, drain_packet_pool, packet_pool
from repro.net.queues import DropTailQueue
from repro.net.red import RedParams, RedQueue
from repro.sim.rng import RngStream


class SinkAgent(Agent):
    """Consumes packets without keeping them."""

    def receive(self, packet):
        pass


def _drop_tail(sim, name):
    return DropTailQueue(50, name)


def _red(sim, name):
    return RedQueue(sim, RedParams(), RngStream(1, name), name=name)


def line_of_hosts(sim, make_queue):
    """Hosts A and B joined through router R: ``A -> R -> B``."""
    a, r, b = Host(sim, "A"), Router(sim, "R"), Host(sim, "B")
    b.register(SinkAgent(1))
    for src, dst in ((a, r), (r, b)):
        name = f"{src.name}->{dst.name}"
        link = Link(sim, name, 10e6, 0.001, make_queue(sim, name))
        link.connect(dst)
        src.add_route("B", link)
    return a, r.routes["B"].queue


def profiled(fn, *args):
    """Call ``fn(*args)``; return the qualified names of the Python
    functions entered (and their callers) while it ran."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_qualname, frame.f_back.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def profiled_calls(sim):
    """Run ``sim`` to completion; return the qualified names of the
    Python functions entered (and their callers) while it ran."""
    calls = profiled(sim.run)
    assert calls[0][0] == "Simulator.run"
    return calls[1:]


def hops(names):
    """Split a call sequence into hops, each starting at a delivery."""
    out = [[]]
    for name in names:
        if name == "Link._deliver":
            out.append([])
        out[-1].append(name)
    return out


@pytest.mark.parametrize("make_queue", [_drop_tail, _red], ids=["droptail", "red"])
def test_idle_router_hop_runs_only_working_frames(backend_simulator, make_queue):
    sim = backend_simulator()
    a, router_queue = line_of_hosts(sim, make_queue)
    # Warm up first, so the engine's event free list is stocked and
    # the profiled packet sees the steady state (no Event allocation).
    sim.schedule(0.0, a.send, data_packet(1, "A", "B", 0))
    sim.run()
    sim.schedule(0.0, a.send, data_packet(1, "A", "B", 1))
    calls = profiled_calls(sim)
    queue = type(router_queue).__name__
    admit = [
        "Link.send",
        f"{queue}.enqueue",
        type(router_queue).dequeue.__qualname__,
    ]
    if sim._core is None:
        admit.append("Simulator.schedule_abs")
    host_send, router_hop, host_hop = hops(name for name, _ in calls)
    assert host_send == ["Node.send"] + admit
    assert router_hop == ["Link._deliver", "Router.receive"] + admit
    assert host_hop == ["Link._deliver", "Host.receive", "SinkAgent.receive", "maybe_release"]


def test_only_the_host_offers_packets_to_the_pool(backend_simulator):
    sim = backend_simulator()
    a, _ = line_of_hosts(sim, _red)
    for seq in range(20):
        sim.schedule(seq * 1e-4, a.send, data_packet(1, "A", "B", seq))
    calls = profiled_calls(sim)
    releases = [caller for name, caller in calls if name == "maybe_release"]
    assert releases == ["Host.receive"] * 20


def _dumbbell_transfer(backend_simulator):
    return build_dumbbell_scenario(
        [FlowSpec("newreno", amount_packets=200)], sim=backend_simulator()
    )


def test_clean_transfer_recycles_every_delivered_packet(backend_simulator):
    pool = packet_pool()
    drain_packet_pool()
    before = pool.stats()
    scenario = _dumbbell_transfer(backend_simulator)
    scenario.sim.run(until=60.0)
    assert scenario.senders[1].completed
    after = pool.stats()
    assert after["released"] > before["released"]
    assert after["reused"] > before["reused"]
    assert after["skipped"] == before["skipped"]


def test_a_kept_packet_is_skipped_and_never_handed_out_again(backend_simulator):
    pool = packet_pool()
    drain_packet_pool()
    before = pool.stats()
    scenario = _dumbbell_transfer(backend_simulator)
    kept = []

    def keep(record):
        packet = record.fields["packet"]
        kept.append((packet, packet.uid))

    scenario.dumbbell.net.trace.subscribe("link.tx", keep)
    scenario.sim.run(until=60.0)
    assert scenario.senders[1].completed
    assert pool.stats()["skipped"] > before["skipped"]
    # A recycled packet gets a fresh uid when it is handed out again.
    assert all(packet.uid == uid for packet, uid in kept)
    free = {id(packet) for packet in pool.free}
    assert not any(id(packet) in free for packet, _ in kept)


class DiscardingHost:
    """A sender's host that forwards nothing."""

    name = "S1"

    def send(self, packet):
        pass


#: Frames a steady-state new ACK must not enter on either backend:
#: accessors, properties and wrappers that only read or forward state.
IDLE_ACK_FRAMES = {
    "Simulator.now",
    "TcpSender.flight",
    "TcpSender.send_window",
    "TcpSender.data_available",
    "Timer._quantize",
    "Event.pending",
    "_UidSource.__call__",
    "Agent.local_name",
    "Agent.send",
}


def test_steady_state_new_ack_enters_no_idle_frames(backend_simulator):
    sim = backend_simulator()
    # A small ssthresh puts the sender in congestion avoidance after a
    # few ACKs; the default 0.1 s timer tick keeps quantization on.
    sender = RobustRecoverySender(sim, 1, "K1", config=TcpConfig(initial_ssthresh=4.0))
    sender.attach(DiscardingHost())
    sender.start()
    for ackno in range(1, 40):
        sender.receive(ack_packet(1, "K1", "S1", ackno))
    assert not sender.in_recovery and sender.cwnd >= sender.ssthresh
    sent = sender.packets_sent
    calls = {name for name, _ in profiled(sender.receive, ack_packet(1, "K1", "S1", 40))}
    assert sender.packets_sent > sent  # the ACK clocked out new data
    assert "TcpSender._ack_common" in calls and "Timer.start" in calls
    assert not calls & IDLE_ACK_FRAMES
    if sim._core is not None:
        assert not calls & {"Simulator.schedule", "Simulator._note_cancelled"}
