"""Hot-path contract: which Python frames one packet-hop runs.

A hop's cost is mostly the Python frames it enters, so the per-hop
call sequence is pinned here on both engine backends: a packet crossing
an idle router runs exactly the link delivery, the router's forwarding,
the output link's admission, the queue's enqueue and dequeue, and the
booking of the next delivery.  The clock is read as ``sim.clock.now``
(no property call), RED keeps its average inside ``enqueue``, and only
the host at the end of the journey offers the packet back to the pool.

The pool tests pin the other half of that contract: a clean transfer
recycles every delivered packet, and a packet something still holds is
skipped and never handed out again.
"""

import sys

import pytest

from repro.experiments.common import FlowSpec, build_dumbbell_scenario
from repro.net.link import Link
from repro.net.node import Agent, Host, Router
from repro.net.packet import data_packet, drain_packet_pool, packet_pool
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


def profiled_calls(sim):
    """Run ``sim`` to completion; return the qualified names of the
    Python functions entered (and their callers) while it ran."""
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append((frame.f_code.co_qualname, frame.f_back.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        sim.run()
    finally:
        sys.setprofile(None)
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
        "Simulator.schedule_abs",
    ]
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
