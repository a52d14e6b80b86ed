"""Layer spans, call counters and the instance census for one workload process.

Two independent instruments live here, both installed from the
benchmark's own files by patching ``repro`` classes at run time (the
program under test is never edited):

* :class:`Census` wraps the constructors of the simulator, links, nodes
  and protocol agents so that every object a workload builds is
  remembered until :meth:`Census.harvest` sums its public counters
  (events, packet-hops, drops by cause, sends, retransmits, timeouts,
  delivered packets).  It is cheap - one list append per constructed
  object - and runs in untraced and traced processes alike, which is
  what lets the benchmark compare the two runs' simulated counters.
* :class:`Tracer` wraps the entry points of each layer's modules (see
  :meth:`Tracer.instrument`) in spans.  A span opens only when control
  crosses from one layer into another; a layer's self time is its
  spans' duration minus the part covered by their child spans, so the
  self times of all layers plus the root's ("unattributed") sum exactly
  to the traced wall time.  Spans are folded into per-layer totals as
  they close instead of being kept, because a traced run closes
  millions of them.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil
import re
import sys
import time
import types

#: Layer name -> module names (a name also covers its submodules).
#: A module belongs to the first layer that lists it or a parent
#: package, so the more specific entries come first.
LAYERS = (
    ("sim.engine", ("repro.sim.engine",)),
    ("sim.timers", ("repro.sim.timers",)),
    ("sim.tracing", ("repro.sim.tracing",)),
    ("sim.watchdog", ("repro.sim.watchdog",)),
    ("net.link", ("repro.net.link", "repro.net.varlink")),
    ("net.queues", ("repro.net.queues",)),
    ("net.red", ("repro.net.red",)),
    ("net.node", ("repro.net.node",)),
    ("net.network", (
        "repro.net.network",
        "repro.net.topology",
        "repro.scenes.build",
        "repro.scenes.topologies",
        "repro.experiments.common",
        "repro.tcp.factory",
    )),
    ("tcp.receiver", ("repro.tcp.receiver",)),
    ("tcp", ("repro.tcp", "repro.core")),
    ("metrics", ("repro.metrics",)),
    ("app", ("repro.app",)),
    ("runner", ("repro.runner",)),
    ("experiments", ("repro.experiments",)),
)

#: The root span's name: time inside the workload but in no layer.
UNATTRIBUTED = "unattributed"

#: Spans of the benchmark's machine-speed sampler (``speed.py``).
SAMPLER = "speed_sampler"

#: (module, qualified name) -> counter bumped on every call.
CALL_COUNTERS = {
    ("repro.sim.timers", "Timer.start"): "sim.timers.restarts",
    ("repro.net.link", "Link.send"): "net.link.sends",
    ("repro.net.link", "Link.set_bandwidth"): "net.link.rate_changes",
    ("repro.tcp.base", "TcpSender.receive"): "tcp.acks",
    ("repro.sim.tracing", "TraceChannel.emit"): "sim.tracing.emits",
    ("repro.sim.tracing", "TraceBus.emit"): "sim.tracing.emits",
    ("repro.sim.tracing", "TraceBus.publish"): "sim.tracing.emits",
}

#: (module, qualified name) -> timer accumulating inclusive seconds.
CALL_TIMERS = {
    ("repro.scenes.build", "build_scene"): "net.network.build_s",
    ("repro.experiments.common", "build_dumbbell_scenario"): "net.network.build_s",
    ("repro.net.network", "Network.compute_routes"): "net.network.routes_s",
    ("repro.runner.cache", "ResultCache.store"): "runner.cache_store_s",
}


def layer_of(module_name):
    """The layer a module belongs to, or None when it is not traced."""
    for layer, prefixes in LAYERS:
        for prefix in prefixes:
            if module_name == prefix or module_name.startswith(prefix + "."):
                return layer
    return None


class Tracer:
    """Per-layer self times, call counters and call timers.

    ``clock`` is injectable so the span arithmetic can be tested with
    a fake clock.  The stack holds one ``[layer, child_seconds]`` frame
    per open span; its bottom frame is the root (:data:`UNATTRIBUTED`).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        names = [layer for layer, _ in LAYERS] + [SAMPLER, UNATTRIBUTED]
        self.self_time = dict.fromkeys(names, 0.0)
        self.counts = dict.fromkeys(sorted(set(CALL_COUNTERS.values())), 0)
        self.timers = dict.fromkeys(sorted(set(CALL_TIMERS.values())), 0.0)
        self._stack = [[UNATTRIBUTED, 0.0]]
        self._active_timers = set()
        self._root_start = None
        self.total = 0.0

    # -- root span ---------------------------------------------------
    def start(self):
        """Open the root span; spans closed before this are forgotten."""
        for name in self.self_time:
            self.self_time[name] = 0.0
        self._stack[0][1] = 0.0
        self._root_start = self.clock()

    def stop(self):
        """Close the root span; its self time is the unattributed rest."""
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} layer spans still open")
        self.total = self.clock() - self._root_start
        self.self_time[UNATTRIBUTED] = self.total - self._stack[0][1]

    # -- wrappers ----------------------------------------------------
    def wrap(self, fn, layer):
        """``fn`` inside a span of ``layer``.  The clock starts as soon
        as the span opens, so a span's own bookkeeping is charged to
        its layer rather than to the caller's."""
        stack = self._stack
        clock = self.clock
        self_time = self.self_time

        def span(*args, **kwargs):
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)  # same layer: no new span
            start = clock()
            frame = [layer, 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - start
                self_time[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed

        return _named_like(span, fn)

    def count(self, fn, key):
        """``fn`` bumping counter ``key`` on every call."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return _named_like(counted, fn)

    def time_calls(self, fn, key):
        """``fn`` adding its inclusive seconds to timer ``key``; a call
        nested inside another call to the same timer is not re-added."""
        clock = self.clock
        timers = self.timers
        active = self._active_timers

        def timed(*args, **kwargs):
            if key in active:
                return fn(*args, **kwargs)
            active.add(key)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[key] += clock() - start
                active.discard(key)

        return _named_like(timed, fn)

    def instrument(self):
        """Wrap the entry points of every layer module.

        An entry point is a public method or function, ``__call__``, or
        a private method that its module hands out as a callback (a
        ``self._name`` that is not called on the spot, such as an event
        handler passed to ``Simulator.schedule``).  Private methods
        called in place stay unwrapped: they run inside their caller's
        span, which belongs to the same layer.

        Methods are replaced in their class; a module-level function is
        replaced wherever a ``repro`` module holds it by name, so that
        ``from x import f`` bindings made before this call see the
        wrapper too.
        """
        replaced = {}
        for module in _import_layer_modules():
            layer = layer_of(module.__name__)
            callbacks = set(_CALLBACK_REF.findall(inspect.getsource(module)))
            for value in list(vars(module).values()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, type):
                    self._wrap_class(value, module.__name__, layer, callbacks, replaced)
                elif isinstance(value, types.FunctionType) and _is_entry(value.__name__, ()):
                    replaced.setdefault(value, self._wrapped(value, module.__name__, layer))
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                if isinstance(value, types.FunctionType) and value in replaced:
                    namespace[name] = replaced[value]

    def _wrap_class(self, cls, module_name, layer, callbacks, replaced):
        if issubclass(cls, enum.Enum):
            return
        for name, value in list(vars(cls).items()):
            if not isinstance(value, types.FunctionType) or not _is_entry(name, callbacks):
                continue
            if value not in replaced:
                replaced[value] = self._wrapped(value, module_name, layer)
            setattr(cls, name, replaced[value])

    def _wrapped(self, fn, module_name, layer):
        key = (module_name, fn.__qualname__)
        wrapped = self.wrap(fn, layer)
        if key in CALL_COUNTERS:
            wrapped = self.count(wrapped, CALL_COUNTERS[key])
        if key in CALL_TIMERS:
            wrapped = self.time_calls(wrapped, CALL_TIMERS[key])
        return wrapped


#: ``self._name`` not followed by a call: a private method handed out.
_CALLBACK_REF = re.compile(r"\bself\.(_[A-Za-z]\w*)\b(?!\s*\()")


def _is_entry(name, callbacks):
    if name.startswith("__"):
        return name == "__call__"
    return not name.startswith("_") or name in callbacks


def _named_like(wrapper, fn):
    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__qualname__ = fn.__qualname__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _import_layer_modules():
    """Import every module of every layer (packages walked)."""
    names = set()
    for _, prefixes in LAYERS:
        for prefix in prefixes:
            module = importlib.import_module(prefix)
            names.add(prefix)
            if hasattr(module, "__path__"):
                for info in pkgutil.walk_packages(module.__path__, prefix + "."):
                    names.add(info.name)
    modules = []
    for name in sorted(names):
        if layer_of(name) is None or name.endswith("__main__"):
            continue
        modules.append(importlib.import_module(name))
    return modules


class Census:
    """Remembers the objects a workload builds and sums their counters."""

    def __init__(self):
        self.sims = []
        self.links = []
        self.nodes = []
        self.agents = []
        self.reset_totals()
        self.first_event = None  # time.monotonic() at the first Simulator.run

    def reset_totals(self):
        self.totals = dict.fromkeys(COUNTER_NAMES, 0)

    def install(self):
        from repro.net.link import Link
        from repro.net.node import Agent, Node
        from repro.sim.engine import Simulator

        self._register(Simulator, self.sims)
        self._register(Link, self.links)
        self._register(Node, self.nodes)
        self._register(Agent, self.agents)
        run = Simulator.run
        census = self

        def first_run(sim, *args, **kwargs):
            if census.first_event is None:
                census.first_event = time.monotonic()
            return run(sim, *args, **kwargs)

        Simulator.run = first_run

    @staticmethod
    def _register(cls, bucket):
        init = cls.__init__

        def registering_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            bucket.append(self)

        cls.__init__ = registering_init

    def harvest(self):
        """Add the remembered objects' counters to :attr:`totals` and
        forget the objects.  Returns how many simulators a watchdog (or
        anything else) stopped early."""
        from repro.net.node import Router
        from repro.net.red import RedQueue
        from repro.tcp.base import TcpSender
        from repro.tcp.receiver import TcpReceiver

        t = self.totals
        stopped = 0
        for sim in self.sims:
            t["events"] += sim.events_processed
            if sim.stop_reason is not None:
                stopped += 1
        for link in self.links:
            t["hops"] += link.packets_delivered
            t["outage_drops"] += link.outage_drops
            t["injected_drops"] += link.loss.injected_drops
            queue = link.queue
            if isinstance(queue, RedQueue):
                t["red_enqueues"] += queue.enqueues
                t["red_drops"] += queue.drops
                t["red_early_drops"] += queue.early_drops
                t["red_forced_drops"] += queue.forced_drops
                t["red_overflow_drops"] += queue.overflow_drops
                t["red_ecn_marks"] += queue.ecn_marks
            else:
                t["queue_enqueues"] += queue.enqueues
                t["queue_drops"] += queue.drops
        for node in self.nodes:
            if isinstance(node, Router):
                t["forwards"] += node.packets_received
        for agent in self.agents:
            if isinstance(agent, TcpSender):
                t["packets_sent"] += agent.packets_sent
                t["retransmits"] += agent.retransmits
                t["timeouts"] += agent.timeouts
            elif isinstance(agent, TcpReceiver):
                t["receiver_packets"] += agent.packets_received
                t["receiver_duplicates"] += agent.duplicates_received
                t["acks_sent"] += agent.acks_sent
                t["delivered"] += agent.delivered
        self.sims.clear()
        self.links.clear()
        self.nodes.clear()
        self.agents.clear()
        return stopped


#: Simulated counters the census sums; both engine backends, and the
#: traced and untraced runs, must agree on every one of them.
COUNTER_NAMES = (
    "events",
    "hops",
    "outage_drops",
    "injected_drops",
    "queue_enqueues",
    "queue_drops",
    "red_enqueues",
    "red_drops",
    "red_early_drops",
    "red_forced_drops",
    "red_overflow_drops",
    "red_ecn_marks",
    "forwards",
    "packets_sent",
    "retransmits",
    "timeouts",
    "receiver_packets",
    "receiver_duplicates",
    "acks_sent",
    "delivered",
)
