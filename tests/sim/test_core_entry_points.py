"""The scheduling entry points on both engine backends.

On the compiled backend ``schedule``, ``schedule_abs`` and
``_note_cancelled`` are the core's own C methods, bound on each
simulator instance; on the pure backend they are the ``Simulator``
methods.  These tests pin that every way of copying a simulator binds
the copy to its own core, that both backends clamp and reject the same
times with the same messages, that the C entry points release every
reference they take, and that ``run(until=nan)`` is refused.
"""

import copy
import gc
import math
import pickle
import sys
import weakref

import pytest

from repro.errors import SchedulingError
from repro.sim import engine
from repro.sim.engine import NEGATIVE_DELAY_EPSILON, Simulator
from repro.snapshot import Snapshot


def noop(*args):
    pass


class Log:
    """A picklable, deep-copyable event target."""

    def __init__(self):
        self.items = []

    def record(self, item):
        self.items.append(item)


BOUND = ("schedule", "schedule_abs", "_note_cancelled")

DUPLICATES = {
    "pickle": lambda sim: pickle.loads(pickle.dumps(sim)),
    "deepcopy": copy.deepcopy,
    "snapshot": lambda sim: Snapshot.capture(sim).restore(),
}


@pytest.mark.parametrize("how", sorted(DUPLICATES))
def test_a_copy_schedules_on_its_own_core(backend_simulator, how):
    sim = backend_simulator()
    log = Log()
    sim.schedule(1.0, log.record, "original")
    dup = DUPLICATES[how](sim)
    for name in BOUND:
        method = getattr(dup, name)
        if sim._core is None:
            assert method.__func__ is getattr(Simulator, name)
        else:
            assert method.__self__ is dup._core
    assert (dup._core is None) == (sim._core is None)
    if sim._core is not None:
        assert dup._core is not sim._core
    late = []
    assert dup.schedule(0.5, late.append, "delay")._sim is dup
    dup.schedule_abs(0.7, late.append, "abs")
    dup.schedule(0.6, late.append, "cancelled").cancel()
    assert (dup.pending_events, dup.cancelled_in_heap) == (3, 1)
    assert (sim.pending_events, sim.cancelled_in_heap) == (1, 0)
    dup.run()
    assert late == ["delay", "abs"]
    assert (sim.now, sim.events_processed, sim.pending_events) == (0.0, 0, 1)
    sim.run()
    assert log.items == ["original"]
    assert late == ["delay", "abs"]


@pytest.fixture
def both_backends(monkeypatch):
    """One simulator per backend, both with the clock at 1.0."""
    compiled = pytest.importorskip("repro.sim._engine_core")
    engine.register_core(compiled)
    sims = {}
    for name, core_type in (("python", None), ("compiled", compiled.Core)):
        monkeypatch.setattr(engine, "_CoreType", core_type)
        sim = engine.Simulator()
        sim.run(until=1.0)
        sims[name] = sim
    assert sims["python"]._core is None and sims["compiled"]._core is not None
    return sims


def outcome(sim, method, value):
    try:
        event = getattr(sim, method)(value, noop)
    except SchedulingError as exc:
        return "raises", str(exc)
    return "fires at", event.time


_JUST_PAST = math.nextafter(-NEGATIVE_DELAY_EPSILON, -math.inf)
_ABS_EDGE = 1.0 - NEGATIVE_DELAY_EPSILON

EDGES = [
    ("schedule", -NEGATIVE_DELAY_EPSILON, ("fires at", 1.0)),
    (
        "schedule",
        _JUST_PAST,
        ("raises", f"cannot schedule into the past (delay={_JUST_PAST})"),
    ),
    ("schedule", math.nan, ("raises", "cannot schedule into the past (delay=nan)")),
    ("schedule", math.inf, ("fires at", math.inf)),
    ("schedule", -math.inf, ("raises", "cannot schedule into the past (delay=-inf)")),
    ("schedule_abs", _ABS_EDGE, ("fires at", 1.0)),
    (
        "schedule_abs",
        math.nextafter(_ABS_EDGE, -math.inf),
        (
            "raises",
            "cannot schedule into the past "
            f"(time={math.nextafter(_ABS_EDGE, -math.inf)}, now=1.0)",
        ),
    ),
    (
        "schedule_abs",
        math.nan,
        ("raises", "cannot schedule into the past (time=nan, now=1.0)"),
    ),
    ("schedule_abs", math.inf, ("fires at", math.inf)),
]


@pytest.mark.parametrize(
    "method, value, expected",
    EDGES,
    ids=[f"{method}({value!r})" for method, value, _ in EDGES],
)
def test_clamp_and_raise_match_across_backends(both_backends, method, value, expected):
    got = {name: outcome(sim, method, value) for name, sim in both_backends.items()}
    assert got == {"python": expected, "compiled": expected}


def test_entry_points_release_every_reference(backend_simulator):
    sentinel = object()
    gc.collect()  # simulators left by earlier tests may hold ``noop``
    baseline = sys.getrefcount(sentinel), sys.getrefcount(noop)
    sim = backend_simulator()
    for i in range(10_000):
        t = i * 1e-3
        sim.schedule(t, noop, sentinel)
        sim.schedule_abs(t, noop, sentinel, i)
        sim.schedule(t, noop, sentinel).cancel()
    sim.run()
    assert sim.events_processed == 20_000
    assert (sys.getrefcount(sentinel), sys.getrefcount(noop)) == baseline
    # A simulator dropped with events still pending is collected, and
    # the events' references go with it.
    sim.schedule(1.0, noop, sentinel)
    sim.schedule_abs(sim.now + 2.0, noop, sentinel)
    dropped = weakref.ref(sim)
    del sim
    gc.collect()
    assert dropped() is None
    assert (sys.getrefcount(sentinel), sys.getrefcount(noop)) == baseline


def test_run_refuses_a_nan_bound_before_firing(backend_simulator):
    sim = backend_simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    with pytest.raises(SchedulingError, match="NaN"):
        sim.run(until=math.nan)
    assert (fired, sim.now, sim.events_processed) == ([], 0.0, 0)
    # The refused call left the engine usable.
    assert sim.run(until=1.5) == 1
    assert (fired, sim.now) == ([1], 1.5)
