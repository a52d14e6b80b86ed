"""One workload run in a fresh process, on one engine backend.

Run from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/worker.py --workload wan --seed 1 --backend python \\
        --trace 0 --workdir .bench_build/work --started <time.monotonic()>

``--backend compiled`` needs ``--core`` naming the compiled engine core
built out of tree (see ``run.py``); the worker refuses to run when the
engine did not select the backend it was asked for.  ``--started`` is
the parent's monotonic clock just before it spawned this process, so
set-up time includes interpreter start and imports.  ``--budget``
repeats the workload (a fresh world each time) for about that many
seconds.  The last line of standard output is one JSON object (see
:func:`measure`).
"""

from __future__ import annotations

import argparse
import importlib.abc
import importlib.util
import json
import os
import resource
import sys
import time

CORE_MODULE = "repro.sim._engine_core"


class _CoreFinder(importlib.abc.MetaPathFinder):
    """Resolves the compiled engine core to a file built out of tree."""

    def __init__(self, path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != CORE_MODULE:
            return None
        return importlib.util.spec_from_file_location(name, self.path)


def select_backend(backend, core_path):
    """Make the engine pick ``backend``; raises if it picked another."""
    if backend == "compiled":
        if not core_path or not os.path.exists(core_path):
            raise RuntimeError(f"compiled core not found at {core_path!r}")
        os.environ.pop("REPRO_PURE_PYTHON", None)
        sys.meta_path.insert(0, _CoreFinder(core_path))
    elif backend == "python":
        os.environ["REPRO_PURE_PYTHON"] = "1"
    else:
        raise ValueError(f"unknown backend {backend!r}")
    from repro.sim.engine import CORE_BACKEND

    if CORE_BACKEND != backend:
        raise RuntimeError(f"asked for the {backend} backend, engine chose {CORE_BACKEND}")


def measure(workload, seed, backend, core_path, trace, tiny, workdir, started, budget):
    """Run one workload repeatedly for about ``budget`` seconds (at
    least once) and return the result dict printed by :func:`main`.

    Times are in seconds at the reference machine speed (see
    ``speed.py``); ``raw_*`` entries are as measured.
    """
    import layers
    import speed
    import workloads

    sampler = speed.SpeedSampler()
    sampler.start()
    select_backend(backend, core_path)
    census = layers.Census()
    census.install()
    tracer = None
    if trace:
        tracer = layers.Tracer()
        tracer.instrument()
        sampler.trace_with(tracer, layers.SAMPLER)
    from repro.net.packet import packet_pool
    from repro.runner import code_fingerprint

    traced_from = time.monotonic()
    if tracer is not None:
        tracer.start()
    start = time.monotonic()
    result = {"backend": backend, "code_fingerprint": code_fingerprint()}
    result["fingerprint_s"] = sampler.scaled(start, time.monotonic())
    reps = result["reps"] = []
    counted = dict(tracer.counts) if tracer is not None else None
    while True:
        rep_start = time.monotonic()
        census.first_event = None
        outcome = workloads.run(workload, seed, tiny, census, workdir)
        if census.first_event is None or outcome.sim_end is None:
            raise RuntimeError("the workload never ran a simulation")
        if not reps:
            # Set-up and memory of the first run, as a user meets them.
            result["raw_setup_s"] = census.first_event - started
            result["setup_s"] = sampler.scaled(started, census.first_event)
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rep = {
            "raw_wall_s": outcome.sim_end - census.first_event,
            "wall_s": sampler.scaled(census.first_event, outcome.sim_end),
            "counters": dict(census.totals),
            "worlds": outcome.worlds,
            "stopped": outcome.stopped,
            "cells": outcome.cells,
            "rows_digest": outcome.rows_digest,
            "replay_s": sampler.scaled(*outcome.replay) if outcome.replay else 0.0,
            "replay_hit_rate": outcome.replay_hit_rate,
            "checks": outcome.checks,
            "errors": outcome.errors,
        }
        reps.append(rep)
        census.reset_totals()
        if tracer is not None:
            rep["trace_counts"] = {k: v - counted[k] for k, v in tracer.counts.items()}
            counted = dict(tracer.counts)
        now = time.monotonic()
        # Stop where one more repetition would end nearer past the
        # budget than this one ends short of it.
        if now - start + (now - rep_start) / 2 > budget:
            break
    sampler.stop()
    traced_to = time.monotonic()
    result["speed"] = sampler.factor(started, traced_to)
    result["pool_reused"] = packet_pool().reused
    if tracer is not None:
        tracer.stop()
        result["trace"] = {
            "total_s": tracer.total,
            "self_s": tracer.self_time,
            "timers_s": tracer.timers,
            "speed": sampler.factor(traced_from, traced_to),
        }
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--backend", required=True, choices=("compiled", "python"))
    parser.add_argument("--core", default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--started", type=float, default=None)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="repeat the workload for about this many seconds")
    args = parser.parse_args(argv)
    started = time.monotonic() if args.started is None else args.started
    result = measure(
        args.workload, args.seed, args.backend, args.core, bool(args.trace),
        args.tiny, args.workdir, started, args.budget,
    )
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
