"""The repository benchmark: wall time per delivered packet-hop.

Run from the root of a checkout::

    python3 perfbench/run.py --workload wan --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``wan``, ``mobile``, ``paper-grid``.
Each run builds the compiled engine core out of tree (once per checkout,
under ``.bench_build/``), then for ``--seconds`` seconds runs the
workload in fresh single processes, alternating the two engine
backends: the compiled core and the pure-python engine
(``REPRO_PURE_PYTHON=1``).  A failed build is a failed benchmark; the
compiled numbers never come from the pure engine.

Every time is reported at a reference machine speed: each workload
process samples the machine's speed while it runs (``speed.py``) and
scales what it measures accordingly, so the figures of two runs compare
even when a shared host slows down between them.  The printed process
table also gives the times as measured.

``--trace 0`` reports the end-to-end metrics (untraced processes only).
``--trace 1`` also runs a traced process next to every untraced one and
reports the per-layer metrics: each layer's self time per packet-hop,
the layers' public counters, and the tracing overhead.

Every run checks its outputs: every process, on either backend, traced
or not, must report the same simulated counters (events, hops, drops by
cause, sends, retransmits, timeouts, delivered packets) and, on
``paper-grid``, the same result rows, with the cache replay identical to
the cold run and hitting every cell.  A world stopped early by a
watchdog, a crashed process or a failed check counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
BACKENDS = ("compiled", "python")

#: No run may take longer than this, build excluded (seconds).
RUN_LIMIT_S = 165.0

END_TO_END = {
    "us_per_hop.compiled": "us",
    "us_per_hop.python": "us",
    "wall_s.compiled": "s",
    "wall_s.python": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units():
    units = {}
    for layer, _ in layers.LAYERS:
        for backend in BACKENDS:
            units[f"{layer}.self_us_per_hop.{backend}"] = "us"
    for backend in BACKENDS:
        units[f"{layers.UNATTRIBUTED}.self_us_per_hop.{backend}"] = "us"
        units[f"tracing_overhead.{backend}"] = "ratio"
        for name in ("net.network.build_s", "net.network.routes_s",
                     "runner.cache_store_s", "runner.replay_s", "runner.fingerprint_s"):
            units[f"{name}.{backend}"] = "s"
    for name in (
        "sim.engine.events", "sim.timers.restarts",
        "net.link.sends", "net.link.hops", "net.link.rate_changes", "net.link.outage_drops",
        "net.queues.enqueues", "net.queues.drops",
        "net.red.enqueues", "net.red.drops", "net.red.early_drops",
        "net.red.forced_drops", "net.red.overflow_drops", "net.red.ecn_marks",
        "net.node.forwards", "net.packet.allocated", "net.loss.injected_drops",
        "tcp.acks", "tcp.packets_sent", "tcp.retransmits", "tcp.timeouts",
        "tcp.receiver.packets", "tcp.receiver.duplicates", "tcp.receiver.acks_sent",
        "tcp.receiver.delivered", "sim.tracing.emits", "runner.cells",
    ):
        units[name] = "count"
    for name in ("sim.engine.events_per_hop", "net.packet.pool_reuse_ratio",
                 "tcp.useful_ratio", "runner.replay_hit_rate"):
        units[name] = "ratio"
    return units


PER_LAYER = _per_layer_units()

#: Census counter -> per-layer metric name.
COUNTER_METRICS = {
    "events": "sim.engine.events",
    "hops": "net.link.hops",
    "outage_drops": "net.link.outage_drops",
    "injected_drops": "net.loss.injected_drops",
    "queue_enqueues": "net.queues.enqueues",
    "queue_drops": "net.queues.drops",
    "red_enqueues": "net.red.enqueues",
    "red_drops": "net.red.drops",
    "red_early_drops": "net.red.early_drops",
    "red_forced_drops": "net.red.forced_drops",
    "red_overflow_drops": "net.red.overflow_drops",
    "red_ecn_marks": "net.red.ecn_marks",
    "forwards": "net.node.forwards",
    "packets_sent": "tcp.packets_sent",
    "retransmits": "tcp.retransmits",
    "timeouts": "tcp.timeouts",
    "receiver_packets": "tcp.receiver.packets",
    "receiver_duplicates": "tcp.receiver.duplicates",
    "acks_sent": "tcp.receiver.acks_sent",
    "delivered": "tcp.receiver.delivered",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (no checkout, failed build)."""


# ----------------------------------------------------------------------
# build
# ----------------------------------------------------------------------
def build_core(root, build_dir):
    """Build the compiled engine core out of tree with the repository's
    own ``setup.py``; returns the extension's path.  Reused while the C
    source, ``setup.py`` and the interpreter are unchanged."""
    source = root / "src" / "repro" / "sim" / "_engine_core.c"
    setup = root / "setup.py"
    key = hashlib.sha256()
    for part in (source.read_bytes(), setup.read_bytes(), sys.version.encode(),
                 platform.platform().encode()):
        key.update(part)
    target = build_dir / f"core-{key.hexdigest()[:16]}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = target / "lib" / "repro" / "sim" / f"_engine_core{suffix}"
    if built.exists():
        return built
    staging = build_dir / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    env = dict(os.environ, REPRO_REQUIRE_COMPILED="1")
    try:
        proc = subprocess.run(
            [sys.executable, "setup.py", "-q", "build_ext",
             "--build-lib", str(staging / "lib"), "--build-temp", str(staging / "tmp")],
            cwd=root, env=env, capture_output=True, text=True, timeout=600,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("compiled core build timed out") from exc
    staged = staging / "lib" / "repro" / "sim" / f"_engine_core{suffix}"
    if proc.returncode != 0 or not staged.exists():
        shutil.rmtree(staging, ignore_errors=True)
        raise BenchmarkError(
            f"compiled core build failed (exit {proc.returncode}):\n"
            f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}"
        )
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    return built


# ----------------------------------------------------------------------
# workload processes
# ----------------------------------------------------------------------
class Process:
    """One workload process: its settings and what it reported."""

    def __init__(self, index, backend, traced):
        self.index = index
        self.backend = backend
        self.traced = traced
        self.result = None
        self.error = None

    @property
    def label(self):
        mode = "traced" if self.traced else "untraced"
        return f"#{self.index} {self.backend} {mode}"


def spawn(proc, args, root, core, work_dir, budget, deadline):
    """Run ``proc``'s workload process to completion (or the deadline)."""
    env = dict(os.environ)
    env.pop("REPRO_PURE_PYTHON", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_CACHE_DIR"] = str(work_dir / "cache")
    env["REPRO_ARTIFACT_DIR"] = str(work_dir / "artifacts")
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--backend", proc.backend, "--core", str(core),
        "--trace", "1" if proc.traced else "0", "--workdir", str(work_dir),
        "--budget", repr(budget),
    ]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        proc.error = "not started: the run's time limit was spent"
        return
    cmd += ["--started", repr(time.monotonic())]
    try:
        done = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        proc.error = f"timed out after {timeout:.0f} s"
        return
    lines = done.stdout.strip().splitlines()
    try:
        if done.returncode != 0 or not lines:
            raise ValueError(done.stderr.strip()[-2000:])
        proc.result = json.loads(lines[-1])
    except ValueError as exc:
        proc.error = f"exit {done.returncode}: {exc}"


def collect(args, root, core, work_dir):
    """Run the workload processes of one benchmark run, in order; each
    repeats the workload for its share of ``--seconds``."""
    if args.trace:
        plan = [(backend, traced) for backend in BACKENDS for traced in (False, True)]
    else:
        # ABBA order, so a drift in machine speed hits both backends alike.
        order = BACKENDS + BACKENDS[::-1] + BACKENDS
        plan = [(backend, False) for backend in order]
    budget = args.seconds / len(plan)
    deadline = time.monotonic() + RUN_LIMIT_S
    procs = []
    for backend, traced in plan:
        proc = Process(len(procs) + 1, backend, traced)
        procs.append(proc)
        spawn(proc, args, root, core, work_dir, budget, deadline)
    return procs


# ----------------------------------------------------------------------
# checks and metrics
# ----------------------------------------------------------------------
def tally(procs):
    """Operations attempted and failed, and the failures' descriptions.

    Operations are the worlds run, the grid cells, the workload's own
    output checks and one comparison per repetition: every repetition
    runs the same inputs, so its simulated counters and result rows
    must equal the first repetition's - across backends, traced or
    not.  Traced repetitions must also agree on their call counts.
    """
    attempted = failed = 0
    failures = []
    reference = traced_reference = None
    for proc in procs:
        if proc.result is None:
            attempted += 1
            failed += 1
            failures.append(f"{proc.label}: {proc.error}")
            continue
        for number, rep in enumerate(proc.result["reps"], 1):
            where = f"{proc.label} rep {number}"
            attempted += rep["worlds"] + rep["cells"] + rep["checks"]
            if rep["stopped"]:
                failed += rep["stopped"]
                failures.append(f"{where}: {rep['stopped']} world(s) stopped early")
            for error in rep["errors"]:
                failed += 1
                failures.append(f"{where}: {error}")
            if reference is None:
                reference = (where, rep)
            else:
                attempted += 1
                ref_where, ref = reference
                diff = [name for name in ref["counters"]
                        if ref["counters"][name] != rep["counters"][name]]
                if rep["rows_digest"] != ref["rows_digest"]:
                    diff.append("result rows")
                if diff:
                    failed += 1
                    failures.append(f"{where} differs from {ref_where} in {', '.join(diff)}")
            if "trace_counts" not in rep:
                continue
            if traced_reference is None:
                traced_reference = (where, rep)
            else:
                attempted += 1
                ref_where, ref = traced_reference
                if rep["trace_counts"] != ref["trace_counts"]:
                    failed += 1
                    failures.append(f"{where}: traced call counts differ from {ref_where}")
    return attempted, failed, failures


def _done(procs, backend, traced):
    done = [p for p in procs if p.backend == backend and p.traced == traced and p.result]
    if not done:
        mode = "traced" if traced else "untraced"
        raise BenchmarkError(f"no {mode} {backend} process finished")
    return done


def us_per_hop(seconds, hops):
    if hops <= 0:
        raise BenchmarkError("the workload delivered no packets")
    return seconds / hops * 1e6


def rep_us_per_hop(rep):
    return us_per_hop(rep["wall_s"], rep["counters"]["hops"])


def end_to_end_samples(procs):
    """Metric name -> the samples its median is taken over."""
    samples = {}
    rss_medians = []
    for backend in BACKENDS:
        done = _done(procs, backend, traced=False)
        reps = [rep for p in done for rep in p.result["reps"]]
        samples[f"us_per_hop.{backend}"] = [rep_us_per_hop(rep) for rep in reps]
        samples[f"wall_s.{backend}"] = [rep["wall_s"] for rep in reps]
        rss_medians.append(statistics.median(p.result["peak_rss_mb"] for p in done))
    samples["setup_s"] = [p.result["setup_s"] for p in procs if p.result and not p.traced]
    # The larger backend's median: memory is a per-process ceiling.
    samples["peak_rss_mb"] = [max(rss_medians)]
    return samples


def per_layer_metrics(procs):
    """Per-layer metric name -> value."""
    metrics = {}
    untraced = _done(procs, "python", traced=False)[0].result
    counters = untraced["reps"][0]["counters"]
    for counter, name in COUNTER_METRICS.items():
        metrics[name] = counters[counter]
    hops = counters["hops"]
    sent = counters["packets_sent"]
    metrics["sim.engine.events_per_hop"] = counters["events"] / hops if hops else 0.0
    metrics["tcp.useful_ratio"] = (sent - counters["retransmits"]) / sent if sent else 0.0
    built = sum(rep["counters"]["packets_sent"] + rep["counters"]["acks_sent"]
                for rep in untraced["reps"])
    metrics["net.packet.allocated"] = (built - untraced["pool_reused"]) // len(untraced["reps"])
    metrics["net.packet.pool_reuse_ratio"] = untraced["pool_reused"] / built if built else 0.0
    metrics["runner.cells"] = untraced["reps"][0]["cells"]
    metrics["runner.replay_hit_rate"] = untraced["reps"][0]["replay_hit_rate"]
    for backend in BACKENDS:
        traced = _done(procs, backend, traced=True)[0].result
        reps = traced["reps"]
        traced_hops = sum(rep["counters"]["hops"] for rep in reps)
        speed = traced["trace"]["speed"]
        for layer, seconds in traced["trace"]["self_s"].items():
            metrics[f"{layer}.self_us_per_hop.{backend}"] = us_per_hop(seconds * speed, traced_hops)
        for name, seconds in traced["trace"]["timers_s"].items():
            metrics[f"{name}.{backend}"] = seconds * speed / len(reps)
        metrics[f"runner.replay_s.{backend}"] = statistics.median(rep["replay_s"] for rep in reps)
        metrics[f"runner.fingerprint_s.{backend}"] = traced["fingerprint_s"]
        plain = [rep_us_per_hop(rep) for p in _done(procs, backend, False)
                 for rep in p.result["reps"]]
        metrics[f"tracing_overhead.{backend}"] = (
            statistics.median(rep_us_per_hop(rep) for rep in reps) / statistics.median(plain)
        )
    metrics.update(_done(procs, "python", traced=True)[0].result["reps"][0]["trace_counts"])
    return metrics


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def git_rev(root):
    if not (root / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_header(args, root, procs):
    first = next((p.result for p in procs if p.result), {})
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds}"
          f" trace={args.trace}{' tiny' if args.tiny else ''}")
    print(f"  git rev {git_rev(root)}; code fingerprint {first.get('code_fingerprint', '?')[:16]}")
    print(f"  python {platform.python_version()} ({platform.python_implementation()});"
          f" platform {platform.platform()}; cpus {os.cpu_count()}")
    print("  process  backend   traced  reps  speed  setup_s  wall_s*       hops  us/hop*  rss_MB")
    for p in procs:
        if p.result is None:
            print(f"  #{p.index:<6} {p.backend:<9} {str(p.traced):<7} FAILED: {p.error[:60]}")
            continue
        r = p.result
        reps = r["reps"]
        print(f"  #{p.index:<6} {p.backend:<9} {str(p.traced):<7} {len(reps):>4} {r['speed']:6.3f}"
              f" {r['raw_setup_s']:8.3f} {statistics.median(rep['raw_wall_s'] for rep in reps):7.3f}"
              f" {reps[0]['counters']['hops']:10d}"
              f" {statistics.median(rep_us_per_hop(rep) for rep in reps):8.3f}"
              f" {r['peak_rss_mb']:7.1f}")
    print("  (speed: sampled machine speed against the reference machine; setup_s and"
          " wall_s* as measured, us/hop* at reference speed; * median of reps)")


def print_end_to_end(workload, samples, attempted, failed):
    print(f"end-to-end metrics ({workload}; n = samples, median with quartiles):")
    print(f"  {'metric':<22} {'unit':<6} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11}")
    for name, unit in END_TO_END.items():
        q1, med, q3 = quartiles(samples[name])
        print(f"  {name:<22} {unit:<6} {len(samples[name]):>3} {med:11.5f} {q1:11.5f} {q3:11.5f}")
    frac = failed / attempted if attempted else 1.0
    print(f"  {'failed_frac':<22} {'ratio':<6} {attempted:>3} {frac:11.5f}"
          f"  ({failed} of {attempted} operations failed)")


def print_layers(procs, metrics):
    for backend in BACKENDS:
        proc = _done(procs, backend, traced=True)[0]
        trace = proc.result["trace"]
        total = trace["total_s"]
        hops = sum(rep["counters"]["hops"] for rep in proc.result["reps"])
        print(f"per-layer self time, {backend} backend (process #{proc.index},"
              f" {len(proc.result['reps'])} reps, {hops} hops, traced wall {total:.3f} s;"
              f" seconds raw, us/hop scaled to the reference speed):")
        print(f"  {'layer':<14} {'self_s':>9} {'share':>7} {'us/hop':>9}")
        for layer, seconds in trace["self_s"].items():
            print(f"  {layer:<14} {seconds:9.4f} {seconds / total:7.1%}"
                  f" {metrics[f'{layer}.self_us_per_hop.{backend}']:9.4f}")
        summed = sum(trace["self_s"].values())
        print(f"  {'sum':<14} {summed:9.4f} {summed / total:7.1%}"
              f" {us_per_hop(summed * trace['speed'], hops):9.4f}")
    print("per-layer metrics:")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("wan", "mobile", "paper-grid"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the figures are not comparable")
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        if not (root / "src" / "repro" / "sim" / "_engine_core.c").is_file():
            raise BenchmarkError(f"{root} is not a checkout of the simulator (no src/repro)")
        build_dir = root / ".bench_build" / "perfbench"
        work_dir = build_dir / "work"
        work_dir.mkdir(parents=True, exist_ok=True)
        core = build_core(root, build_dir)
        procs = collect(args, root, core, work_dir)
        print_header(args, root, procs)
        attempted, failed, failures = tally(procs)
        if args.trace:
            metrics = per_layer_metrics(procs)
            print_layers(procs, metrics)
            units = PER_LAYER
        else:
            samples = end_to_end_samples(procs)
            print_end_to_end(args.workload, samples, attempted, failed)
            metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
            units = END_TO_END
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for failure in failures:
        print(f"FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
