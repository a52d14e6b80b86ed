"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The smoke tests run every workload at its tiny size through the real
command (both engine backends, compiled core built under
``.bench_build/``) and check the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_self_time_subtracts_child_spans_and_merges_same_layer_calls():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def leaf():           # a link call made from inside RED
        clock.tick(1.0)

    def inner():          # RED, with a nested link span
        clock.tick(3.0)
        leaf_span()
        clock.tick(0.5)

    def same():           # a link call from link code: no new span
        clock.tick(0.25)

    def outer():          # link
        clock.tick(1.0)
        inner_span()
        same_span()
        clock.tick(2.0)

    leaf_span = tracer.wrap(leaf, "net.link")
    inner_span = tracer.wrap(inner, "net.red")
    same_span = tracer.wrap(same, "net.link")
    outer_span = tracer.wrap(outer, "net.link")

    tracer.start()
    clock.tick(1.0)
    outer_span()
    clock.tick(1.0)
    tracer.stop()

    assert tracer.total == pytest.approx(9.75)
    assert tracer.self_time["net.red"] == pytest.approx(3.5)     # 4.5 - 1.0 of link
    assert tracer.self_time["net.link"] == pytest.approx(4.25)   # 1.0 + (7.75 - 4.5)
    assert tracer.self_time[layers.UNATTRIBUTED] == pytest.approx(2.0)
    assert sum(tracer.self_time.values()) == pytest.approx(tracer.total)


def test_spans_close_when_the_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def fails():
        clock.tick(2.0)
        raise ValueError("boom")

    span = tracer.wrap(fails, "tcp")
    tracer.start()
    with pytest.raises(ValueError):
        span()
    clock.tick(1.0)
    tracer.stop()
    assert tracer.self_time["tcp"] == pytest.approx(2.0)
    assert tracer.self_time[layers.UNATTRIBUTED] == pytest.approx(1.0)


def test_call_timer_counts_nested_calls_once_and_counter_counts_every_call():
    clock = FakeClock()
    tracer = layers.Tracer(clock=clock)

    def routes(depth):
        clock.tick(1.0)
        if depth:
            timed(depth - 1)

    timed = tracer.count(
        tracer.time_calls(tracer.wrap(routes, "net.network"), "net.network.routes_s"),
        "sim.timers.restarts",
    )
    tracer.start()
    timed(2)
    tracer.stop()
    assert tracer.timers["net.network.routes_s"] == pytest.approx(3.0)
    assert tracer.counts["sim.timers.restarts"] == 3
    assert tracer.self_time["net.network"] == pytest.approx(3.0)


def test_layer_of_prefers_the_more_specific_module():
    assert layers.layer_of("repro.tcp.receiver") == "tcp.receiver"
    assert layers.layer_of("repro.tcp.cubic") == "tcp"
    assert layers.layer_of("repro.core.robust_recovery") == "tcp"
    assert layers.layer_of("repro.experiments.common") == "net.network"
    assert layers.layer_of("repro.experiments.figure5") == "experiments"
    assert layers.layer_of("repro.net.packet") is None


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", ["wan", "mobile", "paper-grid"])
def test_tiny_run_is_correct_and_reports_the_declared_metrics(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_per_layer_metric():
    done = _bench("--workload", "paper-grid", "--seed", "3", "--seconds", "0.1",
                  "--trace", "1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _declared("per_layer")
    assert metrics["runner.replay_hit_rate"]["value"] == 1.0
    assert metrics["net.loss.injected_drops"]["value"] > 0
    for backend in ("compiled", "python"):
        assert metrics[f"tracing_overhead.{backend}"]["value"] > 0
        assert metrics[f"tcp.self_us_per_hop.{backend}"]["value"] > 0


def test_fails_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _bench("--workload", "wan", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
