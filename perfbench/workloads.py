"""The benchmark's workloads, each run once per workload process.

Every workload builds its inputs from the seed alone, times its
simulated part, and leaves the census (:class:`layers.Census`) holding
or having harvested every world it built.  ``tiny`` shrinks each one to
a smoke-test size that exercises the same code paths.

* ``wan`` - a Waxman WAN, 40 routers, RED on the core links, 60
  long-lived RR flows placed by the seed, 2.0 simulated seconds (the
  many-flow RED regime).  Network layers dominate.
* ``mobile`` - a rivals match cell, 2 RR against 2 CUBIC flows, on the
  time-varying mobile bottleneck with a bufferbloat buffer, 100
  simulated seconds.  The TCP sender and the rate-schedule link weigh
  more; there is no RED.
* ``paper-grid`` - the paper's figure5, figure6 and ackloss grids at
  paper size, cold through one ``SweepRunner(jobs=1)`` with a fresh
  ``ResultCache``, then replayed from that cache.  Many small worlds:
  per-cell build, loss injection, every recovery variant, full flow
  observers and trace-bus subscribers.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time

WORKLOADS = ("wan", "mobile", "paper-grid")


class Outcome:
    """What one workload run reports besides the census counters."""

    def __init__(self):
        self.sim_end = None      # time.monotonic() when the simulated part ended
        self.worlds = 0          # simulators built and run
        self.stopped = 0         # of those, stopped early (watchdog)
        self.cells = 0           # grid cells run cold (paper-grid)
        self.rows_digest = ""    # digest of the result rows (paper-grid)
        self.replay = None       # (start, end) time.monotonic() of the cache replay
        self.replay_hit_rate = 0.0
        self.checks = 0          # output checks made (paper-grid replay)
        self.errors = []         # the checks that failed


def run(name, seed, tiny, census, workdir):
    """Run workload ``name`` once; returns an :class:`Outcome`."""
    outcome = Outcome()
    if name == "wan":
        _wan(seed, tiny, census, outcome)
    elif name == "mobile":
        _mobile(seed, tiny, census, outcome)
    elif name == "paper-grid":
        _paper_grid(seed, tiny, census, outcome, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return outcome


def _wan(seed, tiny, census, outcome):
    from repro.net.red import RedParams
    from repro.scenes import FlowPopulation, SceneSpec, WaxmanParams, build_scene

    spec = SceneSpec(
        family="wan",
        # One fixed graph (the manyflow scene's); the seed places the
        # flows and drives RED's drop draws.
        topology=WaxmanParams(n_routers=8 if tiny else 40, graph_seed=3),
        flows=FlowPopulation(count=6 if tiny else 60),
        red=RedParams(min_th=10.0, max_th=40.0, max_p=0.02, limit=120),
        seed=seed,
        duration=0.3 if tiny else 2.0,
    )
    scene = build_scene(spec)
    scene.run()  # arms the scene's scaled watchdog
    outcome.sim_end = time.monotonic()
    _close_worlds(census, outcome)


def _mobile(seed, tiny, census, outcome):
    from repro.experiments.rivals import RivalsConfig, build_cell_world

    duration = 5.0 if tiny else 100.0
    config = RivalsConfig(duration=duration, warmup=duration * 0.25, seed=seed)
    world = build_cell_world("match", "cubic", "mobile", config)
    world.sim.run(until=duration)
    outcome.sim_end = time.monotonic()
    _close_worlds(census, outcome)


def _close_worlds(census, outcome):
    outcome.worlds += len(census.sims)
    outcome.stopped += census.harvest()


def _grid_configs(seed, tiny):
    from repro.experiments.ackloss import AckLossConfig
    from repro.experiments.figure5 import Figure5Config
    from repro.experiments.figure6 import Figure6Config

    if not tiny:
        return Figure5Config(), Figure6Config(seed=seed), AckLossConfig(seed=seed)
    return (
        Figure5Config(variants=("rr",), drop_counts=(3,)),
        Figure6Config(
            variants=("rr",), n_flows=2, initial_flows=1,
            duration=2.0, prefix_seconds=1.0, seed=seed,
        ),
        AckLossConfig(
            variants=("rr",), ack_loss_rates=(0.0, 0.1), runs_per_point=1, seed=seed
        ),
    )


def _run_grids(configs, runner):
    from repro.experiments.ackloss import run_ackloss
    from repro.experiments.figure5 import run_figure5
    from repro.experiments.figure6 import run_figure6

    fig5, fig6, ackloss = configs
    return (
        run_figure5(fig5, runner=runner).rows,
        run_figure6(fig6, runner=runner).flows,
        run_ackloss(ackloss, runner=runner).rows,
    )


def _paper_grid(seed, tiny, census, outcome, workdir):
    from repro.runner import ResultCache, SweepObserver, SweepRunner

    class CellCensus(SweepObserver):
        """Harvests the census after every cold cell."""

        def task_finished(self, index, spec, seconds):
            outcome.cells += 1
            _close_worlds(census, outcome)

    configs = _grid_configs(seed, tiny)
    cache_dir = tempfile.mkdtemp(prefix="grid-cache-", dir=workdir)
    try:
        cold = _run_grids(
            configs,
            SweepRunner(jobs=1, cache=ResultCache(cache_dir), observer=CellCensus()),
        )
        outcome.sim_end = time.monotonic()
        replay_cache = ResultCache(cache_dir)
        start = time.monotonic()
        replay = _run_grids(configs, SweepRunner(jobs=1, cache=replay_cache))
        outcome.replay = (start, time.monotonic())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    lookups = replay_cache.hits + replay_cache.misses
    outcome.replay_hit_rate = replay_cache.hits / lookups if lookups else 0.0
    outcome.checks += 2
    cold_repr = repr(cold)
    outcome.rows_digest = hashlib.sha256(cold_repr.encode()).hexdigest()
    if repr(replay) != cold_repr:
        outcome.errors.append("replayed rows differ from the cold rows")
    if replay_cache.misses or replay_cache.hits != outcome.cells:
        outcome.errors.append(
            f"replay hit {replay_cache.hits} of {outcome.cells} cells"
            f" ({replay_cache.misses} misses)"
        )
