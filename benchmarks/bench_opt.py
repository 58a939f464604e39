"""OPT — static schedule + IR optimizer: run-time win, compile-time cost.

Every engine executes the one fused schedule ``build_schedule`` emits,
at every ``--opt`` level, so the baseline a static engine has to beat
is no longer "itself, unfused" but the worklist reference.  These
benchmarks pin both sides of the bargain on the Figure 2(d) system of
systems:

* the static engine (its generated stepper) at ``--opt 2`` must step
  at least **1.3x** faster than the
  worklist reference (measured ~1.5x), and its schedule walk must stay
  under the pinned react-calls/step ceiling with no fallback step —
  the count a future scheduler edit may lower but not raise;
* a warm construction at ``--opt 2`` must skip the pass pipeline
  entirely (``PIPELINE_RUNS`` stays put) — the optimized IR comes out
  of the cache, so opt level costs nothing after the first build.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import compile_cache as cc
from repro.core.constructor import build_design
from repro.core.engine import Simulator
from repro.core.opt import pipeline as opt_pipeline
from repro.core.optimize import LevelizedSimulator
from repro.systems.fig2d import build_fig2d

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Sensor-tier width of the fig2d design under test.
N_SENSORS = 8 if QUICK else 16
#: Simulated timesteps per throughput round.
RUN_CYCLES = 60 if QUICK else 200
#: Timing rounds (min-of-N).
ROUNDS = 5

#: The acceptance floor for the static engine at opt 2 over the worklist
#: reference.
MIN_SPEEDUP = 1.3
#: react() calls per schedule walk at opt 2: 15 per sensor node + 15 for
#: the gateway and backend tiers (45 / 75 / 135 at 2 / 4 / 8 sensors).
MAX_REACTS_PER_STEP = 15 * N_SENSORS + 15


@pytest.fixture()
def cache(tmp_path):
    """A private, empty compile cache; restores the env default after."""
    private = cc.configure(disk_dir=str(tmp_path / "repro-cache"))
    yield private
    cc.configure()


def _fig2d_design():
    spec, _ = build_fig2d(n_sensors=N_SENSORS, backend="detailed")
    design = build_design(spec)
    cc.design_fingerprint(design)
    return design


def _best_sps(engine, design, opt) -> float:
    """Min-of-ROUNDS steady-state steps/second of ``engine`` at ``opt``."""
    engine(design.copy(), opt=opt).close()  # warm the cache
    best = float("inf")
    for _ in range(ROUNDS):
        sim = engine(design.copy(), seed=7, opt=opt)
        t0 = time.perf_counter()
        sim.run(RUN_CYCLES)
        best = min(best, time.perf_counter() - t0)
        sim.close()
    return RUN_CYCLES / best


@pytest.mark.parametrize("opt", [0, 2], ids=["opt0", "opt2"])
def test_codegen_throughput(cache, opt, benchmark):
    """Stepping rate of a warm-constructed static engine per opt level."""
    design = _fig2d_design()
    LevelizedSimulator(design.copy(), opt=opt).close()
    sim = LevelizedSimulator(design.copy(), seed=7, opt=opt)
    assert sim.opt_level == opt
    benchmark.pedantic(sim.run, args=(RUN_CYCLES,), rounds=ROUNDS)
    benchmark.extra_info["steps_per_second"] = (
        RUN_CYCLES / benchmark.stats.stats.mean)
    sim.close()


def test_opt2_speedup_at_least_1_3x(cache):
    """The acceptance criterion: the static engine at opt 2 >= 1.3x the
    worklist reference, inside the react-calls/step ceiling."""
    design = _fig2d_design()
    reference = _best_sps(Simulator, design, 0)
    optimized = _best_sps(LevelizedSimulator, design, 2)
    ratio = optimized / reference
    sim = LevelizedSimulator(design.copy(), seed=7, opt=2)
    sim.run(RUN_CYCLES)
    reacts = opt_pipeline.react_calls(sim.schedule)
    fallbacks = sim.fallback_steps
    sim.close()
    print(f"\n[OPT] fig2d({N_SENSORS} sensors): worklist/opt0="
          f"{reference:.0f} steps/s, levelized/opt2={optimized:.0f} steps/s "
          f"({ratio:.2f}x), {reacts} react calls/step")
    assert ratio >= MIN_SPEEDUP, (
        f"levelized/opt 2 only {ratio:.2f}x over the worklist reference "
        f"(worklist={reference:.0f} steps/s, "
        f"levelized={optimized:.0f} steps/s)")
    assert fallbacks == 0, "the static schedule left signals unresolved"
    assert reacts <= MAX_REACTS_PER_STEP, (
        f"{reacts} react calls/step exceeds the pinned "
        f"{MAX_REACTS_PER_STEP}")


def test_warm_construction_skips_pipeline(cache, benchmark):
    """Warm opt-2 constructions never re-run the pass pipeline."""
    design = _fig2d_design()
    LevelizedSimulator(design.copy(), opt=2).close()  # populate
    runs_before = opt_pipeline.PIPELINE_RUNS

    def construct():
        sim = LevelizedSimulator(design.copy(), opt=2)
        assert sim.compiled_from_cache
        sim.close()

    benchmark.pedantic(construct, rounds=ROUNDS, warmup_rounds=1)
    assert opt_pipeline.PIPELINE_RUNS == runs_before, (
        "warm opt-2 construction re-ran the optimizer pipeline")


def test_optimized_cache_hit_bit_identical(cache):
    """Cached optimized IR replays the exact cold-build behaviour."""
    def run():
        sim = LevelizedSimulator(_fig2d_design().copy(), seed=7, opt=2)
        from_cache = sim.compiled_from_cache
        sim.run(RUN_CYCLES)
        out = (sim.now, sim.transfers_total, sim.relaxations_total,
               sim.stats.summary_dict())
        sim.close()
        return out, from_cache

    cold, cold_hit = run()
    warm, warm_hit = run()
    assert not cold_hit and warm_hit
    assert warm == cold
