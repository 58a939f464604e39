"""CACHE — compile-cache warm vs cold simulator construction.

The paper's construction-time-optimization argument (§2.3) cuts both
ways: because the schedule is a pure function of the design's
structure, it can be *cached* across constructions.  These benchmarks
measure the two paths on the Figure 2(d) system of systems — a cold
construction (empty cache: signal graph, condensation, schedule and
generated stepper all derived from scratch) against a warm one
(fingerprint lookup + schedule materialization) — and pin the
acceptance criterion: warm construction of the static engine at least
5x faster than cold, with cache-hit results bit-identical to
cache-miss on every engine.  The generated stepper is built on the
first run, not at construction, so neither side pays for it here.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import compile_cache as cc
from repro.core.backends import engine_names
from repro.core.constructor import build_design, build_simulator
from repro.core.optimize import LevelizedSimulator
from repro.systems.fig2d import build_fig2d

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Sensor-tier width of the fig2d design under construction test.
N_SENSORS = 8 if QUICK else 16
#: Timing rounds (min-of-N; construction is milliseconds, keep several
#: rounds even in quick mode so one scheduler hiccup cannot skew it).
ROUNDS = 5
#: Simulated timesteps for the throughput / fidelity checks.
RUN_CYCLES = 60 if QUICK else 200

ENGINES = engine_names()


@pytest.fixture()
def cache(tmp_path):
    """A private, empty compile cache; restores the env default after."""
    private = cc.configure(disk_dir=str(tmp_path / "repro-cache"))
    yield private
    cc.configure()


def _fig2d_design():
    spec, _ = build_fig2d(n_sensors=N_SENSORS, backend="detailed")
    design = build_design(spec)
    # Fingerprint the master once so every per-round copy inherits the
    # memo — the same flow warm_design()/campaign grouping sets up.
    cc.design_fingerprint(design)
    return design


def _best_ctor_time(engine_cls, design, prepare) -> float:
    """Min-of-ROUNDS construction wall time (copies made off the clock)."""
    best = float("inf")
    for _ in range(ROUNDS):
        prepare()
        dup = design.copy()
        t0 = time.perf_counter()
        engine_cls(dup)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.parametrize("engine_cls", [LevelizedSimulator],
                         ids=["levelized"])
def test_cold_construction(cache, engine_cls, benchmark):
    """Construction with an empty cache: full compile every round."""
    design = _fig2d_design()

    def setup():
        cache.clear()
        return (design.copy(),), {}

    benchmark.pedantic(engine_cls, setup=setup, rounds=ROUNDS,
                       warmup_rounds=1)


@pytest.mark.parametrize("engine_cls", [LevelizedSimulator],
                         ids=["levelized"])
def test_warm_construction(cache, engine_cls, benchmark):
    """Construction against a populated cache: lookup + materialize."""
    design = _fig2d_design()
    engine_cls(design.copy())  # populate both cache layers

    def setup():
        return (design.copy(),), {}

    benchmark.pedantic(engine_cls, setup=setup, rounds=ROUNDS,
                       warmup_rounds=1)


def test_warm_cache_speedup_at_least_5x(cache):
    """The acceptance criterion: warm ctor >= 5x faster than cold."""
    design = _fig2d_design()
    report = []
    for engine_cls in (LevelizedSimulator,):
        cache.clear()
        cold = _best_ctor_time(engine_cls, design, prepare=cache.clear)
        engine_cls(design.copy())  # populate
        warm = _best_ctor_time(engine_cls, design, prepare=lambda: None)
        ratio = cold / warm
        report.append(f"{engine_cls.__name__}: cold={cold * 1e3:.2f}ms "
                      f"warm={warm * 1e3:.2f}ms ({ratio:.1f}x)")
        assert ratio >= 5.0, (
            f"{engine_cls.__name__} warm construction only {ratio:.1f}x "
            f"faster than cold (cold={cold * 1e3:.2f}ms, "
            f"warm={warm * 1e3:.2f}ms)")
    print("\n[CACHE] " + "; ".join(report))


def test_warm_simulation_throughput(cache, benchmark):
    """Steady-state stepping rate of a warm-constructed static engine.

    Construction caching must not perturb the run-time hot path; this
    records the steps-per-second trajectory for the bench report.
    """
    design = _fig2d_design()
    LevelizedSimulator(design.copy())  # populate
    sim = LevelizedSimulator(design.copy(), seed=7)
    assert sim.compiled_from_cache
    benchmark.pedantic(sim.run, args=(RUN_CYCLES,), rounds=ROUNDS)
    benchmark.extra_info["steps_per_second"] = (
        RUN_CYCLES / benchmark.stats.stats.mean)


def _run_metrics(engine: str):
    spec, _ = build_fig2d(n_sensors=2, backend="detailed")
    sim = build_simulator(spec, engine=engine, seed=7)
    sim.run(RUN_CYCLES)
    return (sim.now, sim.transfers_total, sim.relaxations_total,
            sim.stats.summary_dict())


@pytest.mark.parametrize("engine", ENGINES)
def test_cache_hit_bit_identical_to_miss(cache, engine):
    """A cached compilation must not change a single observable."""
    cache.clear()
    miss = _run_metrics(engine)   # empty cache: full compile
    hit = _run_metrics(engine)    # second construction: cache hit
    assert miss == hit
