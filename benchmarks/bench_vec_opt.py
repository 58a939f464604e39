"""Opt-aware vec planning: coverage and speedup acceptance gates.

The staged compilation driver runs vec planning *after* the optimizer
pipeline, over the optimized schedule.  Two consequences are gated
here, both on the paper's flagship Figure 2(d) composition:

* **Coverage is monotone.**  Optimization can only move wires from
  *demoted* to *parked* (the optimizer proved nobody reads them), never
  demote a wire the opt-0 plan vectorized — so the opt-2 plan's
  vectorized wire count is >= the opt-0 plan's on every fig2d config.
* **The stages compose.**  On the stock fig2d (detailed field tier,
  statistical backend — mostly scalar lanes) ``--opt 2`` under the
  ``batched-vec`` backend is bit-identical to the opt-0 vec run lane
  for lane and not slower: both walk the same fused schedule (the
  react-call reduction that used to separate them now happens in
  ``build_schedule``, for every level), opt 2 adds only react folding
  and dead-wire parking.
"""

from __future__ import annotations

import os
import time

from repro import build_design
from repro.core.batched_vec import VectorizedBatchedSimulator
from repro.core.ir import CompileOptions, compile_model
from repro.systems.fig2d import build_fig2d

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

CYCLES = 40 if QUICK else 60


def _design(i: int, field: str, backend: str = "statistical"):
    spec, _info = build_fig2d(2, field=field, backend=backend,
                              backend_rate=0.3 + (i % 7) * 0.1, seed=i)
    return build_design(spec)


def test_opt_aware_plan_coverage(benchmark):
    """The opt-2 plan vectorizes >= the opt-0 plan, on every config."""
    counts = {}
    for field, backend in (("statistical", "statistical"),
                           ("detailed", "detailed")):
        per_level = {}
        for level in (0, 2):
            bound = compile_model(_design(0, field, backend),
                                  CompileOptions(opt_level=level, vec=True))
            per_level[level] = bound.model.vec["counts"]
        counts[(field, backend)] = per_level
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    for config, per_level in counts.items():
        base, opt = per_level[0], per_level[2]
        benchmark.extra_info["/".join(config)] = (
            f"{base['vectorized']}->{opt['vectorized']} vectorized, "
            f"{opt['parked']} parked")
        print(f"\n[VEC-OPT] {config[0]}/{config[1]}: "
              f"opt0 {base['vectorized']}/{base['total']} vectorized "
              f"({base['demoted']} demoted), "
              f"opt2 {opt['vectorized']}/{opt['total']} "
              f"({opt['demoted']} demoted, {opt['parked']} parked)")
        assert opt["vectorized"] >= base["vectorized"], (
            f"{config}: opt-aware planning lost vectorized wires")
        # Parking is the only legal way a wire leaves the demotion log.
        assert opt["demoted"] + opt["parked"] \
            == base["demoted"] + base["parked"], config

    # The fully statistical field tier stays total under optimization.
    full = counts[("statistical", "statistical")][2]
    assert full["vectorized"] == full["total"] - full["parked"]
    assert full["demoted"] == 0


def test_fig2d_opt2_vec_speedup(benchmark):
    """--opt 2 batched-vec is not slower than opt-0 vec on the stock
    fig2d at batch 256 (32 in quick mode), bit-identical lane for lane.
    Both levels walk the same fused schedule; opt 2 only folds reacts
    and parks dead wires, so the two are expected level."""
    n_lanes = 32 if QUICK else 256
    cycles = CYCLES

    def _timed(opt):
        sim = VectorizedBatchedSimulator(
            [_design(i, "detailed") for i in range(n_lanes)],
            seeds=list(range(n_lanes)), opt=opt)
        sim.run(1)  # plan/cache warm outside the timed region
        t0 = time.perf_counter()
        sim.run(cycles)
        elapsed = time.perf_counter() - t0
        observed = [(lane.transfers_total, lane.stats.report())
                    for lane in sim.lanes]
        sim.close()
        return observed, elapsed

    base_obs, base_s = _timed(0)

    def opt_run():
        return _timed(2)

    opt_obs, opt_s = benchmark.pedantic(opt_run, rounds=1, iterations=1)
    assert opt_obs == base_obs, "optimization changed observable results"

    speedup = base_s / opt_s
    benchmark.extra_info["lanes"] = n_lanes
    benchmark.extra_info["opt0_s"] = round(base_s, 4)
    benchmark.extra_info["opt2_s"] = round(opt_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(f"\n[VEC-OPT] stock fig2d, {n_lanes} lanes x {cycles} cycles: "
          f"opt0 {base_s:.2f}s, opt2 {opt_s:.2f}s -> {speedup:.2f}x")

    if QUICK:
        assert speedup > 0.5, \
            f"optimized vec pathologically slow: {speedup:.2f}x"
    else:  # "not slower", less one-round timing noise
        assert speedup >= 0.9, \
            f"--opt 2 vec slower than opt 0: {speedup:.2f}x"
