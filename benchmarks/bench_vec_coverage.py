"""Vectorization coverage of the parts catalog, gated on fig2d.

The lockstep engine's vec plan reaches beyond the Moore templates:
PipelineReg, Delay, Tee, Mux, Demux and the Arbiter (fixed-priority and
round-robin policies) all gained lane implementations, and numeric
parameters broadcast per lane instead of demoting the group.  These
benchmarks pin the consequences on the paper's flagship composition:

* the stock Figure 2(d) system (detailed field tier, statistical
  backend) must report a **nonzero** vectorized wire fraction — the
  gateway queue and the statistical CMP sink sit outside the NIC
  machinery and now batch;
* the fully statistical variant (``field='statistical'`` — every field
  instance a PCL template) must vectorize **completely** (every wire on
  the SoA path, no scalar stragglers, zero fallback steps) and beat the
  plan-less batch (every lane on its own static stepper) by >= 2x at
  batch 256, bit-identical per lane.
"""

from __future__ import annotations

import os
import time

from repro import build_design
from repro.core.batched import BatchedSimulator
from repro.systems.fig2d import build_fig2d

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

CYCLES = 40 if QUICK else 150


def _design(i: int, field: str):
    spec, _info = build_fig2d(2, field=field, backend="statistical",
                              backend_rate=0.3 + (i % 7) * 0.1, seed=i)
    return build_design(spec)


def _lane_observations(sim) -> list:
    return [(lane.transfers_total, lane.relaxations_total,
             lane.stats.report()) for lane in sim.lanes]


def test_fig2d_vec_wire_fraction(benchmark):
    """Stock fig2d: nonzero coverage; statistical field: total coverage."""
    fractions = {}
    for field in ("detailed", "statistical"):
        designs = [_design(i, field) for i in range(4)]
        sim = BatchedSimulator(designs, seeds=list(range(4)))
        sim.run(CYCLES if field == "detailed" else CYCLES * 2)
        plan = sim.vec_plan
        n_total = len(designs[0].wires)
        n_vec = plan.n_wires if plan is not None else 0
        fractions[field] = (n_vec, n_total)
        if field == "statistical":
            assert plan is not None
            assert plan.vec_paths == set(designs[0].leaves), (
                f"scalar stragglers: "
                f"{sorted(set(designs[0].leaves) - plan.vec_paths)}")
            assert n_vec == n_total
            assert all(lane.fallback_steps == 0 for lane in sim.lanes)
        sim.close()
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    det_vec, det_total = fractions["detailed"]
    sta_vec, sta_total = fractions["statistical"]
    benchmark.extra_info["detailed_fraction"] = round(det_vec / det_total, 3)
    benchmark.extra_info["statistical_fraction"] = round(
        sta_vec / sta_total, 3)
    print(f"\n[VEC-COVERAGE] fig2d vectorized wires: detailed field "
          f"{det_vec}/{det_total}, statistical field {sta_vec}/{sta_total}")

    # The acceptance floor: the stock statistical config is no longer
    # vectorization-free, and the statistical field tier is total.
    assert det_vec > 0, "stock fig2d lost its vectorized wires"
    assert sta_vec == sta_total


def test_fig2d_statistical_field_speedup(benchmark):
    """The vec plan >= 2x the plan-less batch on the statistical field
    tier at batch 256 (32 in quick mode), bit-identical lane for lane.

    The field tier is all Mealy-or-Moore PCL templates — sources with
    lane-divergent backend rates, pipeline registers, delays, audit
    tees, a round-robin arbiter and an origin demux — so this gates the
    re-entrant Mealy vec path end to end, not just the Moore fast path.
    """
    n_lanes = 32 if QUICK else 256
    cycles = CYCLES

    def _designs():
        return [_design(i, "statistical") for i in range(n_lanes)]

    def _timed(planned):
        sim = BatchedSimulator(_designs(), seeds=list(range(n_lanes)))
        if not planned:
            # A step observer keeps the batch off the plan.
            sim.lane(0).add_observer(lambda lane: None)
        sim.run(1)  # plan / stepper build outside the timed region
        t0 = time.perf_counter()
        sim.run(cycles)
        elapsed = time.perf_counter() - t0
        observed = _lane_observations(sim)
        if planned:
            assert sim.vec_plan is not None
            assert sim.vec_plan.n_wires == len(sim.lanes[0].design.wires)
        else:
            assert sim.vec_plan is None
        sim.close()
        return observed, elapsed

    scalar_obs, scalar_s = _timed(False)

    def vec_run():
        return _timed(True)

    vec_obs, vec_s = benchmark.pedantic(vec_run, rounds=1, iterations=1)
    assert vec_obs == scalar_obs, "vectorized lanes diverged from scalar"

    speedup = scalar_s / vec_s
    benchmark.extra_info["lanes"] = n_lanes
    benchmark.extra_info["scalar_s"] = round(scalar_s, 4)
    benchmark.extra_info["vec_s"] = round(vec_s, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(f"\n[VEC-FIG2D] {n_lanes} lanes x {cycles} cycles: plan-less "
          f"{scalar_s:.2f}s, vec {vec_s:.2f}s -> {speedup:.2f}x")

    if QUICK:
        assert speedup > 0.5, \
            f"vectorization pathologically slow: {speedup:.2f}x"
    else:
        assert speedup >= 2.0, \
            f"expected >=2x on the statistical field tier, got {speedup:.2f}x"
