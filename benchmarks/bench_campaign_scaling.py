"""Campaign scaling: the worker pool vs. the serial baseline.

The acceptance experiment for :mod:`repro.campaign`: an 8-point
parameter sweep over the quickstart pipeline design, run one task per
point (``batch_max=1``; grouped, its one topology would be a single
lockstep task) once through the serial in-process executor and once
through the multiprocess pool with 4 workers.  On a machine with >= 4 usable cores the pool must
finish the sweep at least 2x faster; with fewer cores the measured
speedup is reported and the bar scales down (parallel speedup cannot
exceed the core count).  Both runs must produce identical per-point
statistics — parallelism must not perturb seeded determinism.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import LSS
from repro.campaign import Campaign, GridSweep

#: CI smoke mode: shrink the per-point workload and drop the speedup
#: bar (pool startup dominates tiny runs; quick mode validates wiring
#: and determinism, not parallel efficiency).
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: Per-point workload: ~0.5s of simulated pipeline on one core.
CYCLES = 3_000 if QUICK else 20_000

GRID = {"depth": [1, 2, 4, 8], "rate": [0.3, 0.8]}


def build_pipeline(depth: int, rate: float) -> LSS:
    """Campaign spec builder: the README pipeline, two sweep axes."""
    from repro.pcl import Queue, Sink, Source
    spec = LSS("scaling")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate, seed=1)
    q = spec.instance("q", Queue, depth=depth)
    snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.9, seed=2)
    spec.connect(src.port("out"), q.port("in"))
    spec.connect(q.port("out"), snk.port("in"))
    return spec


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _campaign(name, tmp_path, workers):
    return Campaign(name, GridSweep(GRID, base_seed=42),
                    target=build_pipeline, kind="spec", engine="levelized",
                    cycles=CYCLES, workers=workers, retries=0, batch_max=1,
                    ledger_path=str(tmp_path / f"{name}.jsonl"))


def test_campaign_parallel_speedup(benchmark, tmp_path):
    serial = _campaign("scaling-serial", tmp_path, workers=0)
    pool = _campaign("scaling-pool", tmp_path, workers=4)

    t0 = time.perf_counter()
    serial_result = serial.run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pool_result = pool.run()
    pool_s = time.perf_counter() - t0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert len(serial_result.done) == len(pool_result.done) == 8
    assert not serial_result.failed and not pool_result.failed

    # Parallelism must not perturb seeded determinism: identical stats.
    for s_row, p_row in zip(serial_result.rows, pool_result.rows):
        assert s_row.params == p_row.params
        assert s_row.result["stats"] == p_row.result["stats"], s_row.params

    cores = _usable_cores()
    speedup = serial_s / pool_s
    print(f"\n[CAMPAIGN] 8 points x {CYCLES} cycles: serial {serial_s:.2f}s, "
          f"4 workers {pool_s:.2f}s -> {speedup:.2f}x on {cores} core(s)")
    print(pool_result.table(metrics=["transfers"]))

    if QUICK:
        assert speedup > 0.3, f"pool pathologically slow: {speedup:.2f}x"
    elif cores >= 4:
        assert speedup >= 2.0, f"expected >=2x on {cores} cores, got {speedup:.2f}x"
    elif cores >= 2:
        assert speedup >= 1.2, f"expected >=1.2x on {cores} cores, got {speedup:.2f}x"
    else:
        pytest.skip(f"only {cores} usable core(s): parallel speedup is "
                    f"physically capped at 1x; measured {speedup:.2f}x")
