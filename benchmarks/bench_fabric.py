"""Fabric throughput: a 2-worker loopback fabric vs. single-process.

The acceptance experiment for :mod:`repro.fabric`: one sweep, run once
through a local ``Campaign`` (the single-process ceiling)
and once through a loopback coordinator with two forked workers.  With
at least two usable cores the fabric must finish the same campaign at
least 1.5x faster — the protocol, lease, and artifact machinery must
cost less than the parallelism buys.  Both paths must produce
identical per-point results: distribution must not perturb seeded
determinism.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro import LSS
from repro.campaign import Campaign, GridSweep
from repro.fabric import Coordinator, CoordinatorThread, FabricClient, \
    job_from_sweep, worker_main

#: CI smoke mode: shrink the per-point workload and drop the speedup
#: bar (worker startup dominates tiny runs; quick mode validates the
#: distributed path end to end, not parallel efficiency).
QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

CYCLES = 2_000 if QUICK else 20_000

#: ``stages`` is structural (it changes the wiring), so the fabric
#: plans one lockstep shard per stage count — four shards the two
#: workers can genuinely split.
GRID = {"stages": [1, 2, 3, 4], "rate": [0.3, 0.8]}

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fabric bench needs fork workers")


def build_chain(stages: int, rate: float) -> LSS:
    """Sweep builder: ``stages`` queues in series, rate-modulated."""
    from repro.pcl import Queue, Sink, Source
    spec = LSS("fabric-bench")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        payload=1, seed=7)
    upstream = src.port("out")
    for k in range(stages):
        q = spec.instance(f"q{k}", Queue, depth=4)
        spec.connect(upstream, q.port("in"))
        upstream = q.port("out")
    snk = spec.instance("snk", Sink)
    spec.connect(upstream, snk.port("in"))
    return spec


TARGET = "benchmarks.bench_fabric:build_chain"


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _norm(value):
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


def test_fabric_two_worker_speedup(benchmark, tmp_path):
    sweep = GridSweep(GRID, base_seed=42)

    # Single-process ceiling: the local campaign (this also
    # warms the compile cache, so neither timed path pays compiles
    # the other does not).
    solo = Campaign("fabric-solo", sweep, target=TARGET, kind="spec",
                    cycles=CYCLES, batch_max=8, retries=0,
                    ledger_path=str(tmp_path / "solo.jsonl"))
    t0 = time.perf_counter()
    solo_result = solo.run()
    solo_s = time.perf_counter() - t0
    assert not solo_result.failed

    # The same sweep through a loopback fabric with two fork workers.
    job = job_from_sweep("fabric-bench", sweep, kind="spec", target=TARGET,
                         cycles=CYCLES, batch_max=8, retries=0,
                         ledger_path=str(tmp_path / "fabric.jsonl"))
    coordinator = Coordinator(lease_timeout=30.0)
    ctx = multiprocessing.get_context("fork")
    with CoordinatorThread(coordinator):
        workers = []
        for i in range(2):
            proc = ctx.Process(
                target=worker_main,
                args=(coordinator.host, coordinator.port),
                kwargs={"worker_id": f"bench-{i}", "poll": 0.02,
                        "idle_exit_after": 200},
                name=f"fabric-bench-worker-{i}", daemon=True)
            proc.start()
            workers.append(proc)
        client = FabricClient(coordinator.host, coordinator.port)
        t0 = time.perf_counter()
        reply = client.submit(job)
        final = client.wait(reply["job_id"], timeout=600, poll=0.02)
        fabric_s = time.perf_counter() - t0
        for proc in workers:
            proc.join(timeout=30)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    assert final["state"] == "done"
    rows = {row["run_id"]: row for row in final["rows"]}
    assert all(row["status"] == "done" for row in rows.values())

    # Distribution must not perturb seeded determinism.
    for s_row in solo_result.rows:
        assert _norm(rows[s_row.run_id]["result"]) == _norm(s_row.result), \
            s_row.params

    cores = _usable_cores()
    speedup = solo_s / fabric_s
    shards = reply["shards"]
    print(f"\n[FABRIC] {len(rows)} points x {CYCLES} cycles in {shards} "
          f"shard(s): solo {solo_s:.2f}s, 2-worker fabric {fabric_s:.2f}s "
          f"-> {speedup:.2f}x on {cores} core(s)")
    if hasattr(benchmark, "extra_info"):
        benchmark.extra_info.update(
            solo_s=solo_s, fabric_s=fabric_s, speedup=speedup,
            cycles=CYCLES, shards=shards, quick=QUICK)

    if QUICK:
        assert speedup > 0.2, f"fabric pathologically slow: {speedup:.2f}x"
    elif cores >= 2:
        assert speedup >= 1.5, \
            f"expected >=1.5x on {cores} cores, got {speedup:.2f}x"
    else:
        pytest.skip(f"only {cores} usable core(s): parallel speedup is "
                    f"physically capped at 1x; measured {speedup:.2f}x")
