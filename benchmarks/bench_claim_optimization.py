"""CLM-OPT — construction-time optimization (§2.3, ref [22]).

"By carefully selecting the model of computation it is possible to
analyze the LSS for optimization."  The ablation: the same model run
by the dynamic worklist engine, the static engine (a generated stepper
over the static schedule), and the lockstep engine animating a batch of
one.  Semantics are identical (asserted); the static engines shed
scheduling overhead.
"""

from __future__ import annotations

import time

import pytest

from repro import LSS, build_simulator
from repro.core.backends import engine_names
from repro.ccl import Mesh, attach_traffic, build_mesh_network
from repro.pcl import Monitor, Queue, Sink, Source

ENGINES = engine_names()


def _chain_spec(n_stages=12):
    spec = LSS("chain")
    src = spec.instance("src", Source, pattern="counter")
    prev = src.port("out")
    for i in range(n_stages):
        stage = spec.instance(f"s{i}", Queue if i % 2 else Monitor,
                              **({"depth": 4} if i % 2 else {}))
        spec.connect(prev, stage.port("in"))
        prev = stage.port("out")
    snk = spec.instance("snk", Sink)
    spec.connect(prev, snk.port("in"))
    return spec


def _mesh_spec():
    mesh = Mesh(3, 3)
    spec = LSS("mesh")
    routers = build_mesh_network(spec, mesh)
    attach_traffic(spec, mesh, routers, rate=0.15, seed=2)
    return spec


@pytest.mark.parametrize("engine", ENGINES)
def test_chain_throughput_per_engine(engine, benchmark):
    sim = build_simulator(_chain_spec(), engine=engine)
    benchmark.pedantic(lambda: sim.run(300), rounds=3, iterations=1)


@pytest.mark.parametrize("engine", ENGINES)
def test_mesh_throughput_per_engine(engine, benchmark):
    sim = build_simulator(_mesh_spec(), engine=engine)
    benchmark.pedantic(lambda: sim.run(60), rounds=2, iterations=1)


def test_engines_identical_semantics(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    results = []
    for engine in ENGINES:
        sim = build_simulator(_chain_spec(), engine=engine)
        sim.run(200)
        results.append((sim.stats.counter("snk", "consumed"),
                        sim.transfers_total))
    assert results[0] == results[1] == results[2]


def test_optimization_speedup_table(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """The headline rows: cycles/second per engine on both workloads."""
    print("\n[CLM-OPT] workload  engine     cycles/s   speedup")
    for label, builder, cycles in (("chain", _chain_spec, 2000),
                                   ("mesh3x3", _mesh_spec, 200)):
        baseline = None
        for engine in ENGINES:
            sim = build_simulator(builder(), engine=engine)
            sim.run(10)  # warm up
            start = time.perf_counter()
            sim.run(cycles)
            elapsed = time.perf_counter() - start
            rate = cycles / elapsed
            baseline = baseline or rate
            print(f"          {label:8s}  {engine:9s}  {rate:9.0f}  "
                  f"{rate / baseline:6.2f}x")
    # No assertion on magnitude (machine-dependent); the table is the
    # artifact.  Semantics equality is asserted separately above.
