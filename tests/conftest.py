"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import pytest

from repro import LSS, engine_names
from repro.pcl import Queue, Sink, Source

def pytest_sessionstart(session):
    """Give the session a private, empty on-disk compile cache.

    The suite then neither reads nor writes ``./.repro-cache/``, so a
    warm local cache cannot hide a bug on the cold compile path.
    Subprocesses the tests start inherit the directory.
    """
    from repro.core import compile_cache
    os.environ["REPRO_CACHE_DIR"] = tempfile.mkdtemp(prefix="repro-cache-")
    compile_cache.configure()


def pytest_sessionfinish(session):
    shutil.rmtree(os.environ["REPRO_CACHE_DIR"], ignore_errors=True)


#: Every registered engine, resolved from the backend registry (the
#: lockstep engine animates a batch of one).
ENGINES = engine_names()

#: The lockstep engine with no vec plan: each lane runs its own static
#: stepper, as it does whenever an observer or monitor is attached or
#: nothing in the design vectorizes.
PLANLESS = "batched-planless"

#: Every execution path a design can take: the registered engines plus
#: the lockstep engine's plan-less path.
ENGINE_PATHS = ENGINES + (PLANLESS,)


def force_planless(monkeypatch) -> None:
    """Make every lockstep batch find nothing to vectorize."""
    from repro.core.batched import BatchedSimulator
    monkeypatch.setattr(BatchedSimulator, "_fetch_or_build_plan",
                        lambda self, schedule: None)


def planless_batch(designs, seeds):
    """A lockstep batch an observer on lane 0 keeps off the vec plan:
    every lane runs its own static stepper."""
    from repro.core.batched import BatchedSimulator
    batch = BatchedSimulator(designs, seeds=seeds)
    batch.lane(0).add_observer(lambda sim: None)
    return batch


@pytest.fixture
def built_engines(monkeypatch):
    """The class names of the simulators built while a test runs;
    building a lockstep batch raises."""
    from repro.core.batched import BatchedSimulator
    from repro.core.engine import SimulatorBase
    built = []
    init = SimulatorBase.__init__

    def record(self, *args, **kw):
        built.append(type(self).__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(SimulatorBase, "__init__", record)
    monkeypatch.setattr(BatchedSimulator, "__init__", None)
    return built


@pytest.fixture(params=ENGINE_PATHS)
def engine(request, monkeypatch):
    """Parametrize a test over every execution path; yields the engine
    name to build with (``"batched"`` for the plan-less path)."""
    if request.param == PLANLESS:
        force_planless(monkeypatch)
        return "batched"
    return request.param


def simple_pipe_spec(depth: int = 4, rate: float = 1.0, seed: int = 0,
                     name: str = "pipe") -> LSS:
    """source -> queue -> sink; the canonical smoke-test system."""
    spec = LSS(name)
    if rate >= 1.0:
        src = spec.instance("src", Source, pattern="counter")
    else:
        src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                            payload=1, seed=seed)
    q = spec.instance("q", Queue, depth=depth)
    snk = spec.instance("snk", Sink)
    spec.connect(src.port("out"), q.port("in"))
    spec.connect(q.port("out"), snk.port("in"))
    return spec


def run_to_halt(sim, cores, max_cycles: int = 50_000, drain: int = 0):
    """Step until every core reports halted (plus optional drain)."""
    drained = 0
    for _ in range(max_cycles):
        sim.step()
        if all(core.halted for core in cores):
            drained += 1
            if drained > drain:
                return True
    return all(core.halted for core in cores)


def ooo_spec(shared_out=None) -> LSS:
    """The out-of-order core running a short sieve against a memory."""
    from repro.pcl import MemoryArray
    from repro.upl import OoOCore, programs
    spec = LSS("ooo")
    core = spec.instance("core", OoOCore, n_alu=2, window_depth=16,
                         rob_depth=32, shared_out=shared_out,
                         program=programs.assemble_named("sieve", limit=20))
    mem = spec.instance("mem", MemoryArray, size=4096, latency=1)
    spec.connect(core.port("dmem_req"), mem.port("req"))
    spec.connect(mem.port("resp"), core.port("dmem_resp"))
    return spec
