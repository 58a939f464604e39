"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import LSS, engine_names
from repro.pcl import Queue, Sink, Source

#: The single-design engines, resolved from the backend registry (the
#: batched backend is exercised by its dedicated differential tests and
#: the REPRO_ENGINE=batched CI leg rather than by every fixture user).
ENGINES = tuple(n for n in engine_names() if n != "batched")


@pytest.fixture(params=ENGINES)
def engine(request):
    """Parametrize a test over every single-design engine."""
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
