"""Integration tests for the structural in-order pipeline.

The key property: for every catalog program, predictor and engine, the
pipeline's architectural results equal the functional emulator's.
"""

import pytest

from repro import LSS, build_simulator
from repro.pcl import MemoryArray
from repro.upl import (BimodalPredictor, Cache, FunctionalEmulator,
                       GSharePredictor, InOrderPipeline,
                       ReturnStackPredictor, StaticPredictor, assemble,
                       programs)

from ..conftest import PLANLESS

INIT = {64 + i: 10 + i for i in range(16)}


def _build(program, predictor_factory=None, engine="worklist",
           mem_latency=1, with_cache=False):
    shared_box = []
    spec = LSS("pipe")
    cpu = spec.instance("cpu", InOrderPipeline, program=program,
                        predictor_factory=predictor_factory,
                        shared_out=shared_box)
    mem = spec.instance("mem", MemoryArray, size=4096, latency=mem_latency,
                        init=dict(INIT))
    if with_cache:
        l1 = spec.instance("l1", Cache, sets=8, ways=2, block=2)
        spec.connect(cpu.port("dmem_req"), l1.port("cpu_req"))
        spec.connect(l1.port("cpu_resp"), cpu.port("dmem_resp"))
        spec.connect(l1.port("mem_req"), mem.port("req"))
        spec.connect(mem.port("resp"), l1.port("mem_resp"))
    else:
        spec.connect(cpu.port("dmem_req"), mem.port("req"))
        spec.connect(mem.port("resp"), cpu.port("dmem_resp"))
    sim = build_simulator(spec, engine=engine)
    return sim, shared_box[0]


def _golden(program):
    emu = FunctionalEmulator(program)
    for addr, value in INIT.items():
        emu.memory.write(addr, value)
    return emu, emu.run()


def _run(sim, shared, max_cycles=40_000):
    for _ in range(max_cycles):
        sim.step()
        if shared.halted:
            return True
    return False


PROGRAMS = ["sum_to_n", "fibonacci", "memcpy", "vector_sum",
            "call_return", "store_pattern", "sieve"]


class TestArchitecturalEquivalence:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_matches_emulator(self, name):
        program = programs.assemble_named(name)
        emu, golden = _golden(program)
        sim, shared = _build(program,
                             lambda: BimodalPredictor(64))
        assert _run(sim, shared)
        rf = sim.instance("cpu/rf")
        assert rf.read_reg(10) == golden.regs[10]
        assert shared.retired == golden.instret
        mem = sim.instance("mem")
        assert all(mem.peek(a) == emu.memory.read(a) for a in range(512))

    @pytest.mark.parametrize("engine", ["levelized", "batched", PLANLESS],
                             indirect=True)
    def test_engines_equivalent(self, engine):
        program = programs.assemble_named("sieve", limit=20)
        base, shared0 = _build(program, lambda: BimodalPredictor(64))
        _run(base, shared0)
        other, shared1 = _build(program, lambda: BimodalPredictor(64),
                                engine=engine)
        _run(other, shared1)
        assert other.now == base.now
        assert shared1.retired == shared0.retired

    @pytest.mark.parametrize("factory", [
        lambda: StaticPredictor(False),
        lambda: StaticPredictor(True),
        lambda: GSharePredictor(128, 6),
        lambda: ReturnStackPredictor(BimodalPredictor(64)),
    ])
    def test_any_predictor_is_architecturally_invisible(self, factory):
        program = programs.assemble_named("fibonacci", n=8)
        _, golden = _golden(program)
        sim, shared = _build(program, factory)
        assert _run(sim, shared)
        assert sim.instance("cpu/rf").read_reg(10) == golden.regs[10]

    def test_through_cache_hierarchy(self):
        program = programs.assemble_named("sieve", limit=25)
        emu, golden = _golden(program)
        sim, shared = _build(program, lambda: BimodalPredictor(64),
                             mem_latency=6, with_cache=True)
        assert _run(sim, shared, max_cycles=80_000)
        assert sim.instance("cpu/rf").read_reg(10) == golden.regs[10]
        assert sim.stats.counter("l1", "hits") > 0


class TestMicroarchitecture:
    def test_better_predictor_fewer_cycles(self):
        # sum_to_n's loop branch is taken 39/40 times: not-taken static
        # prediction mispredicts every iteration; bimodal learns it.
        program = programs.assemble_named("sum_to_n", n=40)
        slow, shared_s = _build(program, lambda: StaticPredictor(False))
        fast, shared_f = _build(program, lambda: BimodalPredictor(64))
        _run(slow, shared_s)
        _run(fast, shared_f)
        assert fast.now < slow.now
        assert fast.stats.counter("cpu/execute", "mispredicts") \
            < slow.stats.counter("cpu/execute", "mispredicts")

    def test_squashes_follow_mispredicts(self):
        program = programs.assemble_named("sum_to_n", n=10)
        sim, shared = _build(program, lambda: StaticPredictor(True))
        _run(sim, shared)
        mispredicts = sim.stats.counter("cpu/execute", "mispredicts")
        squashed = (sim.stats.counter("cpu/decode", "squashed")
                    + sim.stats.counter("cpu/execute", "squashed"))
        assert mispredicts > 0
        assert squashed >= mispredicts  # wrong-path work was discarded

    def test_memory_latency_shapes_cpi(self):
        program = programs.assemble_named("vector_sum", words=8)
        fast, shared_f = _build(program, mem_latency=1)
        slow, shared_s = _build(program, mem_latency=10)
        _run(fast, shared_f)
        _run(slow, shared_s)
        assert slow.now > fast.now + 8 * 5  # ~9 extra cycles per load

    def test_scoreboard_stalls_counted(self):
        # Back-to-back dependent adds must stall in decode.
        program = assemble("""
            li   t0, 1
            add  t1, t0, t0
            add  t2, t1, t1
            add  t3, t2, t2
            halt
        """)
        _, golden = _golden(program)
        sim, shared = _build(program)
        assert _run(sim, shared)
        assert sim.stats.counter("cpu/decode", "operand_stalls") > 0
        assert sim.instance("cpu/rf").read_reg(7) == golden.regs[7]

    def test_execute_latency_parameter(self):
        program = assemble("""
            li  t0, 3
            mul t1, t0, t0
            mul t1, t1, t0
            halt
        """)
        def slow_mul(inst):
            return 6 if inst.op == "mul" else 1

        shared_box = []
        spec = LSS("lat")
        cpu = spec.instance("cpu", InOrderPipeline, program=program,
                            latency_of=slow_mul, shared_out=shared_box)
        mem = spec.instance("mem", MemoryArray, size=64)
        spec.connect(cpu.port("dmem_req"), mem.port("req"))
        spec.connect(mem.port("resp"), cpu.port("dmem_resp"))
        slow = build_simulator(spec)
        _run(slow, shared_box[0])
        base, shared = _build(program)
        _run(base, shared)
        assert slow.now >= base.now + 10
        assert slow.instance("cpu/rf").read_reg(6) == 27
