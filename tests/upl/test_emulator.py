"""Unit tests for the functional emulator (the golden model)."""

import pytest

from repro.core.errors import FirmwareError
from repro.upl.assembler import assemble
from repro.upl.emulator import (ArchState, FlatMemory, FunctionalEmulator,
                                begin, branch_taken, execute_alu, resume)
from repro.upl.isa import Instruction
from repro.upl import programs


class TestALU:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 3, 4, 7),
        ("sub", 3, 4, -1),
        ("mul", -3, 4, -12),
        ("div", 7, 2, 3),
        ("div", -7, 2, -3),       # truncation toward zero
        ("div", 5, 0, 0),         # div-by-zero convention
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
        ("sll", 1, 4, 16),
        ("srl", -1, 28, 0xF),
        ("sra", -16, 2, -4),
        ("slt", -1, 1, 1),
        ("slt", 1, -1, 0),
        ("sltu", -1, 1, 0),       # -1 is huge unsigned
        ("lui", 0, 2, 2 << 16),
    ])
    def test_alu_semantics(self, op, a, b, expected):
        inst = Instruction(op, rd=1, rs1=2, rs2=3) \
            if not op.endswith("i") and op != "lui" \
            else Instruction(op, rd=1, rs1=2, imm=b)
        assert execute_alu(inst, a, b) == expected

    def test_overflow_wraps_32bit(self):
        inst = Instruction("add", rd=1, rs1=2, rs2=3)
        assert execute_alu(inst, 2**31 - 1, 1) == -(2**31)

    def test_non_alu_op_rejected(self):
        with pytest.raises(FirmwareError):
            execute_alu(Instruction("beq"), 0, 0)


class TestBranches:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("beq", 1, 1, True), ("beq", 1, 2, False),
        ("bne", 1, 2, True), ("bne", 1, 1, False),
        ("blt", -1, 0, True), ("blt", 0, -1, False),
        ("bge", 0, 0, True), ("bge", -1, 0, False),
    ])
    def test_conditions(self, op, a, b, expected):
        assert branch_taken(Instruction(op, rs1=1, rs2=2), a, b) is expected


class TestArchState:
    def test_r0_hardwired_zero(self):
        state = ArchState()
        state.write_reg(0, 99)
        assert state.read_reg(0) == 0

    def test_writes_wrap_to_signed32(self):
        state = ArchState()
        state.write_reg(1, 2**31)
        assert state.read_reg(1) == -(2**31)


class TestFlatMemory:
    def test_default_zero(self):
        assert FlatMemory().read(123) == 0

    def test_mmio_handlers(self):
        log = []
        mem = FlatMemory()
        mem.add_mmio(100, 4, read_fn=lambda off: off * 10,
                     write_fn=lambda off, v: log.append((off, v)))
        assert mem.read(102) == 20
        mem.write(101, 7)
        assert log == [(1, 7)]
        mem.write(50, 5)          # outside the window: plain storage
        assert mem.read(50) == 5


class TestPrograms:
    @pytest.mark.parametrize("name,expected_a0", [
        ("sum_to_n", 55),
        ("fibonacci", 55),
        ("call_return", 4),
        ("sieve", 10),            # primes below 30
    ])
    def test_catalog_results(self, name, expected_a0):
        state = FunctionalEmulator(programs.assemble_named(name)).run()
        assert state.halted
        assert state.regs[10] == expected_a0

    def test_memcpy_moves_data(self):
        emu = FunctionalEmulator(programs.assemble_named("memcpy"))
        for i in range(8):
            emu.memory.write(64 + i, 100 + i)
        emu.run()
        assert [emu.memory.read(128 + i) for i in range(8)] \
            == [100 + i for i in range(8)]

    def test_vector_sum(self):
        emu = FunctionalEmulator(programs.assemble_named("vector_sum"))
        for i in range(16):
            emu.memory.write(64 + i, i)
        state = emu.run()
        assert state.regs[10] == sum(range(16))

    def test_store_pattern(self):
        emu = FunctionalEmulator(programs.assemble_named("store_pattern"))
        emu.run()
        assert [emu.memory.read(64 + i) for i in range(8)] \
            == [3 * (i + 1) for i in range(8)]

    def test_instret_counts(self):
        state = FunctionalEmulator(assemble("nop\nnop\nhalt")).run()
        assert state.instret == 3

    def test_runaway_program_detected(self):
        with pytest.raises(FirmwareError, match="did not halt"):
            FunctionalEmulator(assemble("x: j x")).run(max_insts=100)

    def test_ifetch_out_of_range(self):
        with pytest.raises(FirmwareError, match="ifetch"):
            FunctionalEmulator(assemble("j done\ndone:nop")).run(10)

    def test_ecall_hook(self):
        calls = []

        def syscall(state, num, arg):
            calls.append((num, arg))
            return arg * 2

        prog = assemble("""
            li a0, 21
            li a7, 1
            ecall
            halt
        """)
        state = FunctionalEmulator(prog, syscall=syscall).run()
        assert calls == [(1, 21)]
        assert state.regs[10] == 42

    def test_begin_resume_return_memops(self):
        state = ArchState()
        state.write_reg(1, 40)
        state.write_reg(2, 7)
        assert begin(state, Instruction("addi", rd=3, rs1=1, imm=2)) is None
        assert (state.pc, state.instret, state.read_reg(3)) == (1, 1, 42)
        # A store waits on its write; the hart is a plain record until
        # resume() retires it.
        assert begin(state, Instruction("sw", rs1=1, rs2=2, imm=1)) \
            == ("write", 41, 7)
        assert state.pc == 1 and state.pending.op == "sw"
        assert resume(state, None).op == "sw"
        assert state.pc == 2 and state.pending is None
        assert begin(state, Instruction("lw", rd=4, rs1=1, imm=1)) \
            == ("read", 41)
        resume(state, 7)
        assert (state.pc, state.instret, state.read_reg(4)) == (3, 3, 7)
