"""Instruction-set emulation (the "Instruction Set Emulation" box of
Figure 1) for LibertyRISC.

The architectural semantics are written once, as two plain functions
over the :class:`ArchState` record: :func:`begin` executes a fetched
instruction word and returns the data operation a load or store still
waits on (``None`` once the instruction retired), and :func:`resume`
retires that load or store with the operation's result.  Nothing is
suspended between the calls — the instruction in flight is a field of
the record — so a hart can be copied, pickled and restored mid-
instruction.  Two drivers animate the functions:

* :class:`FunctionalEmulator` — runs whole programs against a
  :class:`FlatMemory` directly (zero-latency memory), serving as the
  golden model the structural processor models are validated against;
* :class:`repro.upl.core.SimpleCore` — an LSE leaf module that turns
  each memory operation into a port-level memory transaction, so the
  identical semantics drive the structural memory hierarchy.

This single-source-of-truth design is how we guarantee the structural
models compute the same results as the ISA definition.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import FirmwareError
from .isa import (Instruction, NUM_REGS, Program, decode, to_signed32,
                  to_unsigned32)

#: Memory operations: an instruction fetch ``(OP_IFETCH, pc)``, then at
#: most one data operation returned by :func:`begin`.
OP_IFETCH = "ifetch"
OP_READ = "read"
OP_WRITE = "write"

MemOp = Tuple  # (OP_IFETCH, addr) | (OP_READ, addr) | (OP_WRITE, addr, value)


class ArchState:
    """Architectural state of one LibertyRISC hart."""

    __slots__ = ("regs", "pc", "halted", "instret", "syscall", "last_inst",
                 "pending")

    def __init__(self, pc: int = 0,
                 syscall: Optional[Callable[["ArchState", int, int], int]] = None):
        self.regs: List[int] = [0] * NUM_REGS
        self.pc = pc
        self.halted = False
        self.instret = 0
        #: Optional environment-call hook: ``syscall(state, num, arg) -> ret``.
        self.syscall = syscall
        #: The most recently retired instruction (debug/stats aid).
        self.last_inst: Optional[Instruction] = None
        #: The load or store :func:`begin` left waiting on its data
        #: operation (None between instructions).
        self.pending: Optional[Instruction] = None

    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = to_signed32(value)

    def __repr__(self) -> str:
        return (f"<ArchState pc={self.pc} instret={self.instret} "
                f"halted={self.halted}>")


def execute_alu(inst: Instruction, a: int, b: int) -> int:
    """Pure ALU semantics shared by the emulator and pipeline models.

    ``a`` is rs1's value; ``b`` is rs2's value for R-format and the
    immediate for I-format.  Returns the (signed, wrapped) result.
    """
    op = inst.op
    if op in ("add", "addi"):
        result = a + b
    elif op == "sub":
        result = a - b
    elif op == "mul":
        result = a * b
    elif op == "div":
        result = 0 if b == 0 else int(a / b)  # trunc toward zero; div0 -> 0
    elif op in ("and", "andi"):
        result = a & b
    elif op in ("or", "ori"):
        result = a | b
    elif op in ("xor", "xori"):
        result = a ^ b
    elif op in ("sll", "slli"):
        result = a << (b & 31)
    elif op in ("srl", "srli"):
        result = to_unsigned32(a) >> (b & 31)
    elif op == "sra":
        result = to_signed32(a) >> (b & 31)
    elif op in ("slt", "slti"):
        result = 1 if to_signed32(a) < to_signed32(b) else 0
    elif op == "sltu":
        result = 1 if to_unsigned32(a) < to_unsigned32(b) else 0
    elif op == "lui":
        result = (b & 0xFFFF) << 16
    elif op == "nop":
        result = 0
    else:
        raise FirmwareError(f"execute_alu: {op!r} is not an ALU op")
    return to_signed32(result)


def branch_taken(inst: Instruction, a: int, b: int) -> bool:
    """Condition evaluation for conditional branches."""
    op = inst.op
    if op == "beq":
        return a == b
    if op == "bne":
        return a != b
    if op == "blt":
        return to_signed32(a) < to_signed32(b)
    if op == "bge":
        return to_signed32(a) >= to_signed32(b)
    raise FirmwareError(f"branch_taken: {op!r} is not a conditional branch")


def begin(state: ArchState, word) -> Optional[MemOp]:
    """Execute the instruction fetched from ``(OP_IFETCH, state.pc)``.

    ``word`` is the fetched 32-bit encoding (or a decoded
    :class:`~repro.upl.isa.Instruction`).  Returns ``None`` once the
    instruction has retired, or the data operation a load
    ``(OP_READ, addr)`` or store ``(OP_WRITE, addr, value)`` still
    waits on: :func:`resume` retires it with that operation's result.
    The caller never begins an instruction on a halted hart.
    """
    inst = decode(word) if isinstance(word, int) else word
    if inst.is_load or inst.is_store:
        state.pending = inst
        addr = state.read_reg(inst.rs1) + inst.imm
        if inst.is_load:
            return (OP_READ, addr)
        return (OP_WRITE, addr, state.read_reg(inst.rs2))
    op = inst.op
    next_pc = state.pc + 1
    if op == "halt":
        state.halted = True
    elif op == "ecall":
        num = state.read_reg(17)
        arg = state.read_reg(10)
        result = state.syscall(state, num, arg) if state.syscall else 0
        state.write_reg(10, result if result is not None else 0)
    elif op == "jal":
        state.write_reg(inst.rd, state.pc + 1)
        next_pc = state.pc + inst.imm
    elif op == "jalr":
        target = state.read_reg(inst.rs1) + inst.imm
        state.write_reg(inst.rd, state.pc + 1)
        next_pc = target
    elif inst.is_branch:
        if branch_taken(inst, state.read_reg(inst.rs1), state.read_reg(inst.rs2)):
            next_pc = state.pc + inst.imm
    else:  # ALU family
        fmt_b = inst.imm if inst.op.endswith("i") or inst.op == "lui" \
            else state.read_reg(inst.rs2)
        if inst.op in ("addi", "andi", "ori", "xori", "slti", "slli", "srli",
                       "lui"):
            fmt_b = inst.imm
        state.write_reg(inst.rd, execute_alu(inst, state.read_reg(inst.rs1),
                                             fmt_b))
    _retire(state, inst, next_pc)
    return None


def resume(state: ArchState, value: Any) -> Instruction:
    """Retire the load or store :func:`begin` left pending.

    ``value`` is the read's result (ignored for a store).  Returns the
    retired instruction.
    """
    inst = state.pending
    state.pending = None
    if inst.is_load:
        state.write_reg(inst.rd, int(value) if value is not None else 0)
    _retire(state, inst, state.pc + 1)
    return inst


def _retire(state: ArchState, inst: Instruction, next_pc: int) -> None:
    state.pc = next_pc
    state.instret += 1
    state.last_inst = inst


class FlatMemory:
    """Sparse word memory with optional memory-mapped I/O handlers.

    MMIO handlers claim address ranges: ``add_mmio(base, size, read_fn,
    write_fn)``; accesses inside a claimed range are delegated.
    """

    def __init__(self, init: Optional[Dict[int, int]] = None):
        self.data: Dict[int, int] = dict(init or {})
        self._mmio: List[Tuple[int, int, Optional[Callable], Optional[Callable]]] = []

    def add_mmio(self, base: int, size: int,
                 read_fn: Optional[Callable[[int], int]] = None,
                 write_fn: Optional[Callable[[int, int], None]] = None) -> None:
        """Register handlers for word addresses [base, base+size)."""
        self._mmio.append((base, size, read_fn, write_fn))

    def _handler(self, addr: int):
        for base, size, read_fn, write_fn in self._mmio:
            if base <= addr < base + size:
                return read_fn, write_fn, addr - base
        return None, None, 0

    def read(self, addr: int) -> int:
        read_fn, _, offset = self._handler(addr)
        if read_fn is not None:
            return read_fn(offset)
        return self.data.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        _, write_fn, offset = self._handler(addr)
        if write_fn is not None:
            write_fn(offset, value)
            return
        self.data[addr] = to_signed32(value)


class FunctionalEmulator:
    """Run whole programs at architectural (zero-latency) speed.

    The golden reference model: structural processor models must match
    its final register and memory state instruction-for-instruction.
    """

    def __init__(self, program: Program, *, pc: int = 0,
                 syscall: Optional[Callable] = None,
                 memory: Optional[FlatMemory] = None):
        self.program = program
        self.imem = program.words()
        self.memory = memory if memory is not None else FlatMemory(program.data)
        self.state = ArchState(pc=pc, syscall=syscall)

    def _serve(self, op: MemOp):
        kind = op[0]
        if kind == OP_IFETCH:
            addr = op[1]
            if not 0 <= addr < len(self.imem):
                raise FirmwareError(f"ifetch out of range: pc={addr}")
            return self.imem[addr]
        if kind == OP_READ:
            return self.memory.read(op[1])
        self.memory.write(op[1], op[2])
        return None

    def step(self) -> Optional[Instruction]:
        """Retire one instruction (or return None if halted)."""
        state = self.state
        if state.halted:
            return None
        op = begin(state, self._serve((OP_IFETCH, state.pc)))
        if op is not None:
            resume(state, self._serve(op))
        return state.last_inst

    def run(self, max_insts: int = 1_000_000) -> ArchState:
        """Run until halt (or the instruction budget is exhausted)."""
        for _ in range(max_insts):
            if self.state.halted:
                return self.state
            self.step()
        if not self.state.halted:
            raise FirmwareError(
                f"program did not halt within {max_insts} instructions")
        return self.state
