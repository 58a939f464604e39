"""An out-of-order LibertyRISC core built around the PCL Buffer.

UPL §3.2 names "re-order buffers, instruction windows" among its
building blocks, and §2.1 claims one buffer template models both.  The
:class:`OoOCore` makes the claim load-bearing: its **instruction
window** and its **reorder buffer** are the very same
:class:`repro.pcl.Buffer` template, differing only in algorithmic
parameters —

* window: ``ready_policy`` (operands available) + CDB-wakeup
  ``on_update`` → out-of-order issue to the ALUs;
* ROB: ``in_order_completion_policy`` + done-marking ``on_update`` →
  in-order commit.

Microarchitecture (Tomasulo-flavoured, deliberately unspeculative):

* :class:`Dispatch` fetches in order from the program, renames through
  a tag table (register → producing sequence number), and broadcasts
  each micro-op through a ``Tee('all')`` into *both* buffers
  atomically (the Tee's unanimity is the alloc-both-or-stall logic);
* ready micro-ops issue from the window to ``n_alu`` parallel
  :class:`ALUUnit` instances; results go over the **common data bus**
  — an Arbiter + Tee broadcast — waking window dependants and marking
  ROB entries done;
* :class:`CommitUnit` retires in ROB order: register writes commit the
  architectural state; loads and stores execute *at commit* through
  the exported ``dmem`` ports (trivially correct memory ordering —
  the conservative end of MPL's ordering spectrum).

No speculation: dispatch stalls at each conditional branch/…`jalr`
until the branch resolves on the CDB, so there is never a wrong path.
``ecall`` is not supported (the in-order pipeline and SimpleCore are).
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Dict, List, Optional, Tuple

from ..core import (HierBody, HierTemplate, LeafModule, Parameter, PortDecl,
                    INPUT, OUTPUT)
from ..core.errors import FirmwareError
from ..pcl.arbiter import Arbiter, round_robin
from ..pcl.buffer import Buffer, in_order_completion_policy, ready_policy
from ..pcl.memory import MemRequest, MemResponse
from ..pcl.routing import Tee
from ..upl.emulator import branch_taken, execute_alu
from .isa import FORMATS, Instruction, Program


class OoOShared:
    """State shared by dispatch and commit (the architected core state).

    ``regs`` is the *architectural* register file (committed values);
    ``tags`` maps a register to the sequence number of its newest
    in-flight producer; ``cdb_values`` records every result the moment
    it is computed (so consumers dispatched after a broadcast still
    find it).

    The object reaches its holders as the ``shared`` parameter, which
    engine checkpoints otherwise leave alone; ``state_dict`` and
    ``load_state_dict`` make it checkpointed state, restored in place so
    dispatch, the ALUs, commit, the window's insert hook and the
    caller's ``shared_out`` handle all see the restored run.
    """

    def __init__(self):
        self.regs: List[int] = [0] * 32
        self.tags: Dict[int, int] = {}
        #: seq -> register value (only ops that produce one: ALU results
        #: immediately; load values and jalr links at commit).
        self.cdb_values: Dict[int, Any] = {}
        #: seq -> resolved next pc for branch-kind ops.
        self.branch_targets: Dict[int, int] = {}
        self.halted = False
        self.halted_at: Optional[int] = None
        self.committed = 0

    def state_dict(self) -> Dict[str, Any]:
        return copy.deepcopy(self.__dict__)

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(copy.deepcopy(state))


class MicroOp:
    """One in-flight instruction: operands by value or by tag."""

    __slots__ = ("seq", "pc", "inst", "kind", "dest",
                 "a_tag", "a_val", "b_tag", "b_val", "result")

    def __init__(self, seq: int, pc: int, inst: Instruction, kind: str,
                 dest: Optional[int]):
        self.seq = seq
        self.pc = pc
        self.inst = inst
        self.kind = kind      # 'alu' | 'branch' | 'load' | 'store' | 'halt'
        self.dest = dest
        self.a_tag: Optional[int] = None
        self.a_val: Any = 0
        self.b_tag: Optional[int] = None
        self.b_val: Any = 0
        self.result: Any = None

    @property
    def ready(self) -> bool:
        return self.a_tag is None and self.b_tag is None

    def __repr__(self) -> str:
        return f"MicroOp(#{self.seq}@{self.pc} {self.inst!r} {self.kind})"


class CDBMsg:
    """A common-data-bus broadcast.

    ``wakes`` is True when ``value`` is a register value consumers may
    capture (ALU results, committed load values, jalr links); False for
    pure completion notifications (branch/store/load-address done).
    """

    __slots__ = ("seq", "value", "wakes")

    def __init__(self, seq: int, value: Any, wakes: bool = True):
        self.seq = seq
        self.value = value
        self.wakes = wakes

    def __eq__(self, other) -> bool:
        return (isinstance(other, CDBMsg) and other.seq == self.seq
                and other.value == self.value and other.wakes == self.wakes)

    def __hash__(self) -> int:
        return hash((self.seq, repr(self.value), self.wakes))

    def __repr__(self) -> str:
        return f"CDB(#{self.seq}={self.value!r}, wakes={self.wakes})"


_IMM_OPS = frozenset(["addi", "andi", "ori", "xori", "slti", "slli",
                      "srli", "lui"])


class Dispatch(LeafModule):
    """In-order fetch + rename + allocate.

    Emits one :class:`MicroOp` per cycle on ``out`` (a Tee fans it into
    the window and the ROB atomically).  Stalls while an unresolved
    branch is pending, once ``halt`` has been dispatched, or while the
    buffers refuse allocation.

    Statistics: ``dispatched``, ``branch_stalls``, ``alloc_stalls``.
    """

    PARAMS = (
        Parameter("program", None),
        Parameter("shared", None),
        Parameter("start_pc", 0),
    )
    PORTS = (PortDecl("out", OUTPUT, min_width=1, max_width=1),)
    DEPS = {}

    def init(self) -> None:
        self.pc = self.p["start_pc"]
        self._seq = itertools.count()
        self._op: Optional[MicroOp] = None
        self._pending_branch: Optional[int] = None
        self._stopped = False

    # ------------------------------------------------------------------
    def _operand(self, reg: int) -> Tuple[Optional[int], Any]:
        shared: OoOShared = self.p["shared"]
        if reg == 0:
            return None, 0
        tag = shared.tags.get(reg)
        if tag is None:
            return None, shared.regs[reg]
        if tag in shared.cdb_values:
            return None, shared.cdb_values[tag]
        return tag, None

    def _classify(self, inst: Instruction) -> Tuple[str, Optional[int]]:
        op = inst.op
        if op == "halt":
            return "halt", None
        if op == "ecall":
            raise FirmwareError("OoOCore does not support ecall")
        if inst.is_load:
            return "load", inst.rd if inst.rd else None
        if inst.is_store:
            return "store", None
        if op in ("beq", "bne", "blt", "bge", "jalr"):
            return "branch", (inst.rd or None) if op == "jalr" else None
        return "alu", inst.writes_reg

    def _make_op(self) -> Optional[MicroOp]:
        shared: OoOShared = self.p["shared"]
        program: Program = self.p["program"]
        if (self._stopped or self._pending_branch is not None
                or shared.halted
                or not 0 <= self.pc < len(program.insts)):
            return None
        inst = program.insts[self.pc]
        kind, dest = self._classify(inst)
        op = MicroOp(next(self._seq), self.pc, inst, kind, dest)
        # Operand A: rs1 for everything that reads it.
        if FORMATS[inst.op] in ("R", "I", "B"):
            op.a_tag, op.a_val = self._operand(inst.rs1)
        # Operand B: rs2, immediate, or nothing.
        if inst.op in _IMM_OPS or inst.is_load or inst.op == "jalr":
            op.b_val = inst.imm
        elif FORMATS[inst.op] == "R" or inst.is_store \
                or inst.op in ("beq", "bne", "blt", "bge"):
            op.b_tag, op.b_val = self._operand(inst.rs2)
        return op

    def react(self) -> None:
        out = self.io_out
        if self._op is None:
            self._op = self._make_op()
        if self._op is not None:
            out.send(0, self._op)
        else:
            out.send_nothing(0)

    def update(self) -> None:
        shared: OoOShared = self.p["shared"]
        out = self.io_out
        if self._op is not None and out.took(0):
            op = self._op
            self.collect("dispatched")
            if op.dest is not None:
                shared.tags[op.dest] = op.seq
            if op.kind == "halt":
                self._stopped = True
            elif op.kind == "branch":
                self._pending_branch = op.seq  # pc frozen until resolved
            elif op.inst.op == "jal":
                self.pc = op.pc + op.inst.imm  # direct jump: no stall
            else:
                self.pc = op.pc + 1
            self._op = None
        elif self._op is not None:
            self.collect("alloc_stalls")
        elif self._pending_branch is not None:
            self.collect("branch_stalls")
        # Resolve a pending branch from the target store.
        if self._pending_branch is not None \
                and self._pending_branch in shared.branch_targets:
            self.pc = shared.branch_targets[self._pending_branch]
            self._pending_branch = None


class ALUUnit(LeafModule):
    """One execution unit: micro-op in, CDB message out.

    Results are recorded into ``shared.cdb_values`` the moment they are
    computed (so same-cycle dispatchers see them); the CDB transfer
    additionally wakes window entries and marks the ROB.

    ``latency_of(inst) -> cycles`` models multi-cycle operations.

    Statistics: ``executed``, ``busy_cycles``.
    """

    PARAMS = (
        Parameter("shared", None),
        Parameter("latency_of", None),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self._op: Optional[MicroOp] = None
        self._ready_at = 0
        self._computed = False

    def _compute(self, op: MicroOp) -> Any:
        inst = op.inst
        o = inst.op
        if op.kind == "halt":
            return ("halt",)
        if op.kind == "load":
            return op.a_val + op.b_val          # effective address
        if op.kind == "store":
            return (op.a_val + inst.imm, op.b_val)  # (address, data)
        if op.kind == "branch":
            if o == "jalr":
                return (op.a_val + inst.imm, op.pc + 1)
            taken = branch_taken(inst, op.a_val, op.b_val)
            return (op.pc + inst.imm if taken else op.pc + 1, None)
        if o == "jal":
            return op.pc + 1                    # link value
        b = inst.imm if o in _IMM_OPS else op.b_val
        if o == "nop":
            return 0
        return execute_alu(inst, op.a_val, b)

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        shared: OoOShared = self.p["shared"]
        holding_ready = self._op is not None and self.now >= self._ready_at
        if holding_ready:
            op = self._op
            if not self._computed:
                self._computed = True
                op.result = self._compute(op)
                # Publish eagerly so same-cycle dispatchers see it.
                if op.kind == "alu":
                    shared.cdb_values[op.seq] = op.result
                elif op.kind == "branch":
                    shared.branch_targets[op.seq] = op.result[0]
            wakes = op.kind == "alu"
            out.send(0, CDBMsg(op.seq, op.result if wakes else None,
                               wakes=wakes))
        else:
            out.send_nothing(0)
        inp.set_ack(0, self._op is None)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        if self._op is not None and out.took(0):
            self.collect("executed")
            self._op = None
            self._computed = False
        elif self._op is not None:
            self.collect("busy_cycles")
        if inp.took(0):
            op: MicroOp = inp.value(0)
            self._op = op
            self._computed = False
            latency_of = self.p["latency_of"]
            latency = latency_of(op.inst) if latency_of else 1
            self._ready_at = self.now + max(1, latency)


class CommitUnit(LeafModule):
    """In-order retirement: architectural writes, memory at commit.

    Loads execute here (read issued through ``dmem``; the returned
    value is written to the architectural register, recorded in the
    value store, and re-broadcast on ``wake`` so window dependants see
    it).  Stores execute here too — trivially correct ordering.

    Statistics: ``committed``, ``loads``, ``stores``.
    """

    PARAMS = (
        Parameter("shared", None),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("dmem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("dmem_resp", INPUT, min_width=1, max_width=1),
        PortDecl("wake", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self._op: Optional[MicroOp] = None
        self._state = "idle"   # idle | issue | wait
        self._wake_msg: Optional[CDBMsg] = None

    def react(self) -> None:
        inp = self.io_in
        dmem_req = self.io_dmem_req
        wake = self.io_wake
        self.io_dmem_resp.set_ack(0, True)
        inp.set_ack(0, self._op is None)
        if self._state == "issue":
            op = self._op
            if op.kind == "load":
                dmem_req.send(0, MemRequest("read", op.result, tag=op.seq))
            else:
                addr, data = op.result
                dmem_req.send(0, MemRequest("write", addr, value=data,
                                            tag=op.seq))
        else:
            dmem_req.send_nothing(0)
        if self._wake_msg is not None:
            wake.send(0, self._wake_msg)
        else:
            wake.send_nothing(0)

    def _retire(self, op: MicroOp, value: Any) -> None:
        shared: OoOShared = self.p["shared"]
        if op.dest is not None:
            shared.regs[op.dest] = int(value)
            if shared.tags.get(op.dest) == op.seq:
                del shared.tags[op.dest]
        shared.committed += 1
        self.collect("committed")
        if op.kind == "halt":
            shared.halted = True
            shared.halted_at = self.now
        self._op = None
        self._state = "idle"

    def update(self) -> None:
        inp = self.io_in
        dmem_req = self.io_dmem_req
        dmem_resp = self.io_dmem_resp
        wake = self.io_wake
        shared: OoOShared = self.p["shared"]

        if self._wake_msg is not None and wake.took(0):
            self._wake_msg = None
        if self._state == "issue" and dmem_req.took(0):
            self._state = "wait"
        if self._state == "wait" and dmem_resp.took(0):
            response: MemResponse = dmem_resp.value(0)
            op = self._op
            if op.kind == "load":
                self.collect("loads")
                value = int(response.value or 0)
                shared.cdb_values[op.seq] = value
                self._wake_msg = CDBMsg(op.seq, value)
                self._retire(op, value)
            else:
                self.collect("stores")
                self._retire(op, None)
        if self._op is None and inp.took(0):
            op: MicroOp = inp.value(0)
            self._op = op
            if op.kind in ("load", "store"):
                self._state = "issue"
            else:
                value = op.result
                if op.kind == "branch":
                    # jalr carries its link value in result[1]; make it
                    # visible to dependants before retiring.
                    value = op.result[1]
                    if op.dest is not None:
                        shared.cdb_values[op.seq] = value
                        self._wake_msg = CDBMsg(op.seq, value)
                elif op.kind == "halt":
                    value = 0
                self._retire(op, 0 if value is None else value)


def _wakeup(buffer: Buffer, msg: CDBMsg) -> None:
    """Window update handler: fill matching operand tags."""
    if not msg.wakes:
        return
    for entry in buffer.entries:
        op: MicroOp = entry.value
        if op.a_tag == msg.seq:
            op.a_tag = None
            op.a_val = msg.value
        if op.b_tag == msg.seq:
            op.b_tag = None
            op.b_val = msg.value


def _capture_on_insert(shared: OoOShared):
    """Window insert handler: close the dispatch/broadcast race.

    A producer may compute (publishing to ``cdb_values``) in the same
    timestep its consumer is inserted — the consumer then misses the
    CDB broadcast, so re-check the value store on insertion.
    """

    def on_insert(buffer: Buffer, entry) -> None:
        op: MicroOp = entry.value
        if op.a_tag is not None and op.a_tag in shared.cdb_values:
            op.a_val = shared.cdb_values[op.a_tag]
            op.a_tag = None
        if op.b_tag is not None and op.b_tag in shared.cdb_values:
            op.b_val = shared.cdb_values[op.b_tag]
            op.b_tag = None

    return on_insert


def _mark_done(buffer: Buffer, msg: CDBMsg) -> None:
    """ROB update handler: completion marking for in-order commit."""
    for entry in buffer.entries:
        if entry.value.seq == msg.seq:
            entry.meta["done"] = True
            return


def _window_ready(entry) -> bool:
    return entry.value.ready


class OoOCore(HierTemplate):
    """The assembled out-of-order core (see module docstring).

    Parameters
    ----------
    program:
        The :class:`~repro.upl.isa.Program` to run (no ``ecall``).
    window_depth, rob_depth:
        Capacities of the two Buffer instantiations.
    n_alu:
        Parallel execution units (the ILP knob).
    latency_of:
        Optional per-instruction execute latency.
    shared_out:
        One-element list receiving the :class:`OoOShared` (halt state,
        architectural registers).

    Exported ports: ``dmem_req``/``dmem_resp``.
    """

    PARAMS = (
        Parameter("program", None),
        Parameter("window_depth", 8, validate=lambda v: v >= 1),
        Parameter("rob_depth", 16, validate=lambda v: v >= 1),
        Parameter("n_alu", 1, validate=lambda v: v >= 1),
        Parameter("latency_of", None),
        Parameter("shared_out", None),
    )
    PORTS = (
        PortDecl("dmem_req", OUTPUT),
        PortDecl("dmem_resp", INPUT),
    )

    def build(self, body: HierBody, p: Dict) -> None:
        shared = OoOShared()
        if p["shared_out"] is not None:
            p["shared_out"].append(shared)

        dispatch = body.instance("dispatch", Dispatch, program=p["program"],
                                 shared=shared)
        alloc = body.instance("alloc", Tee, mode="all")
        window = body.instance("window", Buffer, depth=p["window_depth"],
                               select_policy=ready_policy(_window_ready),
                               on_update=_wakeup,
                               on_insert=_capture_on_insert(shared))
        rob = body.instance("rob", Buffer, depth=p["rob_depth"],
                            select_policy=in_order_completion_policy(),
                            on_update=_mark_done)
        cdb_merge = body.instance("cdb_merge", Arbiter, policy=round_robin)
        cdb = body.instance("cdb", Tee, mode="all")
        commit = body.instance("commit", CommitUnit, shared=shared)

        body.connect(dispatch.port("out"), alloc.port("in"))
        body.connect(alloc.port("out"), window.port("in"))
        body.connect(alloc.port("out"), rob.port("in"))
        for k in range(p["n_alu"]):
            alu = body.instance(f"alu{k}", ALUUnit, shared=shared,
                                latency_of=p["latency_of"])
            body.connect(window.port("out", k), alu.port("in"))
            body.connect(alu.port("out"), cdb_merge.port("in", k))
        body.connect(cdb_merge.port("out"), cdb.port("in"))
        body.connect(cdb.port("out"), window.port("upd"))
        body.connect(cdb.port("out"), rob.port("upd"))
        body.connect(rob.port("out", 0), commit.port("in"))
        body.connect(commit.port("wake"), window.port("upd"))
        body.export("dmem_req", commit, "dmem_req")
        body.export("dmem_resp", commit, "dmem_resp")
