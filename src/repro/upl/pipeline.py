"""A structural in-order pipelined LibertyRISC processor (UPL §3.2).

Five stage modules — :class:`ProgFetch`, :class:`DecodeStage`,
:class:`ExecuteStage`, :class:`MemStage`, :class:`WriteBack` — connected
through :class:`~repro.pcl.queue.PipelineReg` latches, with a
:class:`~repro.upl.regfile.RegFile` scoreboard and a pluggable branch
predictor (an algorithmic parameter).  The assembled processor is the
:class:`InOrderPipeline` hierarchical template, whose data-memory ports
are exported so any memory hierarchy (a raw
:class:`~repro.pcl.memory.MemoryArray`, a cache stack, a bus, a NoC)
can be attached *outside* the template — the paper's iterative
refinement story (§2.2) in action.

Speculation model: fetch follows the predictor; executes resolve
branches and send a redirect that bumps the shared *epoch*; uops
carrying a stale epoch are squashed at decode/execute entry.  Because
the pipeline is in-order, nothing younger than an unresolved branch can
pass execute, so wrong-path operations never reach memory.
"""

from __future__ import annotations

import copy
import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from ..core import (HierBody, HierTemplate, LeafModule, Parameter, PortDecl,
                    INPUT, OUTPUT, ack, fwd)
from ..pcl.memory import MemRequest, MemResponse
from ..pcl.queue import PipelineReg
from .emulator import branch_taken, execute_alu
from .isa import Instruction, Program
from .predictors import StaticPredictor
from .regfile import ReadReq, ReadResp, RegFile


class PipelineShared:
    """State shared by the stages of one pipeline instance.

    ``epoch`` is the current fetch generation (bumped by redirects);
    ``halted`` is set by writeback upon retiring ``halt``; ``syscall``
    handles ``ecall`` (same signature as the emulator hook).

    The object reaches the stages as the ``shared`` parameter, which
    engine checkpoints otherwise leave alone; ``state_dict`` and
    ``load_state_dict`` make its run state (everything but the
    ``syscall`` configuration) checkpointed state, restored in place so
    every stage and the caller's handle see the restored run.
    """

    #: The run state a checkpoint carries.
    _STATE = ("epoch", "halted", "halted_at", "retired", "squash_log")

    def __init__(self, syscall: Optional[Callable] = None):
        self.epoch = 0
        self.halted = False
        self.halted_at: Optional[int] = None
        self.retired = 0
        self.syscall = syscall
        #: Sequence numbers of redirecting branches, in order.  The
        #: register file consumes this log to release scoreboard claims
        #: made by squashed (younger-than-the-branch) instructions.
        self.squash_log: list = []

    def state_dict(self) -> Dict[str, Any]:
        return copy.deepcopy({name: getattr(self, name)
                              for name in self._STATE})

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        for name in self._STATE:
            setattr(self, name, copy.deepcopy(state[name]))


class Uop(object):
    """A micro-op token flowing down the pipeline."""

    __slots__ = ("seq", "epoch", "pc", "inst", "pred_next",
                 "a", "b", "result", "dest", "actual_next")

    def __init__(self, seq: int, epoch: int, pc: int, inst: Instruction,
                 pred_next: int):
        self.seq = seq
        self.epoch = epoch
        self.pc = pc
        self.inst = inst
        self.pred_next = pred_next
        self.a = 0
        self.b = 0
        self.result: Optional[int] = None
        self.dest: Optional[int] = None
        self.actual_next: Optional[int] = None

    def __repr__(self) -> str:
        return f"Uop(#{self.seq}@{self.pc} {self.inst!r} e{self.epoch})"


class ProgFetch(LeafModule):
    """Fetch stage: follows the branch predictor through the program.

    Parameters
    ----------
    program:
        The :class:`~repro.upl.isa.Program` to execute (a perfect I-ROM;
        an I-cache refinement would replace this with port-based fetch).
    predictor:
        Algorithmic: the branch predictor object (``predict``/``train``).
    shared:
        The :class:`PipelineShared` of this pipeline.
    start_pc:
        Initial fetch address.

    Statistics: ``fetched``, ``redirects``, ``idle_cycles``.
    """

    PARAMS = (
        Parameter("program", None),
        Parameter("predictor", None),
        Parameter("shared", None),
        Parameter("start_pc", 0),
    )
    PORTS = (
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
        PortDecl("redirect", INPUT, min_width=1, max_width=1,
                 doc="(new_epoch_target) redirects from execute"),
    )
    DEPS = {}

    def init(self) -> None:
        self.pc = self.p["start_pc"]
        self._seq = itertools.count()
        self._stopped = False
        self._uop: Optional[Uop] = None

    def _prepare(self) -> None:
        shared: PipelineShared = self.p["shared"]
        program: Program = self.p["program"]
        if (self._uop is not None or self._stopped or shared.halted
                or not 0 <= self.pc < len(program.insts)):
            return
        inst = program.insts[self.pc]
        pred_next = self.p["predictor"].predict(self.pc, inst)
        self._uop = Uop(next(self._seq), shared.epoch, self.pc, inst,
                        pred_next)

    def react(self) -> None:
        self.io_redirect.set_ack(0, True)
        self._prepare()
        out = self.io_out
        if self._uop is not None:
            out.send(0, self._uop)
        else:
            out.send_nothing(0)

    def update(self) -> None:
        out = self.io_out
        redirect = self.io_redirect
        if self._uop is not None and out.took(0):
            self.collect("fetched")
            if self._uop.inst.op == "halt":
                self._stopped = True
            self.pc = self._uop.pred_next
            self._uop = None
        elif self._uop is None:
            self.collect("idle_cycles")
        if redirect.took(0):
            target, branch_seq = redirect.value(0)
            shared: PipelineShared = self.p["shared"]
            shared.epoch += 1
            shared.squash_log.append(branch_seq)
            self.pc = target
            self._stopped = False
            self._uop = None  # discard any wrong-path uop in flight
            self.collect("redirects")


class DecodeStage(LeafModule):
    """Decode + operand read + scoreboard claim.

    Reads operands combinationally from the register file; stalls while
    any source register is claimed by an in-flight producer; claims its
    own destination as the uop issues.  Stale-epoch uops are swallowed.

    Statistics: ``decoded``, ``squashed``, ``operand_stalls``.
    """

    PARAMS = (
        Parameter("shared", None),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
        PortDecl("rf_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("rf_resp", INPUT, min_width=1, max_width=1),
        PortDecl("claim", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("rf_req"): (fwd("in"),),
        fwd("out"): (fwd("in"), fwd("rf_resp")),
        fwd("claim"): (fwd("in"), fwd("rf_resp"), ack("out")),
        ack("in"): (fwd("in"), fwd("rf_resp"), ack("out")),
        ack("rf_resp"): (),
    }

    @staticmethod
    def _source_regs(inst: Instruction) -> Tuple[int, int]:
        if inst.op == "ecall":
            return (10, 17)
        return (inst.rs1, inst.rs2)

    @staticmethod
    def _dest_reg(inst: Instruction) -> Optional[int]:
        if inst.op == "ecall":
            return 10
        return inst.writes_reg

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        rf_req = self.io_rf_req
        rf_resp = self.io_rf_resp
        claim = self.io_claim
        rf_resp.set_ack(0, True)
        if not inp.known(0):
            return
        if not inp.present(0):
            rf_req.send_nothing(0)
            out.send_nothing(0)
            claim.send_nothing(0)
            inp.set_ack(0, False)
            return
        uop: Uop = inp.value(0)
        shared: PipelineShared = self.p["shared"]
        if uop.epoch < shared.epoch:
            # Wrong-path: swallow without side effects.
            rf_req.send_nothing(0)
            out.send_nothing(0)
            claim.send_nothing(0)
            inp.set_ack(0, True)
            return
        regs = self._source_regs(uop.inst)
        rf_req.send(0, ReadReq(regs, uop.epoch))
        if not rf_resp.known(0):
            return
        if not rf_resp.present(0):
            return  # register file has not answered (should not happen)
        resp: ReadResp = rf_resp.value(0)
        if not resp.ready:
            out.send_nothing(0)
            claim.send_nothing(0)
            inp.set_ack(0, False)
            return
        uop.a, uop.b = resp.values
        uop.dest = self._dest_reg(uop.inst)
        out.send(0, uop)
        if not out.ack_known(0):
            return
        accepted = out.accepted(0)
        inp.set_ack(0, accepted)
        if accepted and uop.dest is not None:
            claim.send(0, (uop.dest, uop.seq))
        else:
            claim.send_nothing(0)

    def update(self) -> None:
        inp = self.io_in
        if inp.took(0):
            uop: Uop = inp.value(0)
            if uop.epoch < self.p["shared"].epoch:
                self.collect("squashed")
            else:
                self.collect("decoded")
        elif inp.present(0):
            self.collect("operand_stalls")


class ExecuteStage(LeafModule):
    """Execute: ALU, branch resolution, predictor training, redirects.

    Holds one uop for ``latency_of(inst)`` cycles (default 1), then
    offers it downstream; resolving a mispredicted branch sends the
    correct target to fetch exactly once.  Stale uops are swallowed at
    entry.

    Statistics: ``executed``, ``squashed``, ``mispredicts``,
    ``branches``.
    """

    PARAMS = (
        Parameter("shared", None),
        Parameter("predictor", None,
                  doc="the pipeline's branch predictor (trained here)"),
        Parameter("latency_of", None,
                  doc="latency_of(inst) -> cycles (default: 1)"),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
        PortDecl("redirect", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("out"): (),
        fwd("redirect"): (),
        ack("in"): (fwd("in"), ack("out")),
    }

    def init(self) -> None:
        self._uop: Optional[Uop] = None
        self._ready_at = 0
        self._computed_seq = -1
        self._redirect_sent = -1

    # ------------------------------------------------------------------
    def _compute(self, uop: Uop) -> None:
        """Resolve the held uop (idempotent: once per seq)."""
        if self._computed_seq == uop.seq:
            return
        self._computed_seq = uop.seq
        inst = uop.inst
        op = inst.op
        shared: PipelineShared = self.p["shared"]
        uop.actual_next = uop.pc + 1
        if op in ("beq", "bne", "blt", "bge"):
            taken = branch_taken(inst, uop.a, uop.b)
            uop.actual_next = uop.pc + inst.imm if taken else uop.pc + 1
            self.collect("branches")
            predictor = self.p["predictor"]
            if predictor is not None:
                predictor.train(uop.pc, inst, taken, uop.pc + inst.imm)
        elif op == "jal":
            uop.result = uop.pc + 1
            uop.actual_next = uop.pc + inst.imm
        elif op == "jalr":
            uop.result = uop.pc + 1
            uop.actual_next = uop.a + inst.imm
        elif op == "ecall":
            handler = shared.syscall
            uop.result = handler(None, uop.b, uop.a) if handler else 0
        elif op in ("halt", "nop"):
            uop.result = None
        elif inst.is_load or inst.is_store:
            pass  # resolved in the memory stage
        else:
            imm_ops = ("addi", "andi", "ori", "xori", "slti", "slli",
                       "srli", "lui")
            b = inst.imm if op in imm_ops else uop.b
            uop.result = execute_alu(inst, uop.a, b)

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        redirect = self.io_redirect
        holding_ready = (self._uop is not None and self.now >= self._ready_at)
        if holding_ready:
            uop = self._uop
            self._compute(uop)
            out.send(0, uop)
            if uop.actual_next != uop.pred_next \
                    and self._redirect_sent != uop.seq:
                redirect.send(0, (uop.actual_next, uop.seq))
            else:
                redirect.send_nothing(0)
        else:
            out.send_nothing(0)
            redirect.send_nothing(0)
        # Input handling.
        if not inp.known(0):
            return
        if not inp.present(0):
            inp.set_ack(0, False)
            return
        incoming: Uop = inp.value(0)
        if incoming.epoch < self.p["shared"].epoch:
            inp.set_ack(0, True)  # swallow wrong-path
            return
        if self._uop is None:
            inp.set_ack(0, True)
        elif holding_ready:
            if out.ack_known(0):
                inp.set_ack(0, out.accepted(0))  # flow-through
            # else: wait for the downstream ack before deciding
        else:
            inp.set_ack(0, False)  # busy with a multi-cycle operation

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        redirect = self.io_redirect
        if self._uop is not None and out.took(0):
            self.collect("executed")
            self._uop = None
        if redirect.took(0):
            self.collect("mispredicts")
            self._redirect_sent = self._computed_seq
        if inp.took(0):
            incoming: Uop = inp.value(0)
            if incoming.epoch < self.p["shared"].epoch:
                self.collect("squashed")
            else:
                self._uop = incoming
                latency_of = self.p["latency_of"]
                latency = latency_of(incoming.inst) if latency_of else 1
                self._ready_at = self.now + max(1, latency)


class MemStage(LeafModule):
    """Memory stage: loads/stores via ``dmem_req``/``dmem_resp`` ports.

    Non-memory uops pass straight through (with flow-through input
    acks); memory uops block the stage until the response returns.

    Statistics: ``loads``, ``stores``, ``mem_wait_cycles``.
    """

    PARAMS = ()
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
        PortDecl("dmem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("dmem_resp", INPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("out"): (),
        fwd("dmem_req"): (),
        ack("in"): (fwd("in"), ack("out")),
        ack("dmem_resp"): (),
    }

    def init(self) -> None:
        self._uop: Optional[Uop] = None
        self._state = "idle"     # idle | issue | wait | done

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        dmem_req = self.io_dmem_req
        self.io_dmem_resp.set_ack(0, True)

        if self._state == "issue":
            uop = self._uop
            addr = uop.a + uop.inst.imm
            if uop.inst.is_load:
                dmem_req.send(0, MemRequest("read", addr, tag=uop.seq))
            else:
                dmem_req.send(0, MemRequest("write", addr, value=uop.b,
                                            tag=uop.seq))
        else:
            dmem_req.send_nothing(0)

        if self._state == "done":
            out.send(0, self._uop)
        else:
            out.send_nothing(0)

        if not inp.known(0):
            return
        if not inp.present(0):
            inp.set_ack(0, False)
            return
        if self._state == "idle":
            inp.set_ack(0, True)
        elif self._state == "done":
            if out.ack_known(0):
                inp.set_ack(0, out.accepted(0))  # flow-through
            # else: wait for the downstream ack before deciding
        else:
            inp.set_ack(0, False)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        dmem_req = self.io_dmem_req
        dmem_resp = self.io_dmem_resp

        if self._state == "done" and out.took(0):
            self._uop = None
            self._state = "idle"
        if self._state == "issue" and dmem_req.took(0):
            self._state = "wait"
        if self._state == "wait":
            if dmem_resp.took(0):
                response: MemResponse = dmem_resp.value(0)
                uop = self._uop
                if uop.inst.is_load:
                    uop.result = int(response.value or 0)
                    self.collect("loads")
                else:
                    self.collect("stores")
                self._state = "done"
            else:
                self.collect("mem_wait_cycles")
        if inp.took(0):
            uop: Uop = inp.value(0)
            self._uop = uop
            self._state = "issue" if uop.inst.is_mem else "done"


class WriteBack(LeafModule):
    """Writeback/retire: updates the register file, retires, halts.

    Statistics: ``retired``; sets ``shared.halted`` on ``halt``.
    """

    PARAMS = (
        Parameter("shared", None),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("wr", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("wr"): (fwd("in"),),
        ack("in"): (fwd("in"), ack("wr")),
    }

    def react(self) -> None:
        inp = self.io_in
        wr = self.io_wr
        if not inp.known(0):
            return
        if not inp.present(0):
            wr.send_nothing(0)
            inp.set_ack(0, False)
            return
        uop: Uop = inp.value(0)
        if uop.dest is not None and uop.result is not None:
            wr.send(0, (uop.dest, uop.result, uop.seq))
            if wr.ack_known(0):
                inp.set_ack(0, wr.accepted(0))
        else:
            wr.send_nothing(0)
            inp.set_ack(0, True)

    def update(self) -> None:
        inp = self.io_in
        if inp.took(0):
            uop: Uop = inp.value(0)
            self.collect("retired")
            shared: PipelineShared = self.p["shared"]
            shared.retired += 1
            if uop.inst.op == "halt":
                shared.halted = True
                shared.halted_at = self.now


class InOrderPipeline(HierTemplate):
    """The assembled five-stage processor (a hierarchical template).

    Parameters
    ----------
    program:
        :class:`~repro.upl.isa.Program` to run.
    predictor_factory:
        Algorithmic: zero-argument callable producing the branch
        predictor (default: not-taken :class:`StaticPredictor`).
    latency_of:
        Optional per-instruction execute latency function.
    syscall:
        ``ecall`` handler.
    shared_out:
        Optional one-element list; the created :class:`PipelineShared`
        is appended so the caller can observe halt/retire state.

    Exported ports: ``dmem_req`` (output) and ``dmem_resp`` (input) —
    attach any memory system.
    """

    PARAMS = (
        Parameter("program", None),
        Parameter("predictor_factory", None),
        Parameter("latency_of", None),
        Parameter("syscall", None),
        Parameter("shared_out", None),
    )
    PORTS = (
        PortDecl("dmem_req", OUTPUT),
        PortDecl("dmem_resp", INPUT),
    )

    def build(self, body: HierBody, p: dict) -> None:
        shared = PipelineShared(syscall=p["syscall"])
        if p["shared_out"] is not None:
            p["shared_out"].append(shared)
        factory = p["predictor_factory"] or (lambda: StaticPredictor(False))
        predictor = factory()

        fetch = body.instance("fetch", ProgFetch, program=p["program"],
                              predictor=predictor, shared=shared)
        f2d = body.instance("f2d", PipelineReg)
        dec = body.instance("decode", DecodeStage, shared=shared)
        d2x = body.instance("d2x", PipelineReg)
        ex = body.instance("execute", ExecuteStage, shared=shared,
                           predictor=predictor, latency_of=p["latency_of"])
        x2m = body.instance("x2m", PipelineReg)
        mem = body.instance("mem", MemStage)
        m2w = body.instance("m2w", PipelineReg)
        wb = body.instance("wb", WriteBack, shared=shared)
        rf = body.instance("rf", RegFile, shared=shared)

        body.connect(fetch.port("out"), f2d.port("in"))
        body.connect(f2d.port("out"), dec.port("in"))
        body.connect(dec.port("rf_req"), rf.port("rd_req"))
        body.connect(rf.port("rd_resp"), dec.port("rf_resp"))
        body.connect(dec.port("claim"), rf.port("claim"))
        body.connect(dec.port("out"), d2x.port("in"))
        body.connect(d2x.port("out"), ex.port("in"))
        body.connect(ex.port("redirect"), fetch.port("redirect"))
        body.connect(ex.port("out"), x2m.port("in"))
        body.connect(x2m.port("out"), mem.port("in"))
        body.connect(mem.port("out"), m2w.port("in"))
        body.connect(m2w.port("out"), wb.port("in"))
        body.connect(wb.port("wr"), rf.port("wr"))

        body.export("dmem_req", mem, "dmem_req")
        body.export("dmem_resp", mem, "dmem_resp")
