"""Architectural register file with scoreboard (UPL §3.2).

:class:`RegFile` serves combinational read requests, accepts writeback
writes and issue-time *claims* (scoreboard pending bits).  The
scoreboard is what stalls dependent instructions in the in-order
pipeline: a read response reports ``ready=False`` while any in-flight
producer has the register claimed.

Wrong-path recovery: claims are tagged with the claiming uop's
*sequence number*.  When a branch redirects, fetch appends the branch's
sequence number to the pipeline's shared ``squash_log``; the register
file consumes the log and releases every claim made by a younger
(squashed) instruction.  This is precise: claims by the branch itself
and by older instructions survive.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT, ack, fwd
from .isa import NUM_REGS, to_signed32


class ReadReq:
    """Read request: fetch epoch plus the register numbers to read."""

    __slots__ = ("regs", "epoch")

    def __init__(self, regs: Tuple[int, ...], epoch: int):
        self.regs = regs
        self.epoch = epoch

    def __eq__(self, other) -> bool:
        return (isinstance(other, ReadReq) and self.regs == other.regs
                and self.epoch == other.epoch)

    def __hash__(self) -> int:
        return hash((self.regs, self.epoch))


class ReadResp:
    """Read response: values in request order plus scoreboard readiness."""

    __slots__ = ("values", "ready")

    def __init__(self, values: Tuple[int, ...], ready: bool):
        self.values = values
        self.ready = ready

    def __eq__(self, other) -> bool:
        return (isinstance(other, ReadResp) and self.values == other.values
                and self.ready == other.ready)

    def __hash__(self) -> int:
        return hash((self.values, self.ready))


class RegFile(LeafModule):
    """Register file + scoreboard serving the structural pipeline.

    Ports
    -----
    ``rd_req`` / ``rd_resp`` (paired by index):
        Combinational read: a :class:`ReadReq` in produces a
        :class:`ReadResp` out in the same timestep.
    ``wr``:
        Writeback: ``(reg, value, seq)`` tuples; clears the matching
        claim.
    ``claim``:
        Issue-time scoreboard claims: ``(reg, seq)`` tuples.

    Parameters
    ----------
    shared:
        The pipeline's shared-state object (exposes ``squash_log``).

    Statistics: ``reads``, ``writes``, ``claims``, ``stall_reads``,
    ``squash_releases``.
    """

    PARAMS = (
        Parameter("shared", None, doc="PipelineShared for squash visibility"),
    )
    PORTS = (
        PortDecl("rd_req", INPUT, min_width=1),
        PortDecl("rd_resp", OUTPUT, min_width=1),
        PortDecl("wr", INPUT, min_width=1),
        PortDecl("claim", INPUT, min_width=1),
    )
    DEPS = {
        fwd("rd_resp"): (fwd("rd_req"),),
        ack("rd_req"): (fwd("rd_req"),),
        ack("wr"): (),
        ack("claim"): (),
    }

    def init(self) -> None:
        self.regs: List[int] = [0] * NUM_REGS
        self.claims: List[Tuple[int, int]] = []  # (reg, claiming seq)
        self._squash_pos = 0

    # -- direct access (tests, final-state comparison) ---------------------
    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.regs[index]

    def write_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = to_signed32(value)

    def _pending(self, reg: int) -> bool:
        return any(r == reg for r, _ in self.claims)

    # -- reactive interface --------------------------------------------------
    def react(self) -> None:
        rd_req = self.io_rd_req
        rd_resp = self.io_rd_resp
        wr = self.io_wr
        claim = self.io_claim
        for i in range(wr.width):
            wr.set_ack(i, True)
        for i in range(claim.width):
            claim.set_ack(i, True)
        for i in range(rd_req.width):
            if not rd_req.known(i):
                continue
            rd_req.set_ack(i, True)
            if i >= rd_resp.width:
                continue
            if rd_req.present(i):
                request: ReadReq = rd_req.value(i)
                ready = not any(self._pending(r) for r in request.regs if r)
                values = tuple(self.read_reg(r) for r in request.regs)
                rd_resp.send(i, ReadResp(values, ready))
            else:
                rd_resp.send_nothing(i)

    def update(self) -> None:
        wr = self.io_wr
        claim = self.io_claim
        rd_req = self.io_rd_req
        for i in range(wr.width):
            if wr.took(i):
                reg, value, seq = wr.value(i)
                self.write_reg(reg, value)
                self.collect("writes")
                for j, (creg, cseq) in enumerate(self.claims):
                    if creg == reg and cseq == seq:
                        del self.claims[j]
                        break
        for i in range(claim.width):
            if claim.took(i):
                reg, seq = claim.value(i)
                if reg != 0:
                    self.claims.append((reg, seq))
                self.collect("claims")
        # Release claims made by squashed (younger-than-branch) uops.
        shared = self.p["shared"]
        if shared is not None:
            log = shared.squash_log
            while self._squash_pos < len(log):
                branch_seq = log[self._squash_pos]
                self._squash_pos += 1
                kept = [(r, s) for r, s in self.claims if s <= branch_seq]
                if len(kept) != len(self.claims):
                    self.collect("squash_releases",
                                 len(self.claims) - len(kept))
                    self.claims = kept
        for i in range(rd_req.width):
            if rd_req.took(i):
                self.collect("reads")
                request = rd_req.value(i)
                if any(self._pending(r) for r in request.regs if r):
                    self.collect("stall_reads")
