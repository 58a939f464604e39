"""SimpleCore — a port-structural LibertyRISC processor.

A multi-cycle, in-order core that executes the exact
:func:`repro.upl.emulator.begin`/:func:`~repro.upl.emulator.resume`
semantics, but satisfies every
memory operation through LSE ports: instruction fetches go out on
``imem_req``/``imem_resp`` and data accesses on ``dmem_req``/
``dmem_resp`` as :class:`~repro.pcl.memory.MemRequest` /
:class:`~repro.pcl.memory.MemResponse` transactions.  Attach the ports
to a :class:`~repro.pcl.memory.MemoryArray`, a cache, a bus, or a whole
network — the core neither knows nor cares, which is precisely the
composability the paper claims (§2).

Timing: each memory operation occupies the core until its response
returns, so IPC is set by the attached memory system.  This is the
"general-purpose processor (GP) module" used by the Figure-2 system
models; the pipelined core in :mod:`repro.upl.pipeline` refines it.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..pcl.memory import MemRequest
from .emulator import ArchState, OP_IFETCH, OP_READ, begin, resume
from .isa import Program


class SimpleCore(LeafModule):
    """In-order multi-cycle core with port-based memory interfaces.

    Parameters
    ----------
    program:
        Optional :class:`~repro.upl.isa.Program`; when given, fetches
        below the program length are satisfied *internally* (a perfect
        I-ROM) and only data accesses use the ports.  When ``None``,
        fetches also go through ``imem_req``/``imem_resp``.
    pc:
        Initial program counter.
    syscall:
        Environment-call hook ``syscall(state, num, arg) -> int``.
    halted_hook:
        Optional callback invoked once when the core halts.

    Statistics: ``retired``, ``fetches``, ``mem_reads``, ``mem_writes``,
    ``stall_cycles``, ``halted_at``.
    """

    PARAMS = (
        Parameter("program", None),
        Parameter("pc", 0),
        Parameter("syscall", None),
        Parameter("halted_hook", None),
    )
    PORTS = (
        PortDecl("imem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("imem_resp", INPUT, min_width=1, max_width=1),
        PortDecl("dmem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("dmem_resp", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self.state = ArchState(pc=self.p["pc"], syscall=self.p["syscall"])
        program: Optional[Program] = self.p["program"]
        self._irom = program.words() if program is not None else None
        #: The memory operation awaiting issue/response; None while no
        #: instruction is in flight.
        self._pending = None
        self._awaiting = False       # request issued, response outstanding
        self._halt_reported = False
        self._begin_instruction()

    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        return self.state.halted

    def _begin_instruction(self) -> None:
        """Surface the next instruction's fetch.

        At most one instruction begins per timestep, so ALU-only
        instructions retire at 1 IPC even with a perfect internal I-ROM.
        """
        if self.state.halted:
            self._pending = None
            return
        pc = self.state.pc
        self._pending = (OP_IFETCH, pc)
        # Serve I-ROM fetches internally when a program was supplied.
        if self._irom is not None and 0 <= pc < len(self._irom):
            self._feed(self._irom[pc])

    def _feed(self, value: Any) -> None:
        """Deliver the pending operation's result; handle retirement."""
        if self._pending[0] == OP_IFETCH:
            # Any data operation produced here must go to the ports.
            self._pending = begin(self.state, value)
        else:
            resume(self.state, value)
            self._pending = None
        if self._pending is None:
            self.collect("retired")
            if self.state.halted and not self._halt_reported:
                self._halt_reported = True
                self.collect("halted_at", self.now)
                hook = self.p["halted_hook"]
                if hook is not None:
                    hook(self)

    def _request_for(self, op) -> MemRequest:
        kind = op[0]
        if kind == OP_IFETCH:
            return MemRequest("read", op[1], tag=("ifetch", self.state.pc))
        if kind == OP_READ:
            return MemRequest("read", op[1], tag="data")
        return MemRequest("write", op[1], value=op[2], tag="data")

    def react(self) -> None:
        imem_req = self.io_imem_req
        dmem_req = self.io_dmem_req
        self.io_imem_resp.set_ack(0, True)
        self.io_dmem_resp.set_ack(0, True)
        want_imem = want_dmem = None
        if self._pending is not None and not self._awaiting:
            request = self._request_for(self._pending)
            if self._pending[0] == OP_IFETCH:
                want_imem = request
            else:
                want_dmem = request
        if want_imem is not None:
            imem_req.send(0, want_imem)
        else:
            imem_req.send_nothing(0)
        if want_dmem is not None:
            dmem_req.send(0, want_dmem)
        else:
            dmem_req.send_nothing(0)

    def update(self) -> None:
        imem_req = self.io_imem_req
        dmem_req = self.io_dmem_req
        imem_resp = self.io_imem_resp
        dmem_resp = self.io_dmem_resp

        if self._pending is not None and not self._awaiting:
            port = imem_req if self._pending[0] == OP_IFETCH else dmem_req
            if port.took(0):
                self._awaiting = True
                kind = self._pending[0]
                if kind == OP_IFETCH:
                    self.collect("fetches")
                elif kind == OP_READ:
                    self.collect("mem_reads")
                else:
                    self.collect("mem_writes")
            else:
                self.collect("stall_cycles")

        for resp_port in (imem_resp, dmem_resp):
            if resp_port.took(0) and self._awaiting:
                self._awaiting = False
                self._feed(resp_port.value(0).value)
                break

        # Begin the next instruction at the cycle boundary (1 IPC ceiling).
        if self._pending is None and not self.state.halted:
            self._begin_instruction()
