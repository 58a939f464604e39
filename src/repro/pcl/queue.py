"""FIFO queue, pipeline register, and fixed-delay line.

The queue is the paper's canonical memory-array-backed primitive: the
"basic buffering and queuing structures" reused across UPL, CCL and the
rest (§3.1, §3.2).  :class:`PipelineReg` is the standard full-throughput
pipeline latch (its input ack depends combinationally on its output
ack); :class:`Delay` models fixed-latency lossless links.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT, ack, fwd


class Queue(LeafModule):
    """A registered multi-port FIFO of bounded depth.

    Both the input acks (space-based) and the output offers (head
    entries) are functions of state at the start of the timestep, so the
    queue is a Moore machine (``DEPS = {}``) and breaks combinational
    scheduling cycles — one reason queues are ubiquitous glue.

    With ``in`` width *N*, up to ``free`` input indices are acknowledged
    each cycle in index order.  With ``out`` width *M*, the first *M*
    entries are offered, one per output index; entries leave
    independently as their index's transfer completes (a multi-ported
    FIFO head).

    Statistics: ``enqueued``, ``dequeued``, ``full_stalls``; histogram
    ``occupancy`` (sampled per cycle).
    """

    PARAMS = (
        Parameter("depth", 4, validate=lambda v: v >= 1),
        Parameter("sample_occupancy", False),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, doc="items to enqueue"),
        PortDecl("out", OUTPUT, min_width=1, doc="FIFO head(s)"),
    )
    DEPS = {}
    #: Vectorization introspection (see repro.core.vec.params_vectorize):
    #: depth may diverge per lane — the vec impl broadcasts it.
    VEC_LANE_PARAMS = ("depth",)

    def init(self) -> None:
        self.items: Deque[Any] = deque()

    @property
    def occupancy(self) -> int:
        return len(self.items)

    @property
    def free(self) -> int:
        return self.p["depth"] - len(self.items)

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        free = self.free
        for i in range(inp.width):
            inp.set_ack(i, i < free)
        for j in range(out.width):
            if j < len(self.items):
                out.send(j, self.items[j])
            else:
                out.send_nothing(j)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        # Remove accepted heads (collect indices first: deque mutation).
        taken = [j for j in range(out.width)
                 if j < len(self.items) and out.took(j)]
        for j in reversed(taken):
            del self.items[j]
            self.collect("dequeued")
        for i in range(inp.width):
            if inp.took(i):
                self.items.append(inp.value(i))
                self.collect("enqueued")
            elif inp.present(i):
                self.collect("full_stalls")
        if self.p["sample_occupancy"]:
            self.record("occupancy", len(self.items))


class PipelineReg(LeafModule):
    """A one-entry pipeline register with full-throughput flow control.

    Unlike :class:`Queue` (depth 1), a full register still accepts a new
    item in the same cycle its current item departs: its input ack is
    ``empty or output-accepted``, a combinational dependency on the
    downstream ack that is declared in ``DEPS`` so the optimizer can
    schedule it.

    Statistics: ``moved``, ``stalled``.
    """

    PARAMS = (
        Parameter("init_value", None, doc="optional initial occupant"),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {
        fwd("out"): (),                # offers current occupant (state)
        ack("in"): (ack("out"),),      # pass-through backpressure when full
    }

    def init(self) -> None:
        self.item = self.p["init_value"]

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        if self.item is not None:
            out.send(0, self.item)
            if out.ack_known(0):
                inp.set_ack(0, out.accepted(0))
        else:
            out.send_nothing(0)
            inp.set_ack(0, True)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        departed = self.item is not None and out.took(0)
        if departed:
            self.item = None
            self.collect("moved")
        elif self.item is not None and inp.present(0):
            self.collect("stalled")
        if inp.took(0):
            self.item = inp.value(0)


class Delay(LeafModule):
    """A fixed ``latency``-cycle delay line (e.g. a pipelined link).

    Always accepts input.  After ``latency`` cycles the item is offered
    downstream; if refused it waits in an (unbounded) exit backlog when
    ``drop=False`` or is discarded when ``drop=True``.

    Statistics: ``accepted``, ``delivered``, ``dropped``.
    """

    PARAMS = (
        Parameter("latency", 1, validate=lambda v: v >= 1),
        Parameter("drop", False),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}
    #: Both knobs broadcast per lane in the vectorized backend.
    VEC_LANE_PARAMS = ("latency", "drop")

    def init(self) -> None:
        self._inflight: List = []  # (ready_cycle, value)
        self._exit: Deque[Any] = deque()

    def react(self) -> None:
        self.io_in.set_ack(0, True)
        out = self.io_out
        if self._exit:
            out.send(0, self._exit[0])
        else:
            out.send_nothing(0)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        if self._exit and out.took(0):
            self._exit.popleft()
            self.collect("delivered")
        elif self._exit and self.p["drop"]:
            self._exit.popleft()
            self.collect("dropped")
        if inp.took(0):
            self._inflight.append((self.now + self.p["latency"], inp.value(0)))
            self.collect("accepted")
        due = [pair for pair in self._inflight if pair[0] <= self.now + 1]
        if due:
            self._inflight = [p for p in self._inflight if p[0] > self.now + 1]
            for _, value in due:
                self._exit.append(value)
