"""Bus-based snooping cache coherence (MPL §3.4: "pluggable cache
coherence controllers including bus-based snooping for small scale
multiprocessors").

The protocol is the classic **write-through write-invalidate** scheme
over an atomic broadcast bus:

* every write is posted on the bus; the memory controller applies it
  and every other cache invalidates its copy — the bus is the
  serialization point, so the system is sequentially consistent;
* a write completes (the CPU gets its response) only when the writing
  cache *snoops its own transaction*, i.e. when the write is globally
  visible;
* read misses post a ``rd`` transaction; the memory controller answers
  over a routed response path.

The bus itself is the CCL :class:`~repro.ccl.bus.Bus` in broadcast
mode — cross-library composition with no adaptation, per §2.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..ccl.packet import BusTransaction
from ..pcl.memory import MemRequest, MemResponse


class CoherentOp:
    """Payload of a coherence bus transaction."""

    __slots__ = ("kind", "addr", "value", "tag")

    def __init__(self, kind: str, addr: int, value: Any = None,
                 tag: Any = None):
        self.kind = kind          # 'rd' | 'wr'
        self.addr = addr
        self.value = value
        self.tag = tag

    def __repr__(self) -> str:
        return f"CoherentOp({self.kind} @{self.addr})"


class SnoopingCache(LeafModule):
    """One core's coherent write-through cache.

    Direct-mapped, one-word blocks (invalidation granularity = word).

    Ports
    -----
    ``cpu_req``/``cpu_resp``:
        The attached processor's memory interface
        (:class:`~repro.pcl.memory.MemRequest` transactions).
    ``bus_req``:
        Transactions posted to the broadcast bus arbiter.
    ``snoop``:
        The bus broadcast (every transaction by every cache).
    ``mem_resp``:
        Routed read responses from the memory controller.

    Parameters: ``lines`` (direct-mapped size), ``idx`` (this cache's
    bus initiator index), ``hit_latency``.

    Statistics: ``read_hits``, ``read_misses``, ``writes``,
    ``invalidations_in``, ``self_snoops``.
    """

    PARAMS = (
        Parameter("lines", 64, validate=lambda v: v >= 1),
        Parameter("idx", 0),
        Parameter("hit_latency", 1, validate=lambda v: v >= 1),
    )
    PORTS = (
        PortDecl("cpu_req", INPUT, min_width=1, max_width=1),
        PortDecl("cpu_resp", OUTPUT, min_width=1, max_width=1),
        PortDecl("bus_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("snoop", INPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        lines = self.p["lines"]
        self._valid = [False] * lines
        self._tags = [0] * lines
        self._data: List[Any] = [0] * lines
        self._busy: Optional[MemRequest] = None
        self._bus_op: Optional[BusTransaction] = None
        self._bus_posted = False
        self._resp: Optional[MemResponse] = None
        self._resp_at = -1
        self._waiting = None  # 'mem' | 'self_snoop' | None

    # -- cache array helpers ------------------------------------------------
    def _line(self, addr: int) -> int:
        return addr % self.p["lines"]

    def _lookup(self, addr: int) -> Optional[Any]:
        line = self._line(addr)
        if self._valid[line] and self._tags[line] == addr:
            return self._data[line]
        return None

    def _fill(self, addr: int, value: Any) -> None:
        line = self._line(addr)
        self._valid[line] = True
        self._tags[line] = addr
        self._data[line] = value

    def _invalidate(self, addr: int) -> bool:
        line = self._line(addr)
        if self._valid[line] and self._tags[line] == addr:
            self._valid[line] = False
            return True
        return False

    # -- reactive interface ---------------------------------------------------
    def react(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        bus_req = self.io_bus_req
        self.io_snoop.set_ack(0, True)
        self.io_mem_resp.set_ack(0, True)
        cpu_req.set_ack(0, self._busy is None)
        if self._resp is not None and self.now >= self._resp_at:
            cpu_resp.send(0, self._resp)
        else:
            cpu_resp.send_nothing(0)
        if self._bus_op is not None and not self._bus_posted:
            bus_req.send(0, self._bus_op)
        else:
            bus_req.send_nothing(0)

    def update(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        bus_req = self.io_bus_req
        snoop = self.io_snoop
        mem_resp = self.io_mem_resp

        if self._resp is not None and cpu_resp.took(0):
            self._resp = None
            self._busy = None

        if self._bus_op is not None and bus_req.took(0):
            self._bus_posted = True

        # Snoop the broadcast: invalidate on foreign writes; complete
        # our own pending write at its serialization point.
        if snoop.took(0):
            txn: BusTransaction = snoop.value(0)
            op: CoherentOp = txn.payload
            if op.kind == "wr":
                if txn.initiator != self.p["idx"]:
                    if self._invalidate(op.addr):
                        self.collect("invalidations_in")
                else:
                    self.collect("self_snoops")
                    if (self._waiting == "self_snoop"
                            and self._busy is not None
                            and op.addr == self._busy.addr):
                        # Write is globally visible: update our copy and
                        # answer the CPU.
                        self._fill(op.addr, op.value)
                        self._finish(MemResponse("write", op.addr, op.value,
                                                 self._busy.tag))

        if mem_resp.took(0) and self._waiting == "mem":
            response: MemResponse = mem_resp.value(0)
            if self._busy is not None and response.addr == self._busy.addr:
                self._fill(response.addr, response.value)
                self._finish(MemResponse("read", response.addr,
                                         response.value, self._busy.tag))

        if self._busy is None and cpu_req.took(0):
            self._accept(cpu_req.value(0))

    def _finish(self, response: MemResponse) -> None:
        self._resp = response
        self._resp_at = self.now + 1
        self._bus_op = None
        self._bus_posted = False
        self._waiting = None

    def _accept(self, request: MemRequest) -> None:
        self._busy = request
        if request.op == "read":
            value = self._lookup(request.addr)
            if value is not None:
                self.collect("read_hits")
                self._resp = MemResponse("read", request.addr, value,
                                         request.tag)
                self._resp_at = self.now + self.p["hit_latency"]
                return
            self.collect("read_misses")
            self._bus_op = BusTransaction(
                self.p["idx"], None,
                CoherentOp("rd", request.addr, tag=self.p["idx"]),
                created=self.now)
            self._bus_posted = False
            self._waiting = "mem"
        else:
            self.collect("writes")
            self._bus_op = BusTransaction(
                self.p["idx"], None,
                CoherentOp("wr", request.addr, request.value,
                           tag=self.p["idx"]),
                created=self.now)
            self._bus_posted = False
            self._waiting = "self_snoop"


class BusMemoryController(LeafModule):
    """The memory side of the snooping bus.

    Snoops every transaction: applies writes to backing storage and
    answers reads over per-cache routed response wires (``resp`` output
    index = initiator index).

    Parameters: ``latency`` (memory access time), ``init`` (initial
    contents).

    Statistics: ``reads``, ``writes``.
    """

    PARAMS = (
        Parameter("latency", 4, validate=lambda v: v >= 1),
        Parameter("init", None),
    )
    PORTS = (
        PortDecl("snoop", INPUT, min_width=1, max_width=1),
        PortDecl("resp", OUTPUT, min_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        initial = self.p["init"]
        self.data: Dict[int, Any] = dict(initial) if initial else {}
        self._pending: Deque[Tuple[int, int, MemResponse]] = deque()
        # (ready_cycle, initiator, response)

    def react(self) -> None:
        self.io_snoop.set_ack(0, True)
        resp = self.io_resp
        heads: Dict[int, MemResponse] = {}
        for ready, who, response in self._pending:
            if ready <= self.now and who not in heads:
                heads[who] = response
        for i in range(resp.width):
            if i in heads:
                resp.send(i, heads[i])
            else:
                resp.send_nothing(i)

    def update(self) -> None:
        snoop = self.io_snoop
        resp = self.io_resp
        delivered = []
        heads: Dict[int, MemResponse] = {}
        for entry in self._pending:
            ready, who, response = entry
            if ready <= self.now and who not in heads:
                heads[who] = response
                if who < resp.width and resp.took(who):
                    delivered.append(entry)
        for entry in delivered:
            self._pending.remove(entry)
        if snoop.took(0):
            txn: BusTransaction = snoop.value(0)
            op: CoherentOp = txn.payload
            if op.kind == "wr":
                self.data[op.addr] = op.value
                self.collect("writes")
            else:
                self.collect("reads")
                response = MemResponse("read", op.addr,
                                       self.data.get(op.addr, 0), op.tag)
                self._pending.append(
                    (self.now + self.p["latency"], txn.initiator, response))

    # Direct access (tests) -------------------------------------------------
    def peek(self, addr: int) -> Any:
        return self.data.get(addr, 0)

    def poke(self, addr: int, value: Any) -> None:
        self.data[addr] = value
