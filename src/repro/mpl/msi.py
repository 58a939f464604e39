"""Write-back MSI snooping coherence (MPL §3.4).

The second of MPL's "pluggable cache coherence controllers": the
classic three-state write-back invalidate protocol over the atomic
broadcast bus.  Compared to the write-through controller in
:mod:`repro.mpl.snoop`, a store that hits in **M** completes locally
with *zero* bus traffic — the protocol's whole point — while dirty
data is supplied to other caches by owner **Flush** transactions.

Bus transaction kinds (payload :class:`MSIOp`):

``rd``     read miss (BusRd) — requester wants a shared copy;
``rdx``    write miss / S→M upgrade (BusRdX) — requester wants
           exclusive ownership; every other cache invalidates;
``flush``  an M owner supplies (and writes back) its dirty line, in
           response to a foreign ``rd``/``rdx`` or on eviction.

The memory controller tracks the current owner from bus traffic alone
(every ``rdx`` names the new owner, every ``flush`` clears it) — the
message-level analogue of the wired-OR "dirty/inhibit" bus line real
snooping systems use to suppress the memory's stale response while an
owner intervenes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..ccl.packet import BusTransaction
from ..pcl.memory import MemRequest, MemResponse

M, S, I = "M", "S", "I"  # noqa: E741 -- the protocol state names


class MSIOp:
    """Payload of an MSI coherence bus transaction."""

    __slots__ = ("kind", "addr", "data")

    def __init__(self, kind: str, addr: int, data: Any = None):
        self.kind = kind          # 'rd' | 'rdx' | 'flush'
        self.addr = addr
        self.data = data

    def __repr__(self) -> str:
        return f"MSIOp({self.kind} @{self.addr})"


class MSICache(LeafModule):
    """One core's write-back MSI cache (direct-mapped, one-word lines).

    Ports are identical to :class:`~repro.mpl.snoop.SnoopingCache`
    (``cpu_req``/``cpu_resp``, ``bus_req``, ``snoop``, ``mem_resp``) —
    the two protocols really are plug-compatible.

    Statistics: ``read_hits``, ``write_hits_m`` (the silent-store win),
    ``read_misses``, ``write_misses``, ``upgrades``, ``flushes``,
    ``invalidations_in``, ``interventions`` (dirty data served to a
    peer).
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
        self._state = [I] * lines
        self._tags = [0] * lines
        self._data: List[Any] = [0] * lines
        self._busy: Optional[MemRequest] = None
        self._resp: Optional[MemResponse] = None
        self._resp_at = -1
        self._outbox: Deque[BusTransaction] = deque()
        # Miss-tracking: what the pending request still needs.
        self._need_data = False
        self._need_own_txn: Optional[str] = None  # 'rd'|'rdx' awaited
        self._got_data: Any = None
        # Fill-window races (a conflicting transaction serialized
        # between our bus grant and our data arrival):
        self._fill_poisoned = False      # read fill: deliver, then drop
        self._deferred: List[str] = []   # write fill: owner duties owed

    # -- line helpers ------------------------------------------------------
    def _line(self, addr: int) -> int:
        return addr % self.p["lines"]

    def _holds(self, addr: int) -> Optional[str]:
        line = self._line(addr)
        if self._state[line] != I and self._tags[line] == addr:
            return self._state[line]
        return None

    def _post(self, kind: str, addr: int, data: Any = None) -> None:
        self._outbox.append(BusTransaction(
            self.p["idx"], None, MSIOp(kind, addr, data), created=self.now))

    def _evict_if_needed(self, addr: int) -> None:
        line = self._line(addr)
        if self._state[line] == M and self._tags[line] != addr:
            self.collect("flushes")
            self._post("flush", self._tags[line], self._data[line])
            self._state[line] = I

    # -- reactive interface --------------------------------------------------
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
        if self._outbox:
            bus_req.send(0, self._outbox[0])
        else:
            bus_req.send_nothing(0)

    def _finish(self, response: MemResponse) -> None:
        self._resp = response
        self._resp_at = self.now + 1
        self._need_data = False
        self._need_own_txn = None
        self._got_data = None
        self._fill_poisoned = False
        self._deferred = []

    def _try_complete_miss(self) -> None:
        """Complete the pending miss once data + serialization arrived."""
        request = self._busy
        if request is None or self._need_own_txn is not None \
                or self._need_data:
            return
        line = self._line(request.addr)
        self._tags[line] = request.addr
        if request.op == "read":
            # A conflicting rdx serialized after our rd: the load still
            # returns the pre-write value (correctly ordered before the
            # write) but we must not retain a shared copy.
            self._state[line] = I if self._fill_poisoned else S
            self._data[line] = self._got_data
            self._finish(MemResponse("read", request.addr, self._got_data,
                                     request.tag))
        else:
            self._state[line] = M
            self._data[line] = request.value
            # Serve owner duties that accrued during our fill window.
            for kind in self._deferred:
                if self._state[line] == M:
                    self.collect("interventions")
                    self.collect("flushes")
                    self._post("flush", request.addr, self._data[line])
                    self._state[line] = S if kind == "rd" else I
                elif kind == "rdx" and self._state[line] == S:
                    self._state[line] = I
                    self.collect("invalidations_in")
            self._finish(MemResponse("write", request.addr, request.value,
                                     request.tag))

    def update(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        bus_req = self.io_bus_req
        snoop = self.io_snoop
        mem_resp = self.io_mem_resp

        if self._resp is not None and cpu_resp.took(0):
            self._resp = None
            self._busy = None
        if self._outbox and bus_req.took(0):
            self._outbox.popleft()

        if snoop.took(0):
            self._handle_snoop(snoop.value(0))
        if mem_resp.took(0) and self._need_data:
            response: MemResponse = mem_resp.value(0)
            if self._busy is not None and response.addr == self._busy.addr:
                self._got_data = response.value
                self._need_data = False
                self._try_complete_miss()
        if self._busy is None and cpu_req.took(0):
            self._accept(cpu_req.value(0))

    # -- protocol actions ------------------------------------------------------
    def _accept(self, request: MemRequest) -> None:
        self._busy = request
        state = self._holds(request.addr)
        if request.op == "read":
            if state in (M, S):
                self.collect("read_hits")
                line = self._line(request.addr)
                self._finish(MemResponse("read", request.addr,
                                         self._data[line], request.tag))
                self._resp_at = self.now + self.p["hit_latency"]
                return
            self.collect("read_misses")
            self._evict_if_needed(request.addr)
            self._post("rd", request.addr)
            self._need_data = True
            self._need_own_txn = "rd"
            return
        # write
        if state == M:
            self.collect("write_hits_m")
            line = self._line(request.addr)
            self._data[line] = request.value
            self._finish(MemResponse("write", request.addr, request.value,
                                     request.tag))
            self._resp_at = self.now + self.p["hit_latency"]
            return
        if state == S:
            self.collect("upgrades")
            self._post("rdx", request.addr)
            self._need_data = False          # we already hold the line
            self._need_own_txn = "rdx"
            return
        self.collect("write_misses")
        self._evict_if_needed(request.addr)
        self._post("rdx", request.addr)
        self._need_data = True
        self._need_own_txn = "rdx"

    def _handle_snoop(self, txn: BusTransaction) -> None:
        op: MSIOp = txn.payload
        mine = txn.initiator == self.p["idx"]
        line = self._line(op.addr)
        holds = self._holds(op.addr)

        if op.kind == "flush":
            # A peer's dirty data passing by: capture it if we wait.
            if not mine and self._need_data and self._busy is not None \
                    and op.addr == self._busy.addr:
                self._got_data = op.data
                self._need_data = False
                self._try_complete_miss()
            return

        if mine:
            # Our own rd/rdx reached the serialization point.
            if self._need_own_txn == op.kind and self._busy is not None \
                    and op.addr == self._busy.addr:
                self._need_own_txn = None
                self._try_complete_miss()
            return

        # Foreign rd/rdx against our in-flight fill of the same address
        # (our transaction already serialized, data still en route).
        if (self._busy is not None and op.addr == self._busy.addr
                and self._need_own_txn is None and self._resp is None
                and holds is None):
            if self._busy.op == "read":
                if op.kind == "rdx":
                    self._fill_poisoned = True
            else:
                # We are the owner-elect: owe a flush after completion.
                self._deferred.append(op.kind)
            return

        # Foreign rd/rdx.
        if holds == M:
            self.collect("interventions")
            self.collect("flushes")
            self._post("flush", op.addr, self._data[line])
            self._state[line] = S if op.kind == "rd" else I
            if op.kind == "rdx":
                self.collect("invalidations_in")
        elif holds == S and op.kind == "rdx":
            self._state[line] = I
            self.collect("invalidations_in")


class MSIMemoryController(LeafModule):
    """Memory side of the MSI bus: responder + owner tracking.

    Suppresses its (stale) response whenever a cache owns the line —
    the owner's ``flush`` both supplies the requester and writes the
    data back here.

    Statistics: ``reads``, ``suppressed``, ``writebacks``.
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
        self.owner: Dict[int, int] = {}
        self._pending: Deque[Tuple[int, int, MemResponse]] = deque()

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
        heads: Dict[int, Tuple] = {}
        for entry in self._pending:
            ready, who, _ = entry
            if ready <= self.now and who not in heads:
                heads[who] = entry
                if who < resp.width and resp.took(who):
                    delivered.append(entry)
        for entry in delivered:
            self._pending.remove(entry)
        if snoop.took(0):
            txn: BusTransaction = snoop.value(0)
            op: MSIOp = txn.payload
            if op.kind == "flush":
                self.collect("writebacks")
                self.data[op.addr] = op.data
                if self.owner.get(op.addr) == txn.initiator:
                    del self.owner[op.addr]
                return
            owner = self.owner.get(op.addr)
            if op.kind == "rdx":
                # New exclusive owner, whoever supplies the data.
                self.owner[op.addr] = txn.initiator
            if owner is not None and owner != txn.initiator:
                # A dirty copy exists: the owner's flush serves the
                # requester and refreshes us — stay silent.
                self.collect("suppressed")
                if op.kind == "rd":
                    self.owner.pop(op.addr, None)  # owner downgrades to S
                return
            self.collect("reads")
            response = MemResponse("read", op.addr,
                                   self.data.get(op.addr, 0), None)
            self._pending.append((self.now + self.p["latency"],
                                  txn.initiator, response))

    # Direct access (tests) --------------------------------------------------
    def peek(self, addr: int) -> Any:
        return self.data.get(addr, 0)

    def poke(self, addr: int, value: Any) -> None:
        self.data[addr] = value


def build_msi_smp(body, programs, *, mem_latency: int = 4,
                  cache_lines: int = 64, bus_latency: int = 1,
                  init_mem: Optional[dict] = None,
                  prefix: str = "") -> Dict[str, list]:
    """A bus-based SMP over the MSI protocol (drop-in replacement for
    :func:`repro.mpl.smp.build_snooping_smp` — "pluggable")."""
    from ..ccl.bus import Bus
    from ..upl.core import SimpleCore
    ncores = len(programs)
    bus = body.instance(f"{prefix}bus", Bus, latency=bus_latency,
                        mode="broadcast")
    memctl = body.instance(f"{prefix}memctl", MSIMemoryController,
                           latency=mem_latency, init=init_mem)
    cores, caches = [], []
    for i, program in enumerate(programs):
        core = body.instance(f"{prefix}core{i}", SimpleCore,
                             program=program)
        cache = body.instance(f"{prefix}cache{i}", MSICache,
                              lines=cache_lines, idx=i)
        body.connect(core.port("dmem_req"), cache.port("cpu_req"))
        body.connect(cache.port("cpu_resp"), core.port("dmem_resp"))
        body.connect(cache.port("bus_req"), bus.port("in"))
        body.connect(bus.port("out", i), cache.port("snoop"))
        body.connect(memctl.port("resp", i), cache.port("mem_resp"))
        cores.append(core)
        caches.append(cache)
    body.connect(bus.port("out", ncores), memctl.port("snoop"))
    return {"cores": cores, "caches": caches, "memctl": [memctl]}
