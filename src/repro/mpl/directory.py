"""Directory-based coherence over a point-to-point network (MPL §3.4:
"point-to-point coherence transactions for scalable systems").

Addresses are interleaved across *home* nodes; each home runs a
:class:`DirectoryHome` holding the backing storage and a sharer list
per address.  Each core attaches through a :class:`DirCacheCtl` that
turns its :class:`~repro.pcl.memory.MemRequest` stream into coherence
messages carried as :class:`~repro.ccl.packet.Packet` payloads across
any CCL fabric (the Figure-2a chip multiprocessor wires it over the
mesh).

Protocol (write-through invalidate, unordered network):

* ``rd addr``   -> home: add requester to sharers, reply ``rdresp``;
* ``wr addr v`` -> home: update storage, send ``inval`` to every other
  sharer, reset sharers to the writer, reply ``wrack``;
* ``inval``     -> cache: drop the line (no ack — invalidations are
  *not* synchronized with the write acknowledgment, so the memory
  model is weaker than the snooping bus's sequential consistency;
  ``tests/mpl`` demonstrates the difference with a litmus test).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..ccl.packet import Packet
from ..pcl.memory import MemRequest, MemResponse


class CoherenceMsg:
    """Payload of a coherence packet."""

    __slots__ = ("kind", "addr", "value", "requester", "tag")

    def __init__(self, kind: str, addr: int, value: Any = None,
                 requester=None, tag: Any = None):
        self.kind = kind      # 'rd' | 'wr' | 'rdresp' | 'wrack' | 'inval'
        self.addr = addr
        self.value = value
        self.requester = requester
        self.tag = tag

    #: Message kinds addressed to a home directory (vs. a cache).
    TO_HOME = frozenset(["rd", "wr"])

    def __repr__(self) -> str:
        return f"CoherenceMsg({self.kind} @{self.addr} from {self.requester})"


def is_home_bound(packet: Packet) -> bool:
    """Route predicate: does this packet target the home directory side?"""
    msg = packet.payload
    return isinstance(msg, CoherenceMsg) and msg.kind in CoherenceMsg.TO_HOME


class DirCacheCtl(LeafModule):
    """Core-side cache + network interface for directory coherence.

    Direct-mapped, one-word blocks, write-through (no dirty state).

    Ports: ``cpu_req``/``cpu_resp`` toward the core; ``net_out``/
    ``net_in`` toward the fabric (LOCAL router ports).

    Parameters: ``node`` (this cache's network address), ``home_of``
    (algorithmic: ``home_of(addr) -> node``), ``lines``,
    ``hit_latency``.

    Statistics: ``read_hits``, ``read_misses``, ``writes``,
    ``invalidations_in``.
    """

    PARAMS = (
        Parameter("node", None),
        Parameter("home_of", None, kind="algorithmic"),
        Parameter("lines", 64, validate=lambda v: v >= 1),
        Parameter("hit_latency", 1, validate=lambda v: v >= 1),
    )
    PORTS = (
        PortDecl("cpu_req", INPUT, min_width=1, max_width=1),
        PortDecl("cpu_resp", OUTPUT, min_width=1, max_width=1),
        PortDecl("net_out", OUTPUT, min_width=1, max_width=1),
        PortDecl("net_in", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        lines = self.p["lines"]
        self._valid = [False] * lines
        self._tags = [0] * lines
        self._data: List[Any] = [0] * lines
        self._busy: Optional[MemRequest] = None
        self._outbox: Deque[Packet] = deque()
        self._resp: Optional[MemResponse] = None
        self._resp_at = -1

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

    def _send(self, msg: CoherenceMsg) -> None:
        dst = self.p["home_of"](msg.addr)
        self._outbox.append(Packet(self.p["node"], dst, payload=msg,
                                   created=self.now))

    def react(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        net_out = self.io_net_out
        self.io_net_in.set_ack(0, True)
        cpu_req.set_ack(0, self._busy is None)
        if self._resp is not None and self.now >= self._resp_at:
            cpu_resp.send(0, self._resp)
        else:
            cpu_resp.send_nothing(0)
        if self._outbox:
            net_out.send(0, self._outbox[0])
        else:
            net_out.send_nothing(0)

    def update(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        net_out = self.io_net_out
        net_in = self.io_net_in

        if self._resp is not None and cpu_resp.took(0):
            self._resp = None
            self._busy = None
        if self._outbox and net_out.took(0):
            self._outbox.popleft()
        if net_in.took(0):
            packet: Packet = net_in.value(0)
            msg: CoherenceMsg = packet.payload
            if msg.kind == "inval":
                line = self._line(msg.addr)
                if self._valid[line] and self._tags[line] == msg.addr:
                    self._valid[line] = False
                    self.collect("invalidations_in")
            elif msg.kind == "rdresp" and self._busy is not None \
                    and msg.addr == self._busy.addr:
                self._fill(msg.addr, msg.value)
                self._resp = MemResponse("read", msg.addr, msg.value,
                                         self._busy.tag)
                self._resp_at = self.now + 1
            elif msg.kind == "wrack" and self._busy is not None \
                    and msg.addr == self._busy.addr:
                self._fill(msg.addr, msg.value)
                self._resp = MemResponse("write", msg.addr, msg.value,
                                         self._busy.tag)
                self._resp_at = self.now + 1
        if self._busy is None and cpu_req.took(0):
            request: MemRequest = cpu_req.value(0)
            self._busy = request
            if request.op == "read":
                value = self._lookup(request.addr)
                if value is not None:
                    self.collect("read_hits")
                    self._resp = MemResponse("read", request.addr, value,
                                             request.tag)
                    self._resp_at = self.now + self.p["hit_latency"]
                else:
                    self.collect("read_misses")
                    self._send(CoherenceMsg("rd", request.addr,
                                            requester=self.p["node"]))
            else:
                self.collect("writes")
                self._send(CoherenceMsg("wr", request.addr, request.value,
                                        requester=self.p["node"]))


class DirectoryHome(LeafModule):
    """One home node: interleaved backing storage + sharer directory.

    Ports: ``net_in`` (requests), ``net_out`` (responses and
    invalidations).

    Parameters: ``node`` (network address), ``latency`` (storage access
    time), ``init`` (initial contents).

    Statistics: ``reads``, ``writes``, ``invals_sent``; histogram
    ``sharers`` (sharer-list size at each write).
    """

    PARAMS = (
        Parameter("node", None),
        Parameter("latency", 2, validate=lambda v: v >= 1),
        Parameter("init", None),
    )
    PORTS = (
        PortDecl("net_in", INPUT, min_width=1, max_width=1),
        PortDecl("net_out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        initial = self.p["init"]
        self.data: Dict[int, Any] = dict(initial) if initial else {}
        self.sharers: Dict[int, Set] = {}
        self._outbox: Deque[Tuple[int, Packet]] = deque()  # (ready, packet)

    def _post(self, dst, msg: CoherenceMsg, delay: int = 0) -> None:
        self._outbox.append((self.now + delay,
                             Packet(self.p["node"], dst, payload=msg,
                                    created=self.now)))

    def react(self) -> None:
        self.io_net_in.set_ack(0, True)
        net_out = self.io_net_out
        if self._outbox and self._outbox[0][0] <= self.now:
            net_out.send(0, self._outbox[0][1])
        else:
            net_out.send_nothing(0)

    def update(self) -> None:
        net_in = self.io_net_in
        net_out = self.io_net_out
        if self._outbox and net_out.took(0):
            self._outbox.popleft()
        if net_in.took(0):
            packet: Packet = net_in.value(0)
            msg: CoherenceMsg = packet.payload
            latency = self.p["latency"]
            if msg.kind == "rd":
                self.collect("reads")
                self.sharers.setdefault(msg.addr, set()).add(msg.requester)
                self._post(msg.requester,
                           CoherenceMsg("rdresp", msg.addr,
                                        self.data.get(msg.addr, 0),
                                        requester=self.p["node"]),
                           delay=latency)
            elif msg.kind == "wr":
                self.collect("writes")
                self.data[msg.addr] = msg.value
                sharers = self.sharers.get(msg.addr, set())
                self.record("sharers", float(len(sharers)))
                for node in sorted(sharers):
                    if node != msg.requester:
                        self.collect("invals_sent")
                        self._post(node, CoherenceMsg("inval", msg.addr),
                                   delay=latency)
                self.sharers[msg.addr] = {msg.requester}
                self._post(msg.requester,
                           CoherenceMsg("wrack", msg.addr, msg.value,
                                        requester=self.p["node"]),
                           delay=latency)

    # Direct access (tests) -------------------------------------------------
    def peek(self, addr: int) -> Any:
        return self.data.get(addr, 0)
