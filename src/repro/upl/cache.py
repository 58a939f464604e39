"""A parameterized cache module (UPL §3.2: "realistic cache
configurations" composed from buffering and memory primitives).

:class:`Cache` is a blocking set-associative cache sitting between a
requester (``cpu_req``/``cpu_resp``) and a backing memory system
(``mem_req``/``mem_resp``).  All four interfaces speak the standard
:class:`~repro.pcl.memory.MemRequest`/:class:`~repro.pcl.memory.MemResponse`
transactions, so caches stack: L1 -> L2 -> bus -> memory is just
wiring, no code.

Supported organizations: direct-mapped through fully associative
(``ways``), multi-word blocks, LRU replacement, write-back +
write-allocate or write-through + no-allocate policies.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..pcl.memory import MemRequest, MemResponse


class _Line:
    __slots__ = ("valid", "dirty", "tag", "data")

    def __init__(self, block: int):
        self.valid = False
        self.dirty = False
        self.tag = -1
        self.data: List[int] = [0] * block


class Cache(LeafModule):
    """Blocking set-associative cache with LRU replacement.

    Parameters
    ----------
    sets, ways, block:
        Geometry: ``sets`` sets of ``ways`` lines of ``block`` words.
        Capacity = ``sets * ways * block`` words.
    hit_latency:
        Cycles from request acceptance to response for a hit.
    write_policy:
        ``'write_back'`` (write-allocate) or ``'write_through'``
        (no-allocate: write misses bypass the cache).

    Statistics: ``hits``, ``misses``, ``read_hits``, ``read_misses``,
    ``write_hits``, ``write_misses``, ``evictions``, ``writebacks``.
    """

    PARAMS = (
        Parameter("sets", 16, validate=lambda v: v >= 1),
        Parameter("ways", 2, validate=lambda v: v >= 1),
        Parameter("block", 4, validate=lambda v: v >= 1),
        Parameter("hit_latency", 1, validate=lambda v: v >= 1),
        Parameter("write_policy", "write_back",
                  validate=lambda v: v in ("write_back", "write_through")),
    )
    PORTS = (
        PortDecl("cpu_req", INPUT, min_width=1, max_width=1),
        PortDecl("cpu_resp", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        sets, ways, block = self.p["sets"], self.p["ways"], self.p["block"]
        self._lines: List[List[_Line]] = \
            [[_Line(block) for _ in range(ways)] for _ in range(sets)]
        self._lru: List[List[int]] = \
            [list(range(ways)) for _ in range(sets)]
        self._busy: Optional[MemRequest] = None
        self._resp: Optional[MemResponse] = None
        self._resp_at = -1
        self._memops: Deque[MemRequest] = deque()
        self._awaiting = False
        self._refill: List[int] = []
        self._miss_kind: Optional[str] = None   # 'refill' | 'through'
        self._victim: Optional[Tuple[int, int]] = None  # (set, way)

    # -- geometry helpers -------------------------------------------------
    def _locate(self, addr: int) -> Tuple[int, int, int]:
        """(set index, tag, offset) of a word address."""
        block = self.p["block"]
        block_index = addr // block
        return (block_index % self.p["sets"],
                block_index // self.p["sets"],
                addr % block)

    def _block_base(self, set_index: int, tag: int) -> int:
        return (tag * self.p["sets"] + set_index) * self.p["block"]

    def _lookup(self, set_index: int, tag: int) -> Optional[int]:
        for way, line in enumerate(self._lines[set_index]):
            if line.valid and line.tag == tag:
                return way
        return None

    def _touch(self, set_index: int, way: int) -> None:
        order = self._lru[set_index]
        order.remove(way)
        order.append(way)

    def _victim_way(self, set_index: int) -> int:
        for way in self._lru[set_index]:
            if not self._lines[set_index][way].valid:
                return way
        return self._lru[set_index][0]

    # -- reactive interface -------------------------------------------------
    def react(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        mem_req = self.io_mem_req
        self.io_mem_resp.set_ack(0, True)
        cpu_req.set_ack(0, self._busy is None)
        if self._resp is not None and self.now >= self._resp_at:
            cpu_resp.send(0, self._resp)
        else:
            cpu_resp.send_nothing(0)
        if self._memops and not self._awaiting:
            mem_req.send(0, self._memops[0])
        else:
            mem_req.send_nothing(0)

    def update(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        mem_req = self.io_mem_req
        mem_resp = self.io_mem_resp

        if self._resp is not None and cpu_resp.took(0):
            self._resp = None
            self._busy = None

        if self._memops and mem_req.took(0):
            self._awaiting = True

        if mem_resp.took(0) and self._awaiting:
            reply: MemResponse = mem_resp.value(0)
            self._awaiting = False
            op = self._memops.popleft()
            if op.op == "read":
                self._refill.append(int(reply.value or 0))
            if not self._memops:
                self._finish_miss()

        if self._busy is None and cpu_req.took(0):
            self._accept(cpu_req.value(0))

    # -- request handling ---------------------------------------------------
    def _accept(self, request: MemRequest) -> None:
        self._busy = request
        set_index, tag, offset = self._locate(request.addr)
        way = self._lookup(set_index, tag)
        if way is not None:
            self._hit(request, set_index, way, offset)
            return
        self.collect("misses")
        self.collect("read_misses" if request.op == "read" else "write_misses")
        if request.op == "write" and self.p["write_policy"] == "write_through":
            # No-allocate: forward the write downstream and reply when done.
            self._miss_kind = "through"
            self._memops.append(MemRequest("write", request.addr,
                                           value=request.value,
                                           tag=("cache", self.path)))
            return
        # Allocate: evict the victim (write back if dirty), then refill.
        self._miss_kind = "refill"
        victim_way = self._victim_way(set_index)
        self._victim = (set_index, victim_way)
        victim = self._lines[set_index][victim_way]
        if victim.valid and victim.dirty:
            self.collect("evictions")
            self.collect("writebacks")
            base = self._block_base(set_index, victim.tag)
            for i in range(self.p["block"]):
                self._memops.append(MemRequest("write", base + i,
                                               value=victim.data[i],
                                               tag=("cache", self.path)))
        elif victim.valid:
            self.collect("evictions")
        base = self._block_base(set_index, tag)
        self._refill = []
        for i in range(self.p["block"]):
            self._memops.append(MemRequest("read", base + i,
                                           tag=("cache", self.path)))

    def _hit(self, request: MemRequest, set_index: int, way: int,
             offset: int) -> None:
        self.collect("hits")
        self.collect("read_hits" if request.op == "read" else "write_hits")
        line = self._lines[set_index][way]
        self._touch(set_index, way)
        if request.op == "read":
            value = line.data[offset]
        else:
            value = request.value
            line.data[offset] = value
            if self.p["write_policy"] == "write_back":
                line.dirty = True
            else:
                # Write-through hit: propagate downstream before replying.
                self._miss_kind = "through"
                self._memops.append(MemRequest("write", request.addr,
                                               value=value,
                                               tag=("cache", self.path)))
                return
        self._resp = MemResponse(request.op, request.addr, value,
                                 request.tag, meta=request.meta)
        self._resp_at = self.now + self.p["hit_latency"]

    def _finish_miss(self) -> None:
        request = self._busy
        if request is None:
            return
        if self._miss_kind == "through":
            self._resp = MemResponse(request.op, request.addr, request.value,
                                     request.tag, meta=request.meta)
            self._resp_at = self.now + 1
            self._miss_kind = None
            return
        # Install the refilled block in the victim slot.
        set_index, tag, offset = self._locate(request.addr)
        way = self._victim[1]
        line = self._lines[set_index][way]
        line.valid = True
        line.dirty = False
        line.tag = tag
        line.data = list(self._refill)
        self._refill = []
        self._victim = None
        self._miss_kind = None
        self._touch(set_index, way)
        if request.op == "read":
            value = line.data[offset]
        else:
            value = request.value
            line.data[offset] = value
            line.dirty = True
        self._resp = MemResponse(request.op, request.addr, value,
                                 request.tag, meta=request.meta)
        self._resp_at = self.now + 1

    # -- debugging -----------------------------------------------------------
    def contents(self) -> Dict[int, int]:
        """Currently cached ``{address: value}`` (tests/debug)."""
        out: Dict[int, int] = {}
        for set_index, ways in enumerate(self._lines):
            for line in ways:
                if line.valid:
                    base = self._block_base(set_index, line.tag)
                    for i, value in enumerate(line.data):
                        out[base + i] = value
        return out
