"""Memory arrays — the PCL primitive behind caches, register files and
bus queue buffers (paper §3.1: "the memory array primitive component
... can double as bus queuing buffers for CCL as well as caches in
UPL").

:class:`MemoryArray` is a request/response block: read and write
requests arrive on ``req`` ports and responses depart on the paired
``resp`` ports after a configurable access latency.  Storage is a dict
(sparse) or numpy-backed dense array depending on ``size``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple


from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT


class MemRequest:
    """A memory operation: ``op`` is ``'read'`` or ``'write'``.

    ``tag`` is echoed into the response so requesters can match
    replies.  ``meta`` rides along untouched.
    """

    __slots__ = ("op", "addr", "value", "tag", "meta")

    def __init__(self, op: str, addr: int, value: Any = None,
                 tag: Any = None, meta: Any = None):
        self.op = op
        self.addr = addr
        self.value = value
        self.tag = tag
        self.meta = meta

    def _key(self):
        return (self.op, self.addr, self.value, self.tag, self.meta)

    def __eq__(self, other) -> bool:
        return isinstance(other, MemRequest) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"MemRequest({self.op}, @{self.addr}, tag={self.tag!r})"


class MemResponse:
    """Reply to a :class:`MemRequest` (reads carry the datum)."""

    __slots__ = ("op", "addr", "value", "tag", "meta")

    def __init__(self, op: str, addr: int, value: Any, tag: Any,
                 meta: Any = None):
        self.op = op
        self.addr = addr
        self.value = value
        self.tag = tag
        self.meta = meta

    def _key(self):
        return (self.op, self.addr, self.value, self.tag, self.meta)

    def __eq__(self, other) -> bool:
        return isinstance(other, MemResponse) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"MemResponse({self.op}, @{self.addr}, tag={self.tag!r})"


class MemoryArray(LeafModule):
    """Multi-ported storage with fixed access latency.

    Each ``req`` index is an independent access port with its own
    pipeline; the response appears on the *same-numbered* ``resp``
    index ``latency`` cycles after the request is accepted.  A port
    accepts at most ``bandwidth`` outstanding requests (default 1 —
    a blocking port); additional requests are stalled via the ack.

    Parameters
    ----------
    size:
        Number of addressable words; addresses are taken modulo
        ``size`` when ``wrap=True`` else out-of-range is an error
        response (``value=None``, ``meta='fault'``).
    latency:
        Cycles from acceptance to response availability.
    bandwidth:
        Outstanding requests per port.
    init:
        Optional dict or sequence of initial contents.

    Statistics: ``reads``, ``writes``, ``faults``, ``stalls``.
    """

    PARAMS = (
        Parameter("size", 1024, validate=lambda v: v >= 1),
        Parameter("latency", 1, validate=lambda v: v >= 1),
        Parameter("bandwidth", 1, validate=lambda v: v >= 1),
        Parameter("wrap", False),
        Parameter("init", None),
    )
    PORTS = (
        PortDecl("req", INPUT, min_width=1, doc="MemRequest stream(s)"),
        PortDecl("resp", OUTPUT, min_width=1, doc="MemResponse stream(s)"),
    )
    DEPS = {}

    def init(self) -> None:
        self.data: Dict[int, Any] = {}
        initial = self.p["init"]
        if isinstance(initial, dict):
            self.data.update(initial)
        elif initial is not None:
            for addr, value in enumerate(initial):
                self.data[addr] = value
        n = self.io_req.width
        self._inflight: List[Deque[Tuple[int, MemResponse]]] = \
            [deque() for _ in range(n)]
        self._ready: List[Deque[MemResponse]] = [deque() for _ in range(n)]

    def _execute(self, req: MemRequest) -> MemResponse:
        addr = req.addr
        size = self.p["size"]
        if self.p["wrap"]:
            addr %= size
        elif not (0 <= addr < size):
            self.collect("faults")
            return MemResponse(req.op, req.addr, None, req.tag, meta="fault")
        if req.op == "write":
            self.data[addr] = req.value
            self.collect("writes")
            return MemResponse("write", req.addr, req.value, req.tag,
                               meta=req.meta)
        self.collect("reads")
        return MemResponse("read", req.addr, self.data.get(addr, 0),
                           req.tag, meta=req.meta)

    def react(self) -> None:
        req = self.io_req
        resp = self.io_resp
        for i in range(req.width):
            backlog = len(self._inflight[i]) + len(self._ready[i])
            req.set_ack(i, backlog < self.p["bandwidth"])
        for i in range(resp.width):
            if i < len(self._ready) and self._ready[i]:
                resp.send(i, self._ready[i][0])
            else:
                resp.send_nothing(i)

    def update(self) -> None:
        req = self.io_req
        resp = self.io_resp
        for i in range(resp.width):
            if i < len(self._ready) and self._ready[i] and resp.took(i):
                self._ready[i].popleft()
        for i in range(req.width):
            if req.took(i):
                request = req.value(i)
                reply = self._execute(request)
                self._inflight[i].append((self.now + self.p["latency"], reply))
            elif req.present(i):
                self.collect("stalls")
        nxt = self.now + 1
        for i, pipe in enumerate(self._inflight):
            while pipe and pipe[0][0] <= nxt:
                self._ready[i].append(pipe.popleft()[1])

    # Convenience for tests and debugging --------------------------------
    def peek(self, addr: int) -> Any:
        """Direct (zero-time) read of backing storage."""
        return self.data.get(addr, 0)

    def poke(self, addr: int, value: Any) -> None:
        """Direct (zero-time) write to backing storage."""
        self.data[addr] = value
