"""Memory-ordering controllers (MPL §3.4: "pluggable memory ordering
controllers to restrict the reordering allowed by the processor
according to desired constraints").

:class:`StoreBuffer` interposes between a processor and its memory
system and implements the ordering model selected by its ``model``
parameter:

* ``'sc'`` — sequential consistency: a pure pass-through; every
  operation completes at memory before the next begins;
* ``'tso'`` — total store order: stores are acknowledged immediately
  into a FIFO write buffer and drain to memory in order; loads may
  bypass pending stores (reading around them) but *forward* from the
  youngest matching buffered store.

The classic store-buffering litmus test (``tests/mpl``) shows the
observable difference: under TSO both processors can read the other's
flag as 0; under SC they cannot.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..pcl.memory import MemRequest, MemResponse


class StoreBuffer(LeafModule):
    """FIFO store buffer with load forwarding/bypass.

    Ports: ``cpu_req``/``cpu_resp`` toward the core; ``mem_req``/
    ``mem_resp`` toward memory.

    Parameters
    ----------
    model:
        ``'sc'`` or ``'tso'``.
    depth:
        Store-buffer capacity (TSO); a full buffer stalls further
        stores.

    Statistics: ``stores_buffered``, ``loads_forwarded``,
    ``loads_bypassed``, ``drains``, ``full_stalls``.
    """

    PARAMS = (
        Parameter("model", "tso", validate=lambda v: v in ("sc", "tso")),
        Parameter("depth", 8, validate=lambda v: v >= 1),
        Parameter("drain_delay", 0, validate=lambda v: v >= 0,
                  doc="minimum cycles a store rests in the buffer before "
                      "draining (write-combining residency; makes TSO's "
                      "weak behaviours easy to expose deterministically)"),
    )
    PORTS = (
        PortDecl("cpu_req", INPUT, min_width=1, max_width=1),
        PortDecl("cpu_resp", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self._buffer: Deque[MemRequest] = deque()   # pending stores (TSO)
        self._draining = False                      # head store issued
        self._load: Optional[MemRequest] = None     # outstanding load
        self._load_issued = False
        self._resp: Optional[MemResponse] = None
        self._sc_busy: Optional[MemRequest] = None  # SC in-flight op
        self._sc_issued = False

    # ------------------------------------------------------------------
    def _tso_accepting(self) -> bool:
        return (self._load is None and self._resp is None
                and len(self._buffer) < self.p["depth"])

    def _forward(self, addr: int) -> Optional[Any]:
        """Youngest buffered store to ``addr``, if any."""
        for request, _enq in reversed(self._buffer):
            if request.addr == addr:
                return request.value
        return None

    def _head_ready(self) -> bool:
        if not self._buffer:
            return False
        _, enq = self._buffer[0]
        return self.now >= enq + self.p["drain_delay"]

    def react(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        mem_req = self.io_mem_req
        self.io_mem_resp.set_ack(0, True)

        if self.p["model"] == "sc":
            cpu_req.set_ack(0, self._sc_busy is None and self._resp is None)
            if self._sc_busy is not None and not self._sc_issued:
                mem_req.send(0, self._sc_busy)
            else:
                mem_req.send_nothing(0)
        else:
            cpu_req.set_ack(0, self._tso_accepting())
            # Drain priority: an outstanding load goes ahead of the
            # store-buffer head only if it bypasses (no forwarding hit).
            if self._load is not None and not self._load_issued:
                mem_req.send(0, self._load)
            elif self._head_ready() and not self._draining \
                    and self._load is None:
                mem_req.send(0, self._buffer[0][0])
            else:
                mem_req.send_nothing(0)

        if self._resp is not None:
            cpu_resp.send(0, self._resp)
        else:
            cpu_resp.send_nothing(0)

    def update(self) -> None:
        cpu_req = self.io_cpu_req
        cpu_resp = self.io_cpu_resp
        mem_req = self.io_mem_req
        mem_resp = self.io_mem_resp

        if self._resp is not None and cpu_resp.took(0):
            self._resp = None

        if self.p["model"] == "sc":
            if mem_req.took(0):
                self._sc_issued = True
            if mem_resp.took(0) and self._sc_busy is not None:
                response: MemResponse = mem_resp.value(0)
                self._resp = MemResponse(response.op, response.addr,
                                         response.value, self._sc_busy.tag)
                self._sc_busy = None
                self._sc_issued = False
            if self._sc_busy is None and self._resp is None \
                    and cpu_req.took(0):
                self._sc_busy = cpu_req.value(0)
                self._sc_issued = False
            return

        # ---- TSO ----
        if mem_req.took(0):
            # Mirror react's offer priority: the outstanding load goes
            # first; otherwise it was the store-buffer head.
            if self._load is not None and not self._load_issued:
                self._load_issued = True
            else:
                self._draining = True
        if mem_resp.took(0):
            response = mem_resp.value(0)
            if response.op == "read" and self._load is not None:
                self._resp = MemResponse("read", response.addr,
                                         response.value, self._load.tag)
                self._load = None
                self._load_issued = False
            elif response.op == "write" and self._draining:
                self._buffer.popleft()
                self._draining = False
                self.collect("drains")
        if cpu_req.took(0):
            request: MemRequest = cpu_req.value(0)
            if request.op == "write":
                self._buffer.append((request, self.now))
                self.collect("stores_buffered")
                # Acknowledge immediately: the store is locally complete.
                self._resp = MemResponse("write", request.addr,
                                         request.value, request.tag)
            else:
                forwarded = self._forward(request.addr)
                if forwarded is not None:
                    self.collect("loads_forwarded")
                    self._resp = MemResponse("read", request.addr,
                                             forwarded, request.tag)
                else:
                    self.collect("loads_bypassed")
                    self._load = request
                    self._load_issued = False
        elif cpu_req.present(0) and not self._tso_accepting():
            self.collect("full_stalls")
