"""The NIC's memory-mapped register file.

Firmware running on the embedded core (:mod:`repro.nil.firmware`) talks
to the NIC's assist hardware exclusively through loads/stores to these
registers — the "hardware assists and memory-mapped registers" the
paper's NIL track calls out (§3.5).

Register map (word offsets within the MMIO window):

====  ==========  ====================================================
off   name        semantics
====  ==========  ====================================================
0     RX_PROD     read-only; receive-ring producer count (from MAC)
1     RX_CONS     firmware-written consumer count (forwarded to MAC)
2     DMA_SRC     DMA descriptor: source address
3     DMA_DST     DMA descriptor: destination address
4     DMA_LEN     DMA descriptor: word count
5     DMA_GO      write 1: launch the descriptor; clears DMA_DONE
6     DMA_DONE    read-only; 1 when the last descriptor completed
7     DMA_BELL    doorbell address written after the copy (0 = none)
8     DMA_BELLVAL doorbell value
9     TX_SLOT     transmit descriptor: ring slot
10    TX_WORDS    transmit descriptor: serialized frame length
11    TX_GO       write 1: hand the slot to the transmit MAC
12    TX_DONE     read-only; transmitted-frame count (from MACTx)
13    SCRATCH     firmware scratch
====  ==========  ====================================================
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..mpl.dma import DMARequest
from ..pcl.memory import MemRequest, MemResponse

RX_PROD, RX_CONS = 0, 1
DMA_SRC, DMA_DST, DMA_LEN, DMA_GO, DMA_DONE = 2, 3, 4, 5, 6
DMA_BELL, DMA_BELLVAL = 7, 8
TX_SLOT, TX_WORDS, TX_GO, TX_DONE = 9, 10, 11, 12
SCRATCH = 13
NUM_REGISTERS = 16


class NICRegisters(LeafModule):
    """MMIO register file bridging firmware and assist hardware.

    Ports
    -----
    ``req``/``resp``:
        The core-facing memory interface (addresses are *offsets*
        within the MMIO window; route and rebase with a Demux + a
        ``map_data`` control function).
    ``dma_cmd``/``dma_done``:
        Descriptor launch / completion to the DMA engine.
    ``ev_in``:
        Events from assist hardware: ``('rx_prod', n)`` /
        ``('tx_done', n)`` (any number of connections).
    ``cons_out``:
        ``('rx_cons', n)`` updates toward the receive MAC.
    ``tx_out``:
        ``('tx', slot, words)`` commands toward the transmit MAC.

    Statistics: ``reads``, ``writes``, ``dma_launches``, ``tx_launches``.
    """

    PARAMS = (
        Parameter("latency", 1, validate=lambda v: v >= 1),
    )
    PORTS = (
        PortDecl("req", INPUT, min_width=1, max_width=1),
        PortDecl("resp", OUTPUT, min_width=1, max_width=1),
        PortDecl("dma_cmd", OUTPUT, min_width=1, max_width=1),
        PortDecl("dma_done", INPUT, min_width=1, max_width=1),
        PortDecl("ev_in", INPUT, min_width=0),
        PortDecl("cons_out", OUTPUT, min_width=1, max_width=1),
        PortDecl("tx_out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self.regs = [0] * NUM_REGISTERS
        self._resp: Optional[MemResponse] = None
        self._resp_at = -1
        self._dma_out: Deque[DMARequest] = deque()
        self._cons_out: Deque[Tuple[str, int]] = deque()
        self._tx_out: Deque[Tuple[str, int, int]] = deque()

    # ------------------------------------------------------------------
    def _write(self, offset: int, value: int) -> None:
        if offset == DMA_GO:
            self.regs[DMA_DONE] = 0
            bell = self.regs[DMA_BELL] or None
            self._dma_out.append(DMARequest(
                self.regs[DMA_SRC], self.regs[DMA_DST], self.regs[DMA_LEN],
                doorbell=bell, doorbell_value=self.regs[DMA_BELLVAL]))
            self.collect("dma_launches")
            return
        if offset == TX_GO:
            self._tx_out.append(("tx", self.regs[TX_SLOT],
                                 self.regs[TX_WORDS]))
            self.collect("tx_launches")
            return
        if 0 <= offset < NUM_REGISTERS:
            self.regs[offset] = value
            if offset == RX_CONS:
                self._cons_out.append(("rx_cons", value))

    def react(self) -> None:
        req = self.io_req
        resp = self.io_resp
        self.io_dma_done.set_ack(0, True)
        ev_in = self.io_ev_in
        for i in range(ev_in.width):
            ev_in.set_ack(i, True)
        req.set_ack(0, self._resp is None)
        if self._resp is not None and self.now >= self._resp_at:
            resp.send(0, self._resp)
        else:
            resp.send_nothing(0)
        for port_name, queue in (("dma_cmd", self._dma_out),
                                 ("cons_out", self._cons_out),
                                 ("tx_out", self._tx_out)):
            port = self.port(port_name)
            if queue:
                port.send(0, queue[0])
            else:
                port.send_nothing(0)

    def update(self) -> None:
        req = self.io_req
        resp = self.io_resp
        dma_done = self.io_dma_done
        ev_in = self.io_ev_in

        if self._resp is not None and resp.took(0):
            self._resp = None
        for port_name, queue in (("dma_cmd", self._dma_out),
                                 ("cons_out", self._cons_out),
                                 ("tx_out", self._tx_out)):
            if queue and self.port(port_name).took(0):
                queue.popleft()
        if dma_done.took(0):
            self.regs[DMA_DONE] = 1
        for i in range(ev_in.width):
            if ev_in.took(i):
                kind, value = ev_in.value(i)
                if kind == "rx_prod":
                    self.regs[RX_PROD] = value
                elif kind == "tx_done":
                    self.regs[TX_DONE] = value
        if self._resp is None and req.took(0):
            request: MemRequest = req.value(0)
            offset = request.addr
            if request.op == "read":
                self.collect("reads")
                value = self.regs[offset] \
                    if 0 <= offset < NUM_REGISTERS else 0
                self._resp = MemResponse("read", offset, value, request.tag)
            else:
                self.collect("writes")
                self._write(offset, int(request.value or 0))
                self._resp = MemResponse("write", offset, request.value,
                                         request.tag)
            self._resp_at = self.now + self.p["latency"]
