"""MAC assist hardware (NIL §3.5: "these devices have a heterogeneous
set of components, including DMA and MAC assist logic").

:class:`MACAssist` is the receive-side media-access block of the
programmable NIC: it accepts :class:`~repro.nil.formats.EthernetFrame`
objects from the wire, serializes them into a circular ring in NIC-local
memory (through ordinary memory ports — the "memory array primitive"
again), and reports the advancing producer pointer to the NIC's
register file.  Firmware consumes slots and writes the consumer pointer
back, which flows to the MAC for ring-full accounting.

:class:`MACTx` is the transmit counterpart: told a (slot, length) by
the register file, it reads the serialized frame back out of NIC memory
and drives it onto the wire.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT
from ..pcl.memory import MemRequest, MemResponse
from .formats import EthernetFrame


class MACAssist(LeafModule):
    """Receive MAC: wire frames -> NIC-memory ring + producer events.

    Ports
    -----
    ``wire_in``:
        Frames from the physical medium.
    ``mem_req``/``mem_resp``:
        NIC-local memory port for ring writes.
    ``ev_out``:
        ``('rx_prod', n)`` producer-pointer events to the register file.
    ``cons_in``:
        ``('rx_cons', n)`` consumer-pointer updates from firmware.

    Parameters: ``ring_base``, ``slots`` (ring capacity in frames),
    ``slot_words`` (bytes-per-slot analogue), and ``full_policy`` —
    what happens when a frame arrives to a full ring: ``'stall'``
    (default) exerts backpressure through the handshake, which lossless
    upstream models understand; ``'drop'`` consumes and discards the
    frame (``drops``), as a real Ethernet MAC must, since the physical
    wire cannot be stalled.

    Statistics: ``frames_rx``, ``drops``, ``words_written``.
    """

    PARAMS = (
        Parameter("ring_base", 0),
        Parameter("slots", 8, validate=lambda v: v >= 1),
        Parameter("slot_words", 16, validate=lambda v: v >= 4),
        Parameter("full_policy", "stall",
                  validate=lambda v: v in ("stall", "drop")),
    )
    PORTS = (
        PortDecl("wire_in", INPUT, min_width=1, max_width=1),
        PortDecl("mem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
        PortDecl("ev_out", OUTPUT, min_width=1, max_width=1),
        PortDecl("cons_in", INPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self.prod = 0
        self.cons = 0
        self._writes: Deque[MemRequest] = deque()
        self._awaiting = False
        self._event: Optional[Tuple[str, int]] = None

    def _ring_full(self) -> bool:
        return self.prod - self.cons >= self.p["slots"]

    def react(self) -> None:
        wire_in = self.io_wire_in
        mem_req = self.io_mem_req
        ev_out = self.io_ev_out
        self.io_mem_resp.set_ack(0, True)
        self.io_cons_in.set_ack(0, True)
        # Accept a new frame only when the previous one is fully stored
        # (and, under the stall policy, only when the ring has room).
        idle = not self._writes and not self._awaiting
        if self.p["full_policy"] == "stall":
            wire_in.set_ack(0, idle and not self._ring_full())
        else:
            wire_in.set_ack(0, idle)
        if self._writes and not self._awaiting:
            mem_req.send(0, self._writes[0])
        else:
            mem_req.send_nothing(0)
        if self._event is not None:
            ev_out.send(0, self._event)
        else:
            ev_out.send_nothing(0)

    def update(self) -> None:
        wire_in = self.io_wire_in
        mem_req = self.io_mem_req
        mem_resp = self.io_mem_resp
        ev_out = self.io_ev_out
        cons_in = self.io_cons_in

        if self._event is not None and ev_out.took(0):
            self._event = None
        if cons_in.took(0):
            kind, value = cons_in.value(0)
            if kind == "rx_cons":
                self.cons = value
        if self._writes and mem_req.took(0):
            self._awaiting = True
        if mem_resp.took(0) and self._awaiting:
            self._awaiting = False
            self._writes.popleft()
            self.collect("words_written")
            if not self._writes:
                # Frame fully visible in memory: publish the slot.
                self.prod += 1
                self._event = ("rx_prod", self.prod)
                self.collect("frames_rx")
        if wire_in.took(0):
            frame: EthernetFrame = wire_in.value(0)
            if self._ring_full():
                self.collect("drops")
            else:
                slot = self.prod % self.p["slots"]
                base = self.p["ring_base"] + slot * self.p["slot_words"]
                words = frame.to_words()[:self.p["slot_words"]]
                for offset, word in enumerate(words):
                    self._writes.append(
                        MemRequest("write", base + offset, value=word,
                                   tag=("mac", frame.fid, offset)))

    # NB: a frame arriving while the ring is full is *consumed and
    # dropped* (ack then discard) — refusing it would stall the wire.


class MACTx(LeafModule):
    """Transmit MAC: reads a serialized frame from NIC memory, sends it.

    ``tx_in`` carries ``('tx', slot, words)`` commands from the register
    file; the reassembled frame leaves on ``wire_out`` and a
    ``('tx_done', n)`` event returns.

    Statistics: ``frames_tx``, ``words_read``.
    """

    PARAMS = (
        Parameter("ring_base", 0),
        Parameter("slots", 8, validate=lambda v: v >= 1),
        Parameter("slot_words", 16, validate=lambda v: v >= 4),
    )
    PORTS = (
        PortDecl("tx_in", INPUT, min_width=1, max_width=1),
        PortDecl("mem_req", OUTPUT, min_width=1, max_width=1),
        PortDecl("mem_resp", INPUT, min_width=1, max_width=1),
        PortDecl("wire_out", OUTPUT, min_width=1, max_width=1),
        PortDecl("ev_out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}

    def init(self) -> None:
        self._job: Optional[Tuple[int, int]] = None   # (slot, words)
        self._reads_left = 0
        self._next_read = 0
        self._awaiting = False
        self._words: List[int] = []
        self._frame: Optional[EthernetFrame] = None
        self._done = 0
        self._event: Optional[Tuple[str, int]] = None

    def react(self) -> None:
        tx_in = self.io_tx_in
        mem_req = self.io_mem_req
        wire_out = self.io_wire_out
        ev_out = self.io_ev_out
        self.io_mem_resp.set_ack(0, True)
        tx_in.set_ack(0, self._job is None and self._frame is None)
        if self._job is not None and self._reads_left > 0 \
                and not self._awaiting:
            mem_req.send(0, MemRequest("read", self._next_read, tag="tx"))
        else:
            mem_req.send_nothing(0)
        if self._frame is not None:
            wire_out.send(0, self._frame)
        else:
            wire_out.send_nothing(0)
        if self._event is not None:
            ev_out.send(0, self._event)
        else:
            ev_out.send_nothing(0)

    def update(self) -> None:
        tx_in = self.io_tx_in
        mem_req = self.io_mem_req
        mem_resp = self.io_mem_resp
        wire_out = self.io_wire_out
        ev_out = self.io_ev_out

        if self._event is not None and ev_out.took(0):
            self._event = None
        if self._frame is not None and wire_out.took(0):
            self._frame = None
            self._done += 1
            self._event = ("tx_done", self._done)
            self.collect("frames_tx")
        if mem_req.took(0):
            self._awaiting = True
        if mem_resp.took(0) and self._awaiting:
            self._awaiting = False
            response: MemResponse = mem_resp.value(0)
            self._words.append(int(response.value or 0))
            self.collect("words_read")
            self._next_read += 1
            self._reads_left -= 1
            if self._reads_left == 0 and self._job is not None:
                self._frame = EthernetFrame.from_words(self._words,
                                                       created=self.now)
                self._job = None
                self._words = []
        if self._job is None and self._frame is None and tx_in.took(0):
            _, slot, words = tx_in.value(0)
            base = self.p["ring_base"] + (slot % self.p["slots"]) \
                * self.p["slot_words"]
            self._job = (slot, words)
            self._reads_left = max(3, min(words, self.p["slot_words"]))
            self._next_read = base
            self._words = []
