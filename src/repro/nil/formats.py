"""Network interface formats and converters (NIL §3.5).

"These devices translate between the formats understood on the external
network and the local interconnect; the most common realization is a
network interface card (NIC) that translates between Ethernet and PCI
formats."  This module defines both formats and the
:class:`FormatConverter` template that sits between them — the paper's
canonical NIL example.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT


class EthernetFrame:
    """A simplified Ethernet frame (word-granular payload).

    ``src``/``dst`` are MAC-style integer addresses; ``ethertype``
    distinguishes protocols; ``payload`` is a tuple of words.
    """

    __slots__ = ("src", "dst", "ethertype", "payload", "created", "fid")

    _ids = itertools.count()

    def __init__(self, src: int, dst: int, payload: Sequence[int],
                 ethertype: int = 0x0800, created: int = 0):
        self.src = src
        self.dst = dst
        self.ethertype = ethertype
        self.payload = tuple(payload)
        self.created = created
        self.fid = next(EthernetFrame._ids)

    @property
    def length(self) -> int:
        """Frame length in words (header word + payload)."""
        return 1 + len(self.payload)

    def to_words(self) -> List[int]:
        """Serialize: [header(len|type), src, dst, payload...]."""
        header = (len(self.payload) & 0xFFFF) | ((self.ethertype & 0xFFFF) << 16)
        return [header, self.src, self.dst, *self.payload]

    @classmethod
    def from_words(cls, words: Sequence[int],
                   created: int = 0) -> "EthernetFrame":
        header = words[0]
        length = header & 0xFFFF
        ethertype = (header >> 16) & 0xFFFF
        return cls(words[1], words[2], tuple(words[3:3 + length]),
                   ethertype=ethertype, created=created)

    def __eq__(self, other) -> bool:
        return isinstance(other, EthernetFrame) and other.fid == self.fid

    def __hash__(self) -> int:
        return hash(self.fid)

    def __repr__(self) -> str:
        return (f"EthFrame#{self.fid}({self.src:#x}->{self.dst:#x}, "
                f"{len(self.payload)}w)")


class PCITransaction:
    """A PCI-style burst transaction: address + data words."""

    __slots__ = ("kind", "addr", "data", "tid", "created")

    _ids = itertools.count()

    def __init__(self, kind: str, addr: int, data: Sequence[int] = (),
                 created: int = 0):
        self.kind = kind          # 'write' | 'read'
        self.addr = addr
        self.data = tuple(data)
        self.created = created
        self.tid = next(PCITransaction._ids)

    def __eq__(self, other) -> bool:
        return isinstance(other, PCITransaction) and other.tid == self.tid

    def __hash__(self) -> int:
        return hash(self.tid)

    def __repr__(self) -> str:
        return f"PCITxn#{self.tid}({self.kind} @{self.addr:#x}, {len(self.data)}w)"


class FormatConverter(LeafModule):
    """Ethernet -> PCI format converter ("a format converter that sits
    between an Ethernet and a PCI bus", §3).

    Consumes :class:`EthernetFrame` objects and produces one PCI burst
    write per frame into a circular host ring: slot ``i`` of
    ``slots`` starts at ``ring_base + i * slot_words``; the serialized
    frame (see :meth:`EthernetFrame.to_words`) is the burst data,
    truncated to the slot.  Conversion costs ``latency`` cycles per
    frame (header processing).

    The reverse direction is :class:`PCIUnpacker`, which turns burst
    writes back into frames — composing the two is the loopback test.

    Statistics: ``frames``, ``truncated``.
    """

    PARAMS = (
        Parameter("ring_base", 0),
        Parameter("slots", 8, validate=lambda v: v >= 1),
        Parameter("slot_words", 16, validate=lambda v: v >= 4),
        Parameter("latency", 1, validate=lambda v: v >= 1),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1,
                 doc="EthernetFrame stream"),
        PortDecl("out", OUTPUT, min_width=1, max_width=1,
                 doc="PCITransaction stream"),
    )
    DEPS = {}

    def init(self) -> None:
        self._slot = 0
        self._pending: Optional[PCITransaction] = None
        self._ready_at = 0

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        inp.set_ack(0, self._pending is None)
        if self._pending is not None and self.now >= self._ready_at:
            out.send(0, self._pending)
        else:
            out.send_nothing(0)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        if self._pending is not None and out.took(0):
            self._pending = None
        if self._pending is None and inp.took(0):
            frame: EthernetFrame = inp.value(0)
            words = frame.to_words()
            limit = self.p["slot_words"]
            if len(words) > limit:
                words = words[:limit]
                self.collect("truncated")
            addr = self.p["ring_base"] + self._slot * limit
            self._slot = (self._slot + 1) % self.p["slots"]
            self._pending = PCITransaction("write", addr, words,
                                           created=frame.created)
            self._ready_at = self.now + self.p["latency"]
            self.collect("frames")


class PCIUnpacker(LeafModule):
    """PCI burst writes -> Ethernet frames (the converter's inverse).

    Statistics: ``frames``.
    """

    PARAMS = (
        Parameter("latency", 1, validate=lambda v: v >= 1),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1,
                 doc="PCITransaction stream"),
        PortDecl("out", OUTPUT, min_width=1, max_width=1,
                 doc="EthernetFrame stream"),
    )
    DEPS = {}

    def init(self) -> None:
        self._pending: Optional[EthernetFrame] = None
        self._ready_at = 0

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        inp.set_ack(0, self._pending is None)
        if self._pending is not None and self.now >= self._ready_at:
            out.send(0, self._pending)
        else:
            out.send_nothing(0)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        if self._pending is not None and out.took(0):
            self._pending = None
        if self._pending is None and inp.took(0):
            txn: PCITransaction = inp.value(0)
            if txn.kind == "write" and len(txn.data) >= 3:
                self._pending = EthernetFrame.from_words(
                    txn.data, created=txn.created)
                self._ready_at = self.now + self.p["latency"]
                self.collect("frames")
