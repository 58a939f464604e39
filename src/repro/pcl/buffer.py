"""The generalized buffer — the paper's flagship reusable template.

"A single module template can be instantiated to model a processor's
instruction window, its reorder buffer, and the I/O buffers in a packet
router" (§2.1).  :class:`Buffer` is that template: a bounded pool of
entries whose *departure discipline* is an algorithmic parameter
(``select_policy``) and whose entries can be mutated in place by
messages on an update port (``on_update``) — wakeups, completions,
squashes.

The shipped policies cover the three headline instantiations:

* :func:`fifo_policy` — plain FIFO: a router I/O buffer;
* :func:`ready_policy` — out-of-order departure of entries satisfying a
  readiness predicate: an instruction window (issue queue);
* :func:`in_order_completion_policy` — in-order departure of the
  completed prefix: a reorder buffer.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from ..core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT


class BufferEntry:
    """One occupant of a :class:`Buffer`.

    Attributes
    ----------
    seq:
        Monotonically increasing insertion sequence number (unique per
        buffer instance; usable as a tag).
    value:
        The stored payload.
    born:
        Timestep of insertion.
    meta:
        Scratch dict for policies and update handlers (e.g. a ``done``
        flag set by a completion message).
    """

    __slots__ = ("seq", "value", "born", "meta")

    def __init__(self, seq: int, value: Any, born: int):
        self.seq = seq
        self.value = value
        self.born = born
        self.meta: dict = {}

    def __repr__(self) -> str:
        return f"BufferEntry(#{self.seq}, {self.value!r}, meta={self.meta})"


def fifo_policy(entries: List[BufferEntry], now: int) -> List[int]:
    """Offer entries strictly in insertion order (a FIFO)."""
    return list(range(len(entries)))


def ready_policy(predicate: Callable[[BufferEntry], bool]
                 ) -> Callable[[List[BufferEntry], int], List[int]]:
    """Offer any entry satisfying ``predicate``, oldest first.

    The out-of-order *instruction window* discipline: readiness is
    typically "all source operands available", recorded in
    ``entry.meta`` by wakeup messages.
    """

    def policy(entries: List[BufferEntry], now: int) -> List[int]:
        return [i for i, e in enumerate(entries) if predicate(e)]

    return policy


def in_order_completion_policy(flag: str = "done"
                               ) -> Callable[[List[BufferEntry], int], List[int]]:
    """Offer the completed prefix, in order — a reorder buffer.

    Departure stops at the first entry whose ``meta[flag]`` is not set,
    enforcing in-order commit.
    """

    def policy(entries: List[BufferEntry], now: int) -> List[int]:
        out: List[int] = []
        for i, entry in enumerate(entries):
            if entry.meta.get(flag):
                out.append(i)
            else:
                break
        return out

    return policy


class Buffer(LeafModule):
    """Bounded entry pool with pluggable departure and update semantics.

    Parameters
    ----------
    depth:
        Maximum number of entries.
    select_policy:
        Algorithmic: ``select_policy(entries, now) -> [entry_index, ...]``
        — which entries to offer this cycle, in output-port order.
        Offers beyond the output width are ignored.
    on_update:
        Algorithmic: ``on_update(buffer, msg) -> None`` — handle one
        message arriving on the ``upd`` port (wakeup, completion,
        squash...).  May mutate entries or call :meth:`remove_seq`.
    on_insert:
        Algorithmic: ``on_insert(buffer, entry) -> None`` — initialize
        a newly inserted entry's ``meta``.
    emit:
        Algorithmic: ``emit(entry) -> value`` — payload placed on the
        output wire (defaults to ``entry.value``).

    Ports
    -----
    ``in`` (N): items to insert; up to ``free`` indices acked per cycle.
    ``out`` (M): selected entries, one per index.
    ``upd`` (K): update messages; always acknowledged.

    The buffer is a Moore machine (``DEPS = {}``): offers and acks are
    functions of start-of-cycle state; all mutation happens in
    ``update()``.

    Statistics: ``inserted``, ``removed``, ``updates``, ``full_stalls``;
    histogram ``residency`` (cycles each departing entry spent inside).
    """

    PARAMS = (
        Parameter("depth", 8, validate=lambda v: v >= 1),
        Parameter("select_policy", fifo_policy, kind="algorithmic"),
        Parameter("on_update", None),
        Parameter("on_insert", None),
        Parameter("emit", None),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1),
        PortDecl("out", OUTPUT, min_width=1),
        PortDecl("upd", INPUT, min_width=0),
    )
    DEPS = {}
    #: Vectorization introspection: depth broadcasts per lane.
    VEC_LANE_PARAMS = ("depth",)

    def init(self) -> None:
        self.entries: List[BufferEntry] = []
        self._seq = itertools.count()
        self._offers: List[Optional[int]] = []  # out index -> entry seq
        self._offer_cycle = -1

    # ------------------------------------------------------------------
    # Introspection and mutation helpers (for policies / update handlers)
    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self.entries)

    @property
    def free(self) -> int:
        return self.p["depth"] - len(self.entries)

    def entry_by_seq(self, seq: int) -> Optional[BufferEntry]:
        for entry in self.entries:
            if entry.seq == seq:
                return entry
        return None

    def remove_seq(self, seq: int) -> bool:
        """Remove the entry with sequence number ``seq`` (e.g. a squash)."""
        for i, entry in enumerate(self.entries):
            if entry.seq == seq:
                del self.entries[i]
                self.collect("removed")
                return True
        return False

    # ------------------------------------------------------------------
    def _compute_offers(self) -> None:
        if self._offer_cycle == self.now:
            return
        self._offer_cycle = self.now
        out_width = self.io_out.width
        chosen = self.p["select_policy"](self.entries, self.now)
        self._offers = [None] * out_width
        for slot, entry_index in enumerate(chosen[:out_width]):
            if 0 <= entry_index < len(self.entries):
                self._offers[slot] = self.entries[entry_index].seq

    def react(self) -> None:
        self._compute_offers()
        inp = self.io_in
        out = self.io_out
        upd = self.io_upd
        emit = self.p["emit"]
        free = self.free
        for i in range(inp.width):
            inp.set_ack(i, i < free)
        for k in range(upd.width):
            upd.set_ack(k, True)
        for j in range(out.width):
            seq = self._offers[j]
            entry = self.entry_by_seq(seq) if seq is not None else None
            if entry is None:
                out.send_nothing(j)
            else:
                out.send(j, emit(entry) if emit is not None else entry.value)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        upd = self.io_upd
        handler = self.p["on_update"]
        for k in range(upd.width):
            if upd.took(k):
                self.collect("updates")
                if handler is not None:
                    handler(self, upd.value(k))
        # Departures: remove entries whose offer transferred.
        for j in range(out.width):
            seq = self._offers[j]
            if seq is not None and out.took(j):
                entry = self.entry_by_seq(seq)
                if entry is not None:
                    self.record("residency", float(self.now - entry.born))
                    self.remove_seq(seq)
        # Insertions.
        on_insert = self.p["on_insert"]
        for i in range(inp.width):
            if inp.took(i):
                entry = BufferEntry(next(self._seq), inp.value(i), self.now)
                if on_insert is not None:
                    on_insert(self, entry)
                self.entries.append(entry)
                self.collect("inserted")
            elif inp.present(i):
                self.collect("full_stalls")
        self._offers = []
        self._offer_cycle = -1
