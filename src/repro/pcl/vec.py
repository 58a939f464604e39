"""Vectorized implementations of the stock PCL modules.

Each class here shadows one template from the parts catalog inside the
``batched`` engine's vec plan: it re-expresses the template's ``react`` /
``update`` bodies as ``(lanes,)``-wide array operations over
:class:`~repro.core.vec.VecPortIndex` adapters, while keeping the
module instances themselves the source of truth between runs
(``gather`` reads their state in, ``sync_out`` writes it back).

The golden rule is *bit identity*: every statistic increment, every
RNG draw, and every pending/queue mutation must happen for exactly the
lanes, in exactly the per-index order, that the scalar template's
Python body would produce.  Where the scalar body draws conditionally
(Source plans only unfilled indices) the vec body draws through a
masked :class:`~repro.core.vec.LaneRng`; where it draws unconditionally
(Sink redraws every index every cycle) the vec body draws every lane.
``supports`` rejects any parameter binding whose behaviour the array
form cannot reproduce exactly (callable payloads/policies, custom
generators, value recording) — those instances simply stay on the
per-lane scalar path.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import List, Sequence

import numpy as np

from ..ccl.link import Link
from ..core.vec import (VecModuleContext, params_vectorize,
                        register_vec_impl, same_widths)
from .arbiter import Arbiter, fixed_priority, round_robin
from .buffer import Buffer, BufferEntry, fifo_policy
from .queue import Delay, PipelineReg, Queue
from .routing import Demux, Mux, Tee
from .sink import Sink
from .source import Source

_VEC_SOURCE_PATTERNS = ("always", "bernoulli", "periodic", "counter")
_VEC_SINK_MODES = ("always", "never", "bernoulli")
#: Policies the vectorized arbiter reproduces exactly (compared by
#: identity: a user function that happens to share a name still runs
#: scalar).  ``oldest_first`` and custom policies sort on aging state in
#: ways worth keeping on the reference path.
_VEC_ARBITER_POLICIES = (fixed_priority, round_robin)


@register_vec_impl(Source)
class VecSource:
    """Array form of :class:`repro.pcl.source.Source`.

    Supports the stateless-payload patterns; ``list``/``custom``
    patterns, callable payloads, and None payloads (idle markers the
    pending mask could not distinguish) stay scalar.
    """

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        if not params_vectorize(insts) or not same_widths(insts, "out"):
            return False
        pattern = insts[0].p["pattern"]
        if pattern not in _VEC_SOURCE_PATTERNS:
            return False
        if pattern != "counter":
            for inst in insts:
                payload = inst.p["payload"]
                if payload is None or callable(payload):
                    return False
        return True

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.out = ctx.ports["out"]
        self.width = len(self.out)
        self.pattern = ctx.insts[0].p["pattern"]
        self.rng = None

    def gather(self) -> None:
        ctx = self.ctx
        insts = ctx.insts
        lanes = ctx.lanes
        self.payload = np.empty(lanes, object)
        for lane, inst in enumerate(insts):
            self.payload[lane] = inst.p["payload"]
        self.rate = np.array([inst.p["rate"] for inst in insts], float)
        self.period = np.array([inst.p["period"] for inst in insts],
                               np.int64)
        self.blocking = np.array([bool(inst.p["blocking"])
                                  for inst in insts], bool)
        self.counter = np.array([inst._counter for inst in insts], np.int64)
        self.pend = np.empty((self.width, lanes), object)
        self.has = np.zeros((self.width, lanes), bool)
        for lane, inst in enumerate(insts):
            for i, value in enumerate(inst._pending):
                self.pend[i, lane] = value
                self.has[i, lane] = value is not None
        # A fresh bank over the live per-instance generators: rebuilt
        # every run so an interleaved load_state_dict (which replaces
        # the generator state wholesale) is always honoured.
        self.rng = ctx.lane_rng() if self.pattern == "bernoulli" else None

    def react(self) -> None:
        for i, port in enumerate(self.out):
            port.send_masked(self.has[i], self.pend[i])

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        for i, port in enumerate(self.out):
            has = self.has[i]
            took = port.took_src()
            stats.add(path, "offered", has)
            emitted = has & took
            stats.add(path, "emitted", emitted)
            dropped = has & ~took & ~self.blocking
            stats.add(path, "dropped", dropped)
            cleared = emitted | dropped
            self.pend[i][cleared] = None
            has[cleared] = False
        self._plan(now + 1)

    def _plan(self, now: int) -> None:
        for i in range(self.width):
            need = ~self.has[i]
            if not need.any():
                continue
            if self.pattern == "counter":
                for lane in np.nonzero(need)[0]:
                    self.pend[i, lane] = int(self.counter[lane])
                self.counter[need] += 1
                self.has[i][need] = True
                continue
            if self.pattern == "always":
                emit = need
            elif self.pattern == "bernoulli":
                draws = self.rng.random(need)
                emit = need & (draws < self.rate)
            else:  # periodic
                emit = need & (now % self.period == 0)
            lanes = np.nonzero(emit)[0]
            self.pend[i][lanes] = self.payload[lanes]
            self.has[i][emit] = True

    def sync_out(self) -> None:
        for lane, inst in enumerate(self.ctx.insts):
            inst._pending = [
                self.pend[i, lane] if self.has[i, lane] else None
                for i in range(self.width)]
            inst._counter = int(self.counter[lane])
        if self.rng is not None:
            self.rng.sync_out()


@register_vec_impl(Sink)
class VecSink:
    """Array form of :class:`repro.pcl.sink.Sink`.

    Custom policies, consume callbacks and value recording stay scalar.
    """

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        if not params_vectorize(insts) or not same_widths(insts, "in"):
            return False
        if insts[0].p["accept"] not in _VEC_SINK_MODES:
            return False
        return all(inst.p["policy"] is None
                   and inst.p["on_consume"] is None
                   and not inst.p["record_values"] for inst in insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.width = len(self.inp)
        self.mode = ctx.insts[0].p["accept"]
        self.rng = None

    def gather(self) -> None:
        ctx = self.ctx
        insts = ctx.insts
        self.rate = np.array([inst.p["rate"] for inst in insts], float)
        self.accepts = np.zeros((self.width, ctx.lanes), bool)
        for lane, inst in enumerate(insts):
            for i, flag in enumerate(inst._accepts):
                self.accepts[i, lane] = flag
        self.rng = ctx.lane_rng() if self.mode == "bernoulli" else None

    def react(self) -> None:
        for i, port in enumerate(self.inp):
            port.set_ack_masked(self.accepts[i])

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        for i, port in enumerate(self.inp):
            took = port.took_dst()
            stats.add(path, "consumed", took)
            refused = port.present() & ~self.accepts[i] & ~took
            stats.add(path, "refused", refused)
        self._draw(now + 1)

    def _draw(self, now: int) -> None:
        for i in range(self.width):
            if self.mode == "always":
                self.accepts[i].fill(True)
            elif self.mode == "never":
                self.accepts[i].fill(False)
            else:  # bernoulli draws every lane, every index, every cycle
                self.accepts[i] = self.rng.random() < self.rate

    def sync_out(self) -> None:
        for lane, inst in enumerate(self.ctx.insts):
            inst._accepts = [bool(self.accepts[i, lane])
                             for i in range(self.width)]
        if self.rng is not None:
            self.rng.sync_out()


@register_vec_impl(Queue)
class VecQueue:
    """Array form of :class:`repro.pcl.queue.Queue` (single FIFO head).

    The buffer is a left-justified ``(lanes, max_depth)`` object array;
    multi-head queues (``out`` width > 1) and occupancy sampling stay
    scalar.
    """

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        # Shape checks hold for *every* lane, not just lane 0: a group
        # whose widths diverge would misaddress the SoA columns.
        if any(inst.port("out").width != 1 for inst in insts) \
                or not same_widths(insts, "in"):
            return False
        return params_vectorize(insts) \
            and not any(inst.p["sample_occupancy"] for inst in insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]
        self.in_width = len(self.inp)

    def gather(self) -> None:
        insts = self.ctx.insts
        lanes = self.ctx.lanes
        self.depth = np.array([inst.p["depth"] for inst in insts], np.int64)
        cap = int(self.depth.max())
        self.buf = np.empty((lanes, cap), object)
        self.buf.fill(None)
        self.count = np.zeros(lanes, np.int64)
        for lane, inst in enumerate(insts):
            items = list(inst.items)
            self.count[lane] = len(items)
            for k, value in enumerate(items):
                self.buf[lane, k] = value

    def react(self) -> None:
        free = self.depth - self.count
        for i, port in enumerate(self.inp):
            port.set_ack_masked(free > i)
        self.out[0].send_masked(self.count > 0, self.buf[:, 0])

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        # Heads leave first (the scalar body deletes accepted heads
        # before enqueueing), freeing their slot for this cycle's tail.
        took_out = self.out[0].took_src() & (self.count > 0)
        idx = np.nonzero(took_out)[0]
        if idx.size:
            self.buf[idx, :-1] = self.buf[idx, 1:]
            self.buf[idx, -1] = None
            self.count[idx] -= 1
        stats.add(path, "dequeued", took_out)
        for i, port in enumerate(self.inp):
            took = port.took_dst()
            jdx = np.nonzero(took)[0]
            if jdx.size:
                values = port.values()
                self.buf[jdx, self.count[jdx]] = values[jdx]
                self.count[jdx] += 1
            stats.add(path, "enqueued", took)
            stats.add(path, "full_stalls", port.present() & ~took)

    def sync_out(self) -> None:
        for lane, inst in enumerate(self.ctx.insts):
            inst.items = deque(self.buf[lane, k]
                               for k in range(int(self.count[lane])))


@register_vec_impl(Buffer)
class VecBuffer:
    """Array form of :class:`repro.pcl.buffer.Buffer`, FIFO discipline.

    Only the plain router-buffer instantiation vectorizes: the stock
    :func:`~repro.pcl.buffer.fifo_policy`, no update/insert handlers,
    no custom ``emit``, a single output head and no ``upd`` port.
    Algorithmic bindings (out-of-order windows, reorder buffers,
    squash handlers) call arbitrary Python per entry and stay on the
    per-lane scalar path.

    The pool is a left-justified ``(lanes, max_depth)`` object array of
    the instances' *live* :class:`~repro.pcl.buffer.BufferEntry`
    objects, so ``born``/``seq``/``meta`` survive the array round trip
    untouched.  Departures run before insertions, exactly as the scalar
    ``update`` removes accepted heads before appending this cycle's
    arrivals; residency samples are recorded per departing lane in
    cycle order, preserving each lane's histogram stream.
    """

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        # Validate the shape invariant across the whole group (lane 0
        # alone would let a mixed-width group corrupt column indexing).
        if any(inst.port("out").width != 1 or inst.port("upd").width != 0
               for inst in insts) or not same_widths(insts, "in"):
            return False
        return params_vectorize(insts) \
            and all(inst.p["select_policy"] is fifo_policy
                    and inst.p["on_update"] is None
                    and inst.p["on_insert"] is None
                    and inst.p["emit"] is None for inst in insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]

    def gather(self) -> None:
        insts = self.ctx.insts
        lanes = self.ctx.lanes
        self.depth = np.array([inst.p["depth"] for inst in insts], np.int64)
        cap = int(self.depth.max())
        self.buf = np.empty((lanes, cap), object)
        self.buf.fill(None)
        self.count = np.zeros(lanes, np.int64)
        # One draw anchors each lane's live seq counter; sync_out
        # reinstates it advanced by exactly the lane's insertions, the
        # position a scalar run would have left it in.
        self.next_seq = np.zeros(lanes, np.int64)
        for lane, inst in enumerate(insts):
            entries = list(inst.entries)
            self.count[lane] = len(entries)
            for k, entry in enumerate(entries):
                self.buf[lane, k] = entry
            self.next_seq[lane] = next(inst._seq)

    def react(self) -> None:
        free = self.depth - self.count
        for i, port in enumerate(self.inp):
            port.set_ack_masked(free > i)
        has = self.count > 0
        values = np.empty(self.ctx.lanes, object)
        for lane in np.nonzero(has)[0]:
            values[lane] = self.buf[lane, 0].value
        self.out[0].send_masked(has, values)

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        insts = self.ctx.insts
        # Departing heads leave (and record residency) before this
        # cycle's insertions land, matching the scalar update order.
        took_out = self.out[0].took_src() & (self.count > 0)
        idx = np.nonzero(took_out)[0]
        for lane in idx:
            insts[lane].record(
                "residency", float(now - self.buf[lane, 0].born))
        if idx.size:
            self.buf[idx, :-1] = self.buf[idx, 1:]
            self.buf[idx, -1] = None
            self.count[idx] -= 1
        stats.add(path, "removed", took_out)
        for i, port in enumerate(self.inp):
            took = port.took_dst()
            jdx = np.nonzero(took)[0]
            if jdx.size:
                values = port.values()
                for lane in jdx:
                    self.buf[lane, self.count[lane]] = BufferEntry(
                        int(self.next_seq[lane]), values[lane], now)
                    self.next_seq[lane] += 1
                self.count[jdx] += 1
            stats.add(path, "inserted", took)
            stats.add(path, "full_stalls", port.present() & ~took)

    def sync_out(self) -> None:
        for lane, inst in enumerate(self.ctx.insts):
            inst.entries = [self.buf[lane, k]
                            for k in range(int(self.count[lane]))]
            inst._seq = itertools.count(int(self.next_seq[lane]))
            inst._offers = []
            inst._offer_cycle = -1


@register_vec_impl(PipelineReg)
class VecPipelineReg:
    """Array form of :class:`repro.pcl.queue.PipelineReg` (Mealy).

    The register's output offer is pure state, driven whole-row at the
    first react; the input ack refines incrementally as downstream acks
    land (empty lanes ack immediately, full lanes mirror their output
    ack) — the scalar react's monotone resolution, replayed at every
    schedule occurrence.
    """

    MEALY = True

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        return params_vectorize(insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]

    def gather(self) -> None:
        insts = self.ctx.insts
        self.item = np.empty(self.ctx.lanes, object)
        for lane, inst in enumerate(insts):
            self.item[lane] = inst.item
        self.has = np.array([inst.item is not None for inst in insts], bool)

    def react(self) -> None:
        inp = self.inp[0]
        out = self.out[0]
        has = self.has
        out.send_masked(has, self.item)
        inp.set_ack_where(~has, True)
        inp.set_ack_where(has & out.ack_known(), out.accepted())

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        inp = self.inp[0]
        out = self.out[0]
        departed = self.has & out.took_src()
        stats.add(path, "moved", departed)
        stats.add(path, "stalled", self.has & ~departed & inp.present())
        self.item[departed] = None
        self.has[departed] = False
        took = inp.took_dst()
        if took.any():
            values = inp.values()
            self.item[took] = values[took]
            self.has[took] = True

    def sync_out(self) -> None:
        for lane, inst in enumerate(self.ctx.insts):
            inst.item = self.item[lane] if self.has[lane] else None


@register_vec_impl(Delay)
class VecDelay:
    """Array form of :class:`repro.pcl.queue.Delay` (Moore).

    ``latency`` and ``drop`` broadcast per lane; the in-flight and exit
    backlogs stay per-lane Python containers mutated only on the
    (sparse) lanes with events, in the scalar update's exact order.
    """

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        return params_vectorize(insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]

    def gather(self) -> None:
        ctx = self.ctx
        insts = ctx.insts
        self.latency = ctx.lane_param("latency", np.int64)
        self.drop = ctx.lane_param("drop", bool)
        self.inflight = [list(inst._inflight) for inst in insts]
        self.exits = [deque(inst._exit) for inst in insts]
        self.head = np.empty(ctx.lanes, object)
        self.has_exit = np.zeros(ctx.lanes, bool)
        self._all_true = np.ones(ctx.lanes, bool)
        self._refresh_heads()

    def _refresh_heads(self) -> None:
        for lane, backlog in enumerate(self.exits):
            if backlog:
                self.head[lane] = backlog[0]
                self.has_exit[lane] = True
            else:
                self.head[lane] = None
                self.has_exit[lane] = False

    def react(self) -> None:
        self.inp[0].set_ack_masked(self._all_true)
        self.out[0].send_masked(self.has_exit, self.head)

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        delivered = self.has_exit & self.out[0].took_src()
        dropped = self.has_exit & ~delivered & self.drop
        stats.add(path, "delivered", delivered)
        stats.add(path, "dropped", dropped)
        for lane in np.nonzero(delivered | dropped)[0]:
            self.exits[lane].popleft()
        inp = self.inp[0]
        took = inp.took_dst()
        stats.add(path, "accepted", took)
        if took.any():
            values = inp.values()
            ready = now + self.latency
            for lane in np.nonzero(took)[0]:
                self.inflight[lane].append((int(ready[lane]), values[lane]))
        horizon = now + 1
        for lane, flight in enumerate(self.inflight):
            if not flight:
                continue
            due = [pair for pair in flight if pair[0] <= horizon]
            if due:
                self.inflight[lane] = [p for p in flight if p[0] > horizon]
                self.exits[lane].extend(value for _, value in due)
        self._refresh_heads()

    def sync_out(self) -> None:
        for lane, inst in enumerate(self.ctx.insts):
            inst._inflight = list(self.inflight[lane])
            inst._exit = deque(self.exits[lane])


@register_vec_impl(Tee)
class VecTee:
    """Array form of :class:`repro.pcl.routing.Tee` (Mealy).

    Stateless: both modes are pure mask algebra over the input's
    handshake and the destinations' acks, refined per invocation.  The
    ``'all'`` mode reproduces the scalar atomic broadcast exactly —
    data offered early, enables and the input ack committed only on the
    lanes where every destination ack is known.
    """

    MEALY = True

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        return params_vectorize(insts) \
            and same_widths(insts, "in", "out")

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]
        self.mode = ctx.insts[0].p["mode"]

    def gather(self) -> None:
        pass

    def react(self) -> None:
        inp = self.inp[0]
        known = inp.known()
        if not known.any():
            return
        present = inp.present()
        absent = known & ~present
        if absent.any():
            for port in self.out:
                port.send_nothing_where(absent)
            inp.set_ack_where(absent, False)
        if not present.any():
            return
        values = inp.values()
        if self.mode == "any":
            decided = present.copy()
            any_accepted = np.zeros(self.ctx.lanes, bool)
            for port in self.out:
                port.send_where(present, values)
                decided &= port.ack_known()
                any_accepted |= port.accepted()
            inp.set_ack_where(decided, any_accepted)
            return
        # 'all' mode: offer data early, commit enables and the input
        # ack only where every destination's ack is known.
        decided = present.copy()
        unanimous = self.out[0].accepted()
        for port in self.out:
            port.drive_data_where(present, values)
            decided &= port.ack_known()
            unanimous = unanimous & port.accepted()
        if decided.any():
            for port in self.out:
                port.drive_enable_where(decided, unanimous)
            inp.set_ack_where(decided, unanimous)

    def update(self, now: int) -> None:
        self.ctx.stats.add(self.ctx.path, "broadcasts",
                           self.inp[0].took_dst())

    def sync_out(self) -> None:
        pass


@register_vec_impl(Mux)
class VecMux:
    """Array form of :class:`repro.pcl.routing.Mux` (Mealy).

    The selection is cached per cycle once a lane's ``sel`` resolves
    (committed signals are monotone within a step, so the cache can
    never observe a different choice); forwarding and the unselected
    refusals then refine as the chosen inputs and downstream ack land.
    """

    MEALY = True

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        return params_vectorize(insts) \
            and same_widths(insts, "in", "sel", "out")

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.sel = ctx.ports["sel"]
        self.out = ctx.ports["out"]
        self.n = len(self.inp)

    def gather(self) -> None:
        self.chosen = np.full(self.ctx.lanes, -1, np.int64)
        self.decided = np.zeros(self.ctx.lanes, bool)

    def react(self) -> None:
        sel = self.sel[0]
        out = self.out[0]
        sel_known = sel.known()
        if not sel_known.any():
            return
        sel.set_ack_where(sel_known, True)
        todo = sel_known & ~self.decided
        if todo.any():
            sel_present = sel.present()
            sel_values = sel.values()
            for lane in np.nonzero(todo)[0]:
                if sel_present[lane]:
                    index = sel_values[lane]
                    # bool is an int subclass here exactly as in the
                    # scalar body; numpy integers stay unselected there
                    # too, so the array form must not widen the check.
                    if isinstance(index, int) and 0 <= index < self.n:
                        self.chosen[lane] = index
            self.decided |= todo
        chosen = self.chosen
        none_chosen = self.decided & (chosen < 0)
        if none_chosen.any():
            out.send_nothing_where(none_chosen)
        for i, port in enumerate(self.inp):
            refuse = self.decided & (chosen != i) & port.known()
            if refuse.any():
                port.set_ack_where(refuse, False)
            mine = port.known() & self.decided & (chosen == i)
            if not mine.any():
                continue
            fwd = mine & port.present()
            if fwd.any():
                out.send_where(fwd, port.values())
                port.set_ack_where(fwd & out.ack_known(), out.accepted())
            idle = mine & ~port.present()
            if idle.any():
                out.send_nothing_where(idle)
                port.set_ack_where(idle, False)

    def update(self, now: int) -> None:
        self.ctx.stats.add(self.ctx.path, "selected",
                           self.out[0].took_src())
        self.chosen.fill(-1)
        self.decided.fill(False)

    def sync_out(self) -> None:
        pass


@register_vec_impl(Demux)
class VecDemux:
    """Array form of :class:`repro.pcl.routing.Demux` (Mealy).

    The algorithmic ``route`` callback stays scalar — called once per
    lane per cycle (the scalar engine may call it on every react
    invocation; route functions are pure by contract, so collapsing the
    repeats is observation-equivalent) — while the fan-out drives,
    ack mirroring and statistics run as masked array ops.
    """

    MEALY = True

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        return params_vectorize(insts) \
            and same_widths(insts, "in", "out") \
            and all(callable(inst.p["route"]) for inst in insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]
        self.width = len(self.out)

    def gather(self) -> None:
        self.target = np.full(self.ctx.lanes, -1, np.int64)
        self.routed = np.zeros(self.ctx.lanes, bool)

    def react(self) -> None:
        inp = self.inp[0]
        known = inp.known()
        if not known.any():
            return
        present = inp.present()
        absent = known & ~present
        if absent.any():
            for port in self.out:
                port.send_nothing_where(absent)
            inp.set_ack_where(absent, False)
        if not present.any():
            return
        values = inp.values()
        todo = present & ~self.routed
        if todo.any():
            now = self.ctx.now
            width = self.width
            insts = self.ctx.insts
            for lane in np.nonzero(todo)[0]:
                target = insts[lane].p["route"](values[lane], width, now)
                self.target[lane] = max(0, min(width - 1, int(target)))
            self.routed |= todo
        for j, port in enumerate(self.out):
            hit = present & (self.target == j)
            miss = present & self.routed & (self.target != j)
            if hit.any():
                port.send_where(hit, values)
                inp.set_ack_where(hit & port.ack_known(), port.accepted())
            if miss.any():
                port.send_nothing_where(miss)

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        insts = self.ctx.insts
        for j, port in enumerate(self.out):
            took = port.took_src()
            stats.add(path, "routed", took)
            for lane in np.nonzero(took)[0]:
                insts[lane].record("route_to", float(j))
        self.target.fill(-1)
        self.routed.fill(False)

    def sync_out(self) -> None:
        pass


@register_vec_impl(Arbiter)
class VecArbiter:
    """Array form of :class:`repro.pcl.arbiter.Arbiter` (Mealy).

    Only the stock ``fixed_priority`` and ``round_robin`` policies
    vectorize (matched by identity).  The grant decision itself is a
    per-lane scalar call into the policy against the lane's *live*
    ``state`` dict; everything around it — request collection, winner
    forwarding, loser nacks, ack mirroring, grant bookkeeping — runs as
    masked array ops.  Decisions are memoized into the instances'
    ``_grants``/``_grant_cycle`` exactly as the scalar react memoizes
    its own once-per-cycle computation: a fallback re-react then takes
    the scalar body's replay path (identical re-drives, no double
    ``conflicts`` count), and lanes the fallback decided *for* us are
    read back from the same fields in ``update``.
    """

    MEALY = True

    @classmethod
    def supports(cls, insts: Sequence) -> bool:
        policy = insts[0].p["policy"]
        if not any(policy is allowed for allowed in _VEC_ARBITER_POLICIES):
            return False
        return params_vectorize(insts) \
            and same_widths(insts, "in", "out") \
            and all(inst.p["policy"] is policy for inst in insts)

    def __init__(self, ctx: VecModuleContext):
        self.ctx = ctx
        self.inp = ctx.ports["in"]
        self.out = ctx.ports["out"]
        self.n = len(self.inp)
        self.m = len(self.out)
        self.policy = ctx.insts[0].p["policy"]

    def gather(self) -> None:
        lanes = self.ctx.lanes
        self.gmat = np.full((self.m, lanes), -1, np.int64)
        self.gdone = np.zeros(lanes, bool)

    def react(self) -> None:
        inp = self.inp
        out = self.out
        all_known = inp[0].known()
        for port in inp[1:]:
            all_known = all_known & port.known()
        if not all_known.any():
            return
        presence = [port.present() for port in inp]
        todo = all_known & ~self.gdone
        if todo.any():
            now = self.ctx.now
            insts = self.ctx.insts
            conflicts = np.zeros(self.ctx.lanes, np.int64)
            for lane in np.nonzero(todo)[0]:
                requesters = [i for i in range(self.n)
                              if presence[i][lane]]
                inst = insts[lane]
                state = inst.state
                for i in requesters:
                    state["since"].setdefault(i, now)
                grants = list(self.policy(requesters, state, now))[:self.m]
                # Memoize exactly as the scalar react does, so a
                # fallback re-react replays instead of recomputing.
                inst._grants = grants
                inst._grant_cycle = now
                for j, i in enumerate(grants):
                    self.gmat[j, lane] = i
                if len(requesters) > len(grants):
                    conflicts[lane] = 1
            self.gdone |= todo
            self.ctx.stats.add(self.ctx.path, "conflicts", conflicts)
        done = self.gdone
        granted = np.zeros((self.n, self.ctx.lanes), bool)
        for j, oport in enumerate(out):
            src = self.gmat[j]
            idle = done & (src < 0)
            if idle.any():
                oport.send_nothing_where(idle)
            for i, iport in enumerate(inp):
                mine = done & (src == i)
                if not mine.any():
                    continue
                granted[i] |= mine
                oport.send_where(mine, iport.values())
                iport.set_ack_where(mine & oport.ack_known(),
                                    oport.accepted())
        for i, iport in enumerate(inp):
            losers = done & ~granted[i]
            if losers.any():
                iport.set_ack_where(losers, False)

    def update(self, now: int) -> None:
        stats = self.ctx.stats
        path = self.ctx.path
        insts = self.ctx.insts
        tooks = [port.took_src() for port in self.out]
        grants = np.zeros(self.ctx.lanes, np.int64)
        for lane, inst in enumerate(insts):
            # inst._grants covers both vec-decided lanes and lanes a
            # scalar fallback react decided on our behalf.
            state = inst.state
            for j, i in enumerate(inst._grants):
                if tooks[j][lane]:
                    grants[lane] += 1
                    state["last"] = i
                    state["since"].pop(i, None)
        stats.add(path, "grants", grants)
        presence = [port.present() for port in self.inp]
        for lane, inst in enumerate(insts):
            state = inst.state
            if state["since"]:
                for i in list(state["since"]):
                    if not presence[i][lane]:
                        state["since"].pop(i, None)
            inst._grants = []
            inst._grant_cycle = -1
        self.gmat.fill(-1)
        self.gdone.fill(False)

    def sync_out(self) -> None:
        pass


@register_vec_impl(Link)
class VecLink(VecDelay):
    """Array form of :class:`repro.ccl.link.Link` (Moore).

    Extends :class:`VecDelay` with the link's accounting: per-lane
    ``packet.hops`` increments for payloads that track hops, and the
    ``flits`` statistic (sum of carried packet sizes).  Both happen
    before the inherited delay bookkeeping — the scalar ``update``
    order — and ``touch`` keeps zero-size flit samples visible, like
    the scalar ``collect`` of a zero amount.
    """

    def update(self, now: int) -> None:
        inp = self.inp[0]
        took = inp.took_dst()
        if took.any():
            values = inp.values()
            sizes = np.zeros(self.ctx.lanes, np.int64)
            for lane in np.nonzero(took)[0]:
                packet = values[lane]
                if hasattr(packet, "hops"):
                    packet.hops += 1
                sizes[lane] = getattr(packet, "size", 1)
            self.ctx.stats.add(self.ctx.path, "flits", sizes)
            self.ctx.stats.touch(self.ctx.path, "flits", took)
        super().update(now)


__all__: List[str] = [
    "VecSource", "VecSink", "VecQueue", "VecBuffer", "VecPipelineReg",
    "VecDelay", "VecLink", "VecTee", "VecMux", "VecDemux", "VecArbiter",
]
