"""Structure-of-arrays lane state for the vectorized batched backend.

The compiled-model IR makes a design's schedule and wire partition a
function of structure alone, so N same-fingerprint lanes resolve every
signal in the *same order*.  This module provides the data layer that
turns that into numpy array operations:

* :class:`VecWires` — the three signals of each vectorizable wire as
  ``(wires, lanes)`` int8 planes (one ``(lanes,)`` row per wire) plus an
  object-dtype value plane, with one-fill step reset, a vectorized
  end-of-step transfer scan, and gather/scatter converters to and from
  the same slots of the per-lane
  :class:`~repro.core.signals.SignalStore` planes;
* :class:`LaneRng` — a bank of the module instances' own per-lane
  ``numpy`` Generators, pre-drawing blocks of uniforms per lane and
  consuming them through a cursor.  ``Generator.random(n)`` produces the
  same stream as ``n`` scalar ``random()`` calls, and ``sync_out``
  rewinds each live generator to its pre-gather state and re-advances it
  by exactly the consumed count, so the bank is *bit-identical* to
  scalar execution — the property the differential tests enforce;
* :class:`VecStats` — per-lane integer counter accumulators flushed
  into each lane's :class:`~repro.core.collector.StatsRegistry` (counter
  addition is commutative, so deferred flushing cannot reorder totals);
* :class:`VecPortIndex` — the port adapter vectorized module
  implementations drive.  A port index backed by a vectorizable wire is
  one SoA row; an index on a boundary wire (scalar neighbour, control
  function, attached probe) falls back to per-lane drives through the
  real ``Wire`` methods, so one demoted wire never demotes its module;
* the vec-implementation registry (:func:`register_vec_impl`) and the
  compile-time feature detection (:func:`build_vec_plan`) that decides,
  per instance and per wire, what runs vectorized and what stays on the
  per-lane scalar path.

A wire is vectorizable iff both endpoints are vectorized instances, it
carries no control function, and no lane watches it with a probe.  An
instance is vectorizable iff its exact template class has a registered
implementation that supports the lanes' parameter bindings, it sits in
no combinational cluster, and at least one of its wires vectorizes (an
all-boundary instance would only add adapter overhead).  Moore
instances (``deps() == {}``) run their whole array react once per
timestep; Mealy templates need an implementation declaring
``MEALY = True``, whose react is *re-entrant*: it runs at every
schedule occurrence of the instance, resolving incrementally exactly
like the scalar react body it shadows (monotone, partial drives
through the ``*_where`` port ops).  Everything else runs the per-lane
scalar path, and whenever a step observer or contract monitor is
attached every lane runs its own static stepper; a profiler keeps the
plan (see :mod:`repro.core.batched`).
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .errors import SimulationError
from .signals import CtrlStatus, DataStatus

#: Bump when plan semantics change (what vectorizes, the portable
#: payload shape); folded into the composite vec cache key so stale
#: on-disk plans are never adopted.
VEC_VERSION = 1

#: Total plan analyses in this process — advanced by both
#: :func:`plan_vec_structure` (compile-time) and :func:`build_vec_plan`
#: (live), but *not* by :func:`adopt_vec_plan`.  The staged-compilation
#: tests assert this stays flat across warm builds and shipped-plan
#: adoption.
PLAN_BUILDS = 0


def vec_cache_key(fingerprint: str, opt_level: int,
                  lanes_class: str = "any") -> str:
    """The compile-cache key of one vec-planned artifact.

    Composite over the structural fingerprint, the opt level the plan
    was computed against, the lane-shape class (``"any"`` today: the
    portable payload is lane-count independent, lane-specific checks
    run at adoption) and both stage versions, so a pass- or
    plan-behavior change invalidates exactly the stale entries.
    """
    from .opt import OPT_VERSION
    return (f"{fingerprint}@opt{opt_level}+vec{lanes_class}"
            f".{OPT_VERSION}/{VEC_VERSION}")

#: int8 signal codes; identical to the IntEnum values so a round-trip
#: ``DataStatus(int(code))`` lands on the enum singleton the scalar
#: engine's ``is`` comparisons expect.
D_UNKNOWN = int(DataStatus.UNKNOWN)
D_NOTHING = int(DataStatus.NOTHING)
D_SOMETHING = int(DataStatus.SOMETHING)
C_UNKNOWN = int(CtrlStatus.UNKNOWN)
C_DEASSERTED = int(CtrlStatus.DEASSERTED)
C_ASSERTED = int(CtrlStatus.ASSERTED)


class LaneRng:
    """A vectorized, bit-identical view over per-lane Generators.

    Wraps the *live* ``numpy.random.Generator`` objects owned by one
    module instance per lane.  Draws are served from per-lane pre-drawn
    blocks; :meth:`sync_out` restores each generator to its pre-gather
    state and advances it by exactly the number of values the lane
    consumed, so after a sync the live generator sits precisely where a
    scalar run would have left it (blocked lookahead is discarded).
    """

    __slots__ = ("_rngs", "_saved", "_consumed", "_block", "_buf", "_cur")

    def __init__(self, rngs: Sequence, block: int = 256):
        self._rngs = list(rngs)
        lanes = len(self._rngs)
        self._block = block
        self._buf = np.zeros((lanes, block))
        self._cur = np.full(lanes, block, np.int64)
        self._saved = [copy.deepcopy(g.bit_generator.state)
                       for g in self._rngs]
        self._consumed = np.zeros(lanes, np.int64)

    def random(self, mask: Optional[np.ndarray] = None) -> np.ndarray:
        """One uniform draw per selected lane (all lanes when ``mask``
        is None).  Unselected lanes consume nothing and return 0.0."""
        cur = self._cur
        exhausted = cur >= self._block
        if mask is None:
            lanes = np.arange(len(self._rngs))
            refill = np.nonzero(exhausted)[0]
        else:
            lanes = np.nonzero(mask)[0]
            refill = np.nonzero(mask & exhausted)[0]
        for lane in refill:
            self._buf[lane] = self._rngs[lane].random(self._block)
            cur[lane] = 0
        out = np.zeros(len(self._rngs))
        out[lanes] = self._buf[lanes, cur[lanes]]
        cur[lanes] += 1
        self._consumed[lanes] += 1
        return out

    def sync_out(self) -> None:
        """Leave every live generator exactly where scalar execution
        would have: rewind to the saved state, redraw the consumed
        count, and re-anchor for the next gather-free period."""
        for lane, gen in enumerate(self._rngs):
            consumed = int(self._consumed[lane])
            gen.bit_generator.state = copy.deepcopy(self._saved[lane])
            if consumed:
                gen.random(consumed)
            self._saved[lane] = copy.deepcopy(gen.bit_generator.state)
            self._consumed[lane] = 0
        self._cur.fill(self._block)


class VecStats:
    """Per-lane integer counter accumulators, flushed commutatively."""

    __slots__ = ("_counts", "_touched", "lanes")

    def __init__(self, lanes: int):
        self._counts: Dict[tuple, np.ndarray] = {}
        self._touched: Dict[tuple, np.ndarray] = {}
        self.lanes = lanes

    def add(self, path: str, name: str, amounts: np.ndarray) -> None:
        key = (path, name)
        acc = self._counts.get(key)
        if acc is None:
            acc = self._counts[key] = np.zeros(self.lanes, np.int64)
        acc += amounts

    def touch(self, path: str, name: str, mask: np.ndarray) -> None:
        """Mark the counter as *touched* on the masked lanes.

        The scalar ``StatsRegistry.add`` creates its key even for a
        zero amount, so a template that collects a zero-valued sample
        (e.g. a Link forwarding a zero-size packet) leaves a visible
        ``0`` entry.  Flushing skips zero deltas for dict-equality
        parity with lanes that never collected at all — ``touch`` is
        how a vec implementation distinguishes "collected zero" from
        "never collected" per lane."""
        key = (path, name)
        touched = self._touched.get(key)
        if touched is None:
            touched = self._touched[key] = np.zeros(self.lanes, bool)
        touched |= mask

    def flush(self, lane_sims: Sequence) -> None:
        """Add the accumulated deltas into each lane's registry.

        Zero deltas are skipped — unless the lane was explicitly
        touched — so a counter a scalar run never touched stays absent
        from the registry (dict-equality parity)."""
        for (path, name), acc in self._counts.items():
            touched = self._touched.get((path, name))
            for lane, sim in enumerate(lane_sims):
                n = int(acc[lane])
                if n or (touched is not None and touched[lane]):
                    sim.stats.add(path, name, n)
            acc.fill(0)
        for (path, name), touched in self._touched.items():
            if (path, name) not in self._counts:
                for lane, sim in enumerate(lane_sims):
                    if touched[lane]:
                        sim.stats.add(path, name, 0)
            touched.fill(False)


#: int8 code -> enum member, for writing array state back into a store.
_DATA = (DataStatus.UNKNOWN, DataStatus.NOTHING, DataStatus.SOMETHING)
_CTRL = (CtrlStatus.UNKNOWN, CtrlStatus.DEASSERTED, CtrlStatus.ASSERTED)


class VecWires:
    """The SoA signal planes of every vectorizable wire.

    Row ``r`` shadows slot ``slots[r]`` of every lane's signal store
    (same-fingerprint lanes wire in the same order, so a slot means the
    same wire on each).  While a plan is active the lanes park those
    slots (see ``SignalStore.park``) so engine-side relaxation scans
    skip them; :meth:`scatter` writes the array state back, enum
    members and raw mirrors included, and :meth:`absorb` reads it home.
    """

    __slots__ = ("stores", "slots", "data", "enable", "ack", "value",
                 "transfers", "rows", "lanes")

    def __init__(self, stores: List[Any], slots: List[int]):
        self.stores = stores
        self.slots = slots
        self.rows = len(slots)
        self.lanes = len(stores)
        shape = (self.rows, self.lanes)
        self.data = np.zeros(shape, np.int8)
        self.enable = np.zeros(shape, np.int8)
        self.ack = np.zeros(shape, np.int8)
        self.value = np.empty(shape, object)
        self.transfers = np.zeros(shape, np.int64)

    def gather(self) -> None:
        slots = self.slots
        for lane, store in enumerate(self.stores):
            counts = store.transfers
            self.transfers[:, lane] = [counts[s] for s in slots]

    def begin_step(self) -> None:
        self.data.fill(D_UNKNOWN)
        self.enable.fill(C_UNKNOWN)
        self.ack.fill(C_UNKNOWN)
        self.value.fill(None)

    def any_unknown(self) -> bool:
        """True when any plane index is still unresolved."""
        return bool((self.data == D_UNKNOWN).any()
                    or (self.enable == C_UNKNOWN).any()
                    or (self.ack == C_UNKNOWN).any())

    def unknown_by_lane(self) -> np.ndarray:
        """Per-lane count of unresolved plane signals (data/enable/ack
        each count one, mirroring the stores' ``unknown`` budget)."""
        return ((self.data == D_UNKNOWN).astype(np.int64)
                + (self.enable == C_UNKNOWN)
                + (self.ack == C_UNKNOWN)).sum(axis=0)

    def absorb(self) -> None:
        """Read the lanes' committed signals back into the planes — the
        signal-plane inverse of :meth:`scatter` (transfer counters stay
        array-side).  Used after a scalar fallback resolved signals a
        Mealy implementation had to leave unknown: :meth:`scatter` hands
        the planes to the lanes, the fallback's re-reacts and relaxation
        finish the resolution in the stores, and absorb brings the
        result home before the transfer scan."""
        slots = self.slots
        for lane, store in enumerate(self.stores):
            ds, dv, en, ak = store.ds, store.dv, store.en, store.ak
            self.data[:, lane] = [ds[s] for s in slots]
            value = self.value[:, lane]
            for row, s in enumerate(slots):
                value[row] = dv[s]  # elementwise: a datum may be a sequence
            self.enable[:, lane] = [en[s] for s in slots]
            self.ack[:, lane] = [ak[s] for s in slots]

    def end_step(self) -> np.ndarray:
        """Vectorized transfer scan; returns per-lane transfer counts.

        Vectorized wires carry no control function, so raw and
        committed coincide and the classic rule applies row-wide."""
        if (self.data == D_UNKNOWN).any() or \
                (self.enable == C_UNKNOWN).any() or \
                (self.ack == C_UNKNOWN).any():
            raise SimulationError(
                "vectorized wire left unresolved; a registered vec "
                "implementation failed to drive every index")
        took = ((self.data == D_SOMETHING)
                & (self.enable == C_ASSERTED)
                & (self.ack == C_ASSERTED))
        self.transfers += took
        return took.sum(axis=0)

    def scatter(self) -> None:
        """Write the array state back into the lanes' store slots."""
        slots = self.slots
        for lane, store in enumerate(self.stores):
            ds, dv, en, ak = store.ds, store.dv, store.en, store.ak
            rds, rdv, ren, rak = store.rds, store.rdv, store.ren, store.rak
            counts = store.transfers
            for s, data, value, enable, ack, n in zip(
                    slots, self.data[:, lane].tolist(),
                    self.value[:, lane].tolist(),
                    self.enable[:, lane].tolist(),
                    self.ack[:, lane].tolist(),
                    self.transfers[:, lane].tolist()):
                ds[s] = rds[s] = _DATA[data]
                dv[s] = rdv[s] = value if data == D_SOMETHING else None
                en[s] = ren[s] = _CTRL[enable]
                ak[s] = rak[s] = _CTRL[ack]
                counts[s] = n


class VecPortIndex:
    """One (port, index) across all lanes: SoA row or scalar boundary.

    Vectorized module implementations speak only this adapter.  On a
    vectorizable wire the operations are row-wide array ops; on a
    boundary wire they loop the lanes through the real drive methods of
    each lane's signal store at the wire's ``slot``, so monotonicity
    checks, control functions, constant stubs and the lanes' unknown
    accounting all keep working.
    """

    __slots__ = ("vw", "row", "slot", "lanes")

    def __init__(self, vw: VecWires, row: Optional[int],
                 slot: Optional[int]):
        self.vw = vw
        self.row = row
        self.slot = slot
        self.lanes = vw.lanes

    @property
    def is_vec(self) -> bool:
        return self.row is not None

    # -- source-side writes ------------------------------------------------
    def send_masked(self, mask: np.ndarray, values: np.ndarray) -> None:
        """``send(value)`` where mask, ``send_nothing()`` elsewhere."""
        if self.row is not None:
            vw = self.vw
            row = self.row
            vw.data[row] = np.where(mask, D_SOMETHING, D_NOTHING)
            vw.value[row] = np.where(mask, values, None)
            vw.enable[row] = np.where(mask, C_ASSERTED, C_DEASSERTED)
            return
        slot = self.slot
        for lane, store in enumerate(self.vw.stores):
            if mask[lane]:
                store.drive_data(slot, DataStatus.SOMETHING, values[lane])
                store.drive_enable(slot, True)
            else:
                store.drive_data(slot, DataStatus.NOTHING)
                store.drive_enable(slot, False)

    def send_where(self, mask: np.ndarray, values: np.ndarray) -> None:
        """``send(value)`` on exactly the lanes in ``mask``; other lanes
        stay untouched (unknown until some later react resolves them).
        The partial-drive primitive Mealy implementations refine with."""
        if self.row is not None:
            vw = self.vw
            row = self.row
            vw.data[row][mask] = D_SOMETHING
            vw.value[row][mask] = values[mask]
            vw.enable[row][mask] = C_ASSERTED
            return
        stores, slot = self.vw.stores, self.slot
        for lane in np.nonzero(mask)[0]:
            stores[lane].drive_data(slot, DataStatus.SOMETHING, values[lane])
            stores[lane].drive_enable(slot, True)

    def send_nothing_where(self, mask: np.ndarray) -> None:
        """``send_nothing()`` on exactly the lanes in ``mask``."""
        if self.row is not None:
            vw = self.vw
            row = self.row
            vw.data[row][mask] = D_NOTHING
            vw.enable[row][mask] = C_DEASSERTED
            return
        stores, slot = self.vw.stores, self.slot
        for lane in np.nonzero(mask)[0]:
            stores[lane].drive_data(slot, DataStatus.NOTHING)
            stores[lane].drive_enable(slot, False)

    def drive_data_where(self, mask: np.ndarray,
                         values: np.ndarray) -> None:
        """Offer a datum without committing enable (Tee's atomic
        broadcast idiom) on exactly the lanes in ``mask``."""
        if self.row is not None:
            vw = self.vw
            row = self.row
            vw.data[row][mask] = D_SOMETHING
            vw.value[row][mask] = values[mask]
            return
        stores, slot = self.vw.stores, self.slot
        for lane in np.nonzero(mask)[0]:
            stores[lane].drive_data(slot, DataStatus.SOMETHING, values[lane])

    def drive_enable_where(self, mask: np.ndarray,
                           asserted: np.ndarray) -> None:
        """Drive enable per lane in ``mask``; ``asserted`` is a per-lane
        bool array read only where the mask selects."""
        if self.row is not None:
            row = self.vw.enable[self.row]
            row[mask] = np.where(asserted, C_ASSERTED, C_DEASSERTED)[mask]
            return
        stores, slot = self.vw.stores, self.slot
        for lane in np.nonzero(mask)[0]:
            stores[lane].drive_enable(slot, bool(asserted[lane]))

    # -- destination-side writes -------------------------------------------
    def set_ack_masked(self, mask: np.ndarray) -> None:
        if self.row is not None:
            self.vw.ack[self.row] = np.where(mask, C_ASSERTED, C_DEASSERTED)
            return
        slot = self.slot
        for lane, store in enumerate(self.vw.stores):
            store.drive_ack(slot, bool(mask[lane]))

    def set_ack_where(self, mask: np.ndarray, accept) -> None:
        """Drive ack on exactly the lanes in ``mask``.  ``accept`` is a
        plain bool applied to every selected lane, or a per-lane bool
        array read where the mask selects."""
        if self.row is not None:
            ack = self.vw.ack[self.row]
            if isinstance(accept, np.ndarray):
                ack[mask] = np.where(accept, C_ASSERTED, C_DEASSERTED)[mask]
            else:
                ack[mask] = C_ASSERTED if accept else C_DEASSERTED
            return
        stores, slot = self.vw.stores, self.slot
        scalar = not isinstance(accept, np.ndarray)
        for lane in np.nonzero(mask)[0]:
            stores[lane].drive_ack(
                slot, bool(accept) if scalar else bool(accept[lane]))

    # -- update-phase reads ------------------------------------------------
    def _took_vec(self) -> np.ndarray:
        vw = self.vw
        row = self.row
        return ((vw.data[row] == D_SOMETHING)
                & (vw.enable[row] == C_ASSERTED)
                & (vw.ack[row] == C_ASSERTED))

    def _per_lane(self, read, dtype=bool) -> np.ndarray:
        """``read(store, slot)`` of every lane's boundary slot."""
        slot = self.slot
        out = np.empty(self.lanes, dtype)
        for lane, store in enumerate(self.vw.stores):
            out[lane] = read(store, slot)
        return out

    def took_src(self) -> np.ndarray:
        if self.row is not None:
            return self._took_vec()
        return self._per_lane(lambda store, s: store.took_src(s))

    def took_dst(self) -> np.ndarray:
        if self.row is not None:
            return self._took_vec()
        return self._per_lane(lambda store, s: store.took_dst(s))

    def present(self) -> np.ndarray:
        if self.row is not None:
            vw = self.vw
            row = self.row
            return ((vw.data[row] == D_SOMETHING)
                    & (vw.enable[row] == C_ASSERTED))
        return self._per_lane(
            lambda store, s: store.ds[s] is DataStatus.SOMETHING
            and store.en[s] is CtrlStatus.ASSERTED)

    def values(self) -> np.ndarray:
        """Per-lane committed data values (None where no datum)."""
        if self.row is not None:
            return self.vw.value[self.row]
        return self._per_lane(lambda store, s: store.dv[s], object)

    # -- react-phase handshake reads ---------------------------------------
    def known(self) -> np.ndarray:
        """Per-lane: data and enable both resolved (``InView.known``)."""
        if self.row is not None:
            vw = self.vw
            row = self.row
            return ((vw.data[row] != D_UNKNOWN)
                    & (vw.enable[row] != C_UNKNOWN))
        return self._per_lane(
            lambda store, s: store.ds[s] is not DataStatus.UNKNOWN
            and store.en[s] is not CtrlStatus.UNKNOWN)

    def ack_known(self) -> np.ndarray:
        if self.row is not None:
            return self.vw.ack[self.row] != C_UNKNOWN
        return self._per_lane(
            lambda store, s: store.ak[s] is not CtrlStatus.UNKNOWN)

    def accepted(self) -> np.ndarray:
        """Per-lane: ack asserted (False where unknown — pair with
        :meth:`ack_known` exactly as the scalar views do)."""
        if self.row is not None:
            return self.vw.ack[self.row] == C_ASSERTED
        return self._per_lane(
            lambda store, s: store.ak[s] is CtrlStatus.ASSERTED)


class VecModuleContext:
    """What one vectorized instance's implementation gets to work with."""

    __slots__ = ("path", "insts", "ports", "stats", "lanes")

    def __init__(self, path: str, insts: List[Any],
                 ports: Dict[str, List[VecPortIndex]], stats: VecStats):
        self.path = path
        self.insts = insts
        self.ports = ports
        self.stats = stats
        self.lanes = len(insts)

    def lane_rng(self, attr: str = "rng") -> LaneRng:
        """A :class:`LaneRng` bank over the instances' own generators."""
        return LaneRng([getattr(inst, attr) for inst in self.insts])

    @property
    def now(self) -> int:
        """The lockstep timestep (every lane shares it)."""
        return self.insts[0].sim.now

    def lane_param(self, key: str, dtype=np.float64) -> np.ndarray:
        """Parameter ``key`` lifted across lanes as a ``(lanes,)`` array.

        The per-lane parameter broadcast: lane-divergent numeric
        bindings (rates, depths, latencies, periods) become one array
        consumed through masked ops instead of demoting the group to
        the scalar path."""
        return np.array([inst.p[key] for inst in self.insts], dtype)


_NUMERIC = (bool, int, float, np.bool_, np.integer, np.floating)


def params_vectorize(insts: Sequence) -> bool:
    """Generic parameter feature check driven by the scalar template's
    introspection hooks:

    * ``VEC_LANE_PARAMS`` — numeric parameters the vec implementation
      consumes as per-lane arrays via :meth:`VecModuleContext.
      lane_param`; every lane's binding must be a plain number, but the
      values are free to diverge across lanes;
    * ``VEC_UNIFORM_PARAMS`` — structural parameters that select the
      implementation's code path; every lane must bind the same value.

    Parameters outside both tuples are the implementation's own
    responsibility to check (callables, payload specs, policies).
    """
    cls = type(insts[0])
    first = insts[0]
    for key in getattr(cls, "VEC_UNIFORM_PARAMS", ()):
        ref = first.p[key]
        if any(inst.p[key] != ref for inst in insts[1:]):
            return False
    for key in getattr(cls, "VEC_LANE_PARAMS", ()):
        if any(not isinstance(inst.p[key], _NUMERIC) for inst in insts):
            return False
    return True


def same_widths(insts: Sequence, *port_names: str) -> bool:
    """True when every lane binds the named ports at lane 0's width.

    Same-fingerprint lanes normally agree, but hand-built groups (and
    future fingerprint relaxations) can diverge — a vec implementation
    indexing by lane 0's width would then silently misaddress, so every
    ``supports()`` validates the whole group."""
    first = insts[0]
    for name in port_names:
        width = first.port(name).width
        if any(inst.port(name).width != width for inst in insts[1:]):
            return False
    return True


# ----------------------------------------------------------------------
# Vec-implementation registry
# ----------------------------------------------------------------------
#: Exact template class -> implementation class.  Exact-type keyed so a
#: subclass with an overridden react() is never wrongly vectorized.
_VEC_IMPLS: Dict[type, type] = {}
_BUILTINS_LOADED = False


def register_vec_impl(module_cls: type):
    """Class decorator registering a vectorized implementation.

    The implementation class must provide ``supports(insts)`` (a
    classmethod deciding whether the per-lane instances' parameter
    bindings are vectorizable), ``__init__(ctx)``, ``gather()``,
    ``react()``, ``update(now)`` and ``sync_out()``.
    """
    def decorate(impl_cls: type) -> type:
        _VEC_IMPLS[module_cls] = impl_cls
        return impl_cls
    return decorate


def vec_impl_for(module_cls: type) -> Optional[type]:
    """The registered implementation for ``module_cls`` (exact match)."""
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        # Built-in implementations live with the modules they shadow;
        # imported lazily so the core never depends on the PCL layer.
        import importlib
        importlib.import_module("repro.pcl.vec")
    return _VEC_IMPLS.get(module_cls)


# ----------------------------------------------------------------------
# The compile-time plan
# ----------------------------------------------------------------------
class VecPlanMismatch(Exception):
    """A shipped vec payload does not apply to these lanes as planned.

    Raised by :func:`adopt_vec_plan` when a lane-level property the
    compile-time planner cannot see (a probe on a planned wire, a
    lane-divergent parameter binding the single-instance proxy
    accepted, a registry drift) invalidates the payload.  The caller
    falls back to a live :func:`build_vec_plan`.
    """


class VecPlan:
    """The feature-detected vectorization plan for one batch.

    ``entry_ops`` parallels the schedule: ``("vec", k)`` runs the k-th
    vectorized react, ``("skip",)`` is a later entry of an already-run
    vec instance, ``("cluster",)`` iterates the per-lane cluster, and
    ``("scalar",)`` runs the lanes' flat react list for the entry.

    ``demotions`` is the per-wire demotion log — ``(wire_key, reason)``
    pairs for every live wire that did *not* vectorize (opt-parked
    wires are excluded from planning entirely and never appear: parked
    is not demoted).  ``origin`` records how the plan came to be:
    ``"live"`` (feature-detected against these lanes) or ``"adopted"``
    (instantiated from a cached compile-time payload).
    """

    __slots__ = ("vw", "impls", "stats", "entry_ops", "vec_paths",
                 "wire_positions", "demotions", "origin")

    def __init__(self, vw: VecWires, impls: List[Any], stats: VecStats,
                 entry_ops: List[tuple], vec_paths: set,
                 wire_positions: List[int],
                 demotions: Optional[List[tuple]] = None,
                 origin: str = "live"):
        self.vw = vw
        self.impls = impls
        self.stats = stats
        self.entry_ops = entry_ops
        self.vec_paths = vec_paths
        self.wire_positions = wire_positions
        self.demotions = list(demotions or ())
        self.origin = origin

    @property
    def n_wires(self) -> int:
        return len(self.wire_positions)

    def gather(self) -> None:
        self.vw.gather()
        for impl in self.impls:
            impl.gather()

    def scatter_state(self) -> None:
        """Write wire and module state back to the lanes (mid-step safe:
        statistics stay accumulated until :meth:`flush_stats`)."""
        self.vw.scatter()
        for impl in self.impls:
            impl.sync_out()

    def flush_stats(self, lane_sims: Sequence) -> None:
        self.stats.flush(lane_sims)


def _candidate_ok(impl_cls: type, cls: type, insts: Sequence, path: str,
                  cluster_paths: set) -> bool:
    """The per-instance vectorization test, shared by planning and
    adoption so a shipped plan is validated by exactly the rules that
    produced it."""
    if path in cluster_paths:
        return False
    if any(type(inst) is not cls for inst in insts):
        return False
    if not getattr(impl_cls, "MEALY", False) \
            and any(inst.deps() != {} for inst in insts):
        # A Moore-only implementation cannot shadow a template with
        # input-dependent outputs; Mealy-capable impls opt in.
        return False
    return bool(impl_cls.supports(insts))


def _cluster_paths(schedule: Sequence) -> set:
    paths = set()
    for entry in schedule:
        if entry.cluster:
            for inst in entry.instances:
                paths.add(inst.path)
    return paths


def _analyze(designs: Sequence, schedule: Sequence,
             opt: Optional[Dict[str, Any]], *,
             check_watched: bool) -> Dict[str, Any]:
    """The shared planning core: feature-detect per instance and wire.

    ``designs`` is one design for compile-time planning (instance
    checks then use the single binding as a proxy; adoption re-runs
    them against the real lanes) or every lane's design for live
    planning.  ``opt`` is the optimizer block the schedule was produced
    under: the dead wires it parks are excluded from planning
    *silently* — the engine keeps them outside the per-step loops, so
    they are neither vectorizable nor demoted.  ``check_watched`` is off
    for compile-time planning (probes are a lane property; adoption
    validates them) and on for live planning.
    """
    from .compile_cache import wire_key
    design0 = designs[0]
    # Keys arrive as JSON lists after a cache round-trip; re-tuple them
    # as ``SimulatorBase._apply_opt`` does.
    opt = opt or {}
    parked_keys = {tuple(k) for k in opt.get("dead_wires") or ()}
    dead_paths = set(opt.get("dead_instances") or ())
    cluster_paths = _cluster_paths(schedule)
    keys = [wire_key(w) for w in design0.wires]
    parked = {pos for pos, key in enumerate(keys) if key in parked_keys}
    controls = design0.store.control

    candidates: Dict[str, type] = {}
    rejected: set = set()
    for path, inst0 in design0.leaves.items():
        if path in dead_paths:
            continue  # eliminated: nothing reacts, its wires are parked
        cls = type(inst0)
        impl_cls = vec_impl_for(cls)
        if impl_cls is None:
            continue
        insts = [d.leaves[path] for d in designs]
        if _candidate_ok(impl_cls, cls, insts, path, cluster_paths):
            candidates[path] = impl_cls
        else:
            rejected.add(path)

    # Wires each instance touches, by structural position.
    touching: Dict[str, List[int]] = {}
    for pos, wire in enumerate(design0.wires):
        for endpoint in (wire.src, wire.dst):
            if endpoint is not None:
                touching.setdefault(endpoint.instance.path, []).append(pos)

    def wire_status(pos: int, vec_paths: set) -> Optional[str]:
        """None when the wire vectorizes, else its demotion reason."""
        wire = design0.wires[pos]
        if wire.src is None or wire.dst is None:
            return "unconnected"
        if controls[pos] is not None:
            return "control"
        if wire.src.instance.path not in vec_paths \
                or wire.dst.instance.path not in vec_paths:
            return "endpoint-not-vectorized"
        if check_watched and any(d.store.watched[pos] for d in designs):
            return "watched"
        return None

    # Fixed point: demoting an all-boundary instance turns its wires
    # scalar, which can strand a neighbour with no vec wires either.
    vec_paths = set(candidates)
    while True:
        vec_positions = {pos for pos in range(len(keys))
                         if pos not in parked
                         and wire_status(pos, vec_paths) is None}
        stranded = {path for path in vec_paths
                    if not any(pos in vec_positions
                               for pos in touching.get(path, ()))}
        if not stranded:
            break
        vec_paths -= stranded

    demotions: List[tuple] = []
    for pos in range(len(keys)):
        if pos in parked or pos in vec_positions:
            continue
        demotions.append(
            (keys[pos], wire_status(pos, vec_paths)
             or "endpoint-not-vectorized"))

    return {"candidates": candidates, "rejected": rejected,
            "vec_paths": vec_paths, "positions": sorted(vec_positions),
            "keys": keys, "demotions": demotions, "parked": len(parked)}


def _materialize(lanes: Sequence, schedule: Sequence, vec_paths: set,
                 wire_positions: List[int], candidates: Dict[str, type],
                 demotions: Optional[List[tuple]] = None,
                 origin: str = "live") -> VecPlan:
    """Instantiate a :class:`VecPlan` over live lanes from a decided
    ``(vec_paths, wire_positions)`` structure."""
    n_lanes = len(lanes)
    design0 = lanes[0].design
    # A wire's position in ``design.wires`` is its slot (its wid).
    vw = VecWires([lane.design.store for lane in lanes],
                  list(wire_positions))
    row_of = {pos: row for row, pos in enumerate(wire_positions)}
    stats = VecStats(n_lanes)

    impl_by_path: Dict[str, Any] = {}
    for path in sorted(vec_paths):
        inst0 = design0.leaves[path]
        insts = [lane.design.leaves[path] for lane in lanes]
        ports: Dict[str, List[VecPortIndex]] = {}
        for port_name, view0 in inst0.ports.items():
            indices: List[VecPortIndex] = []
            for slot in view0._slots:
                row = row_of.get(slot)
                indices.append(VecPortIndex(
                    vw, row, None if row is not None else slot))
            ports[port_name] = indices
        ctx = VecModuleContext(path, insts, ports, stats)
        impl_by_path[path] = candidates[path](ctx)

    # Schedule mapping: a Moore vec instance's whole react runs at its
    # first schedule occurrence (its outputs never read inputs, so
    # running the later groups early is monotone-safe) and later entries
    # no-op.  A Mealy implementation instead re-runs at *every*
    # occurrence: its react is re-entrant and monotone, refining the
    # lanes it can decide each time — the array translation of the
    # scalar contract that react may be called several times per step.
    impls: List[Any] = []
    seen: Dict[str, int] = {}
    entry_ops: List[tuple] = []
    for entry in schedule:
        if entry.cluster:
            entry_ops.append(("cluster",))
            continue
        path = entry.instances[0].path
        if path not in vec_paths:
            entry_ops.append(("scalar",))
        elif path in seen:
            if getattr(candidates[path], "MEALY", False):
                entry_ops.append(("vec", seen[path]))
            else:
                entry_ops.append(("skip",))
        else:
            seen[path] = len(impls)
            entry_ops.append(("vec", len(impls)))
            impls.append(impl_by_path[path])

    return VecPlan(vw, impls, stats, entry_ops, vec_paths,
                   list(wire_positions), demotions, origin)


def plan_vec_structure(design, schedule: Sequence,
                       opt: Optional[Dict[str, Any]] = None) \
        -> Dict[str, Any]:
    """Compile-time vec planning: one design, a portable payload.

    The staged compilation driver (:func:`repro.core.ir.compile_model`
    with ``CompileOptions(vec=True)``) runs this as the pass after the
    optimizer pipeline and caches the result on the
    :class:`~repro.core.ir.CompiledModel`, so warm builds — and fabric
    workers receiving the artifact — skip planning entirely.

    The payload is canonical for the *structure*: instance acceptance
    uses the design's single binding as a parameter proxy and probes
    are ignored; :func:`adopt_vec_plan` re-validates both against the
    real lanes and signals a live replan when they diverge.  An empty
    ``paths`` list is still a meaningful (cached) result: nothing
    vectorizes, and adoption returns ``None`` without replanning.
    """
    global PLAN_BUILDS
    PLAN_BUILDS += 1
    analysis = _analyze([design], schedule, opt, check_watched=False)
    return {
        "version": VEC_VERSION,
        "paths": sorted(analysis["vec_paths"]),
        "rejected": sorted(analysis["rejected"]),
        "wires": [list(analysis["keys"][pos])
                  for pos in analysis["positions"]],
        "demotions": [[list(key), reason]
                      for key, reason in analysis["demotions"]],
        "counts": {"total": len(design.wires),
                   "vectorized": len(analysis["positions"]),
                   "demoted": len(analysis["demotions"]),
                   "parked": analysis["parked"]},
    }


def adopt_vec_plan(lanes: Sequence, schedule: Sequence,
                   payload: Dict[str, Any]) -> Optional[VecPlan]:
    """Instantiate a compile-time payload over live lanes, validating
    every lane-level property the planner could not see.

    Returns ``None`` when the payload says nothing vectorizes (a
    validated scalar outcome, not a failure).  Raises
    :class:`VecPlanMismatch` when the payload does not apply — the
    caller then falls back to :func:`build_vec_plan`.  Does **not**
    advance :data:`PLAN_BUILDS`: adoption is the warm path.
    """
    from .compile_cache import wire_key
    if not payload or payload.get("version") != VEC_VERSION:
        raise VecPlanMismatch("missing or version-skewed vec payload")
    design0 = lanes[0].design
    cluster_paths = _cluster_paths(schedule)

    def lane_group(path: str) -> Optional[tuple]:
        inst0 = design0.leaves.get(path)
        if inst0 is None:
            return None
        cls = type(inst0)
        impl_cls = vec_impl_for(cls)
        if impl_cls is None:
            return None
        return impl_cls, cls, [lane.design.leaves[path] for lane in lanes]

    vec_paths = set(payload.get("paths") or ())
    candidates: Dict[str, type] = {}
    for path in sorted(vec_paths):
        group = lane_group(path)
        if group is None:
            raise VecPlanMismatch(
                f"planned instance {path!r} has no vec implementation "
                f"in this process")
        impl_cls, cls, insts = group
        if not _candidate_ok(impl_cls, cls, insts, path, cluster_paths):
            raise VecPlanMismatch(
                f"lanes do not support planned instance {path!r}")
        candidates[path] = impl_cls
    # The compile-time proxy may also have *rejected* an instance whose
    # live lane group is in fact supportable (registry drift).  Adopting
    # would then silently narrow coverage below a live plan — replan.
    for path in payload.get("rejected") or ():
        group = lane_group(path)
        if group is None:
            continue
        impl_cls, cls, insts = group
        if _candidate_ok(impl_cls, cls, insts, path, cluster_paths):
            raise VecPlanMismatch(
                f"rejected instance {path!r} is vectorizable live")

    key_to_pos = {wire_key(w): pos
                  for pos, w in enumerate(design0.wires)}
    positions: List[int] = []
    for key in payload.get("wires") or ():
        pos = key_to_pos.get(tuple(key))
        if pos is None:
            raise VecPlanMismatch(f"planned wire {key!r} not in design")
        if any(lane.design.store.watched[pos] for lane in lanes):
            raise VecPlanMismatch(f"planned wire {key!r} is probed")
        positions.append(pos)

    if not positions or not vec_paths:
        return None
    demotions = [(tuple(key), reason)
                 for key, reason in payload.get("demotions") or ()]
    return _materialize(lanes, schedule, vec_paths, sorted(positions),
                        candidates, demotions, origin="adopted")


def build_vec_plan(lanes: Sequence, schedule: Sequence,
                   opt: Optional[Dict[str, Any]] = None) \
        -> Optional[VecPlan]:
    """Feature-detect what vectorizes for this batch; None if nothing.

    ``lanes`` are the batch's per-lane simulators, ``schedule`` the
    shared-shape static schedule (lane 0's copy) and ``opt`` the
    optimizer block the lanes were constructed under (its parked wires
    are excluded from planning rather than demoted).  Purely structural
    + parameter checks — no simulation state is read, so the plan can
    be rebuilt whenever instrumentation changes.
    """
    global PLAN_BUILDS
    PLAN_BUILDS += 1
    designs = [lane.design for lane in lanes]
    analysis = _analyze(designs, schedule, opt, check_watched=True)
    if not analysis["vec_paths"] or not analysis["positions"]:
        return None
    return _materialize(lanes, schedule, analysis["vec_paths"],
                        analysis["positions"], analysis["candidates"],
                        analysis["demotions"])
