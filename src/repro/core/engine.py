"""The reactive simulation engine (paper §2.3).

LSE fixes its model of computation to a reactive one: within each
timestep, every signal resolves monotonically from UNKNOWN to a known
value; modules react as their inputs resolve; when all signals are
known, sequential state commits and time advances.  This module
implements the reference **worklist** engine:

* at the start of a timestep all non-constant signals become UNKNOWN
  and every instance is scheduled once (modules may drive outputs from
  internal state alone);
* whenever a signal becomes known, the instance that *reads* it is
  rescheduled (the destination for forward signals, the source for
  ack);
* when the worklist drains with signals still UNKNOWN, the configured
  ``cycle_policy`` applies: ``'error'`` raises
  :class:`~repro.core.errors.CombinationalCycleError` with a diagnostic
  of the unresolved wires; ``'relax'`` forces the lowest-numbered
  unresolved signal to its pessimistic default (NOTHING/DEASSERTED) and
  resumes — forced signals can never produce a transfer, so relaxation
  is conservative;
* once everything is resolved the engine logs transfers, fires wire
  probes, calls every instance's ``update()`` and advances ``now``.

The static engine (:mod:`repro.core.optimize`, running the stepper
:mod:`repro.core.codegen` generates) and the lockstep engine
(:mod:`repro.core.batched`) implement identical semantics with less
runtime scheduling overhead.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .collector import StatsRegistry, WireProbe
from .errors import CombinationalCycleError, SimulationError
from .module import PORT_ATTR_PREFIX, LeafModule
from .netlist import Design
from .signals import CtrlStatus, DataStatus, Wire

#: Upper bound on relaxations per timestep before declaring livelock.
_MAX_RELAX_FACTOR = 3

_SOMETHING = DataStatus.SOMETHING
_ASSERTED = CtrlStatus.ASSERTED


class WirePartition:
    """The slot tables of one design the per-timestep loops run over.

    Computed once at bind time (carried by the compiled-model binding,
    see :mod:`repro.core.ir`): ``transfer`` lists the slots scanned for
    transfers at end of step, ``begin_unknown`` is the constant number
    of UNKNOWN signals at step start.
    """

    __slots__ = ("transfer", "begin_unknown")

    def __init__(self, transfer: List[int], begin_unknown: int):
        self.transfer = transfer
        self.begin_unknown = begin_unknown


def partition_wires(design: Design) -> WirePartition:
    """The slot tables of ``design`` — a pure function of each wire's
    endpoints and stub constants, both fixed at wiring time."""
    store = design.store
    return WirePartition(store.transfer_slots(), store.begin_unknown())


class SimulatorBase:
    """State and services shared by all engine implementations."""

    def __init__(self, design: Design, *, cycle_policy: str = "relax",
                 seed: Optional[int] = None, keep_samples: bool = False,
                 _partition: Optional[WirePartition] = None,
                 _opt: Optional[Dict[str, Any]] = None):
        if design._owned:
            raise SimulationError(
                f"Design {design.name!r} is already animated by another "
                f"simulator; use design.copy() for an independent duplicate "
                f"or build a fresh one per simulator")
        design._owned = True
        try:
            if cycle_policy not in ("relax", "error"):
                raise SimulationError(
                    f"cycle_policy must be 'relax' or 'error', "
                    f"got {cycle_policy!r}")
            self.design = design
            self.cycle_policy = cycle_policy
            self.now = 0
            self.stats = StatsRegistry(keep_samples=keep_samples)
            self.rng = np.random.default_rng(seed)
            self.transfers_total = 0
            self.relaxations_total = 0
            self._probes: Dict[int, List[WireProbe]] = {}
            self._observers: List = []
            #: Attached :class:`repro.obs.Profiler`, or ``None``.  The
            #: only profiler-off cost is one ``is not None`` test per
            #: timestep.
            self.profiler = None
            self._instances: List = list(design.leaves.values())
            self._wires: List[Wire] = design.wires
            self._store = design.store
            self._initialized = False
            self._closed = False
            for inst in self._instances:
                inst.sim = self
                # Pre-bind react into the instance dict.  A profiler
                # swaps this value in place instead of inserting or
                # deleting a key, so CPython's shared-key (split)
                # instance dicts never degrade to combined layout from
                # attach/detach cycles.
                inst.react = inst.react
            # Cache which instances override update() to skip no-ops.
            self._updaters = [i for i in self._instances
                              if type(i).update is not LeafModule.update]
            # The slot tables the per-timestep loops run over (see
            # WirePartition).  The static engines pass the ones their
            # compiled-model binding already holds.
            partition = _partition or partition_wires(design)
            self._begin_unknown = partition.begin_unknown
            self._transfer_slots: List[int] = partition.transfer
            #: Relaxation scan cursor: slots below it are fully resolved
            #: for the current timestep (resolution is monotone, so the
            #: cursor only ever advances between relaxations of a step).
            self._relax_cursor = 0
            #: Optimizer state (see :meth:`_apply_opt`): at ``--opt 0``
            #: these cover every instance and slot and cost nothing.
            self.opt_level = 0
            self._react_instances = self._instances
            self._relax_slots: Sequence[int] = range(len(self._wires))
            if _opt:
                self._apply_opt(_opt)
            # Initialize every instance eagerly: ports are already bound
            # and ``sim`` is set, so module state (memories, rings,
            # FSMs) is inspectable before the first timestep runs.
            self._do_init()
        except BaseException:
            self._detach(design)
            raise

    def _detach(self, design: Design) -> None:
        """Sever every backref this simulator installed on ``design``.

        Shared by :meth:`close` and by ``__init__`` when construction
        raises part-way.  Construction mutates shared state the moment
        ownership is taken: backrefs on wires and instances and the
        pre-bound dispatch.  A failed build — a bad parameter, a module
        ``init()`` error, an opt block that does not apply — must leave
        the Design exactly as it was found, so the caller can rebuild
        (e.g. retry at ``--opt 0`` after a failed ``--opt 2``) without
        a stale ownership corrupting the rerun.
        """
        design.store.hook = None
        for inst in design.leaves.values():
            if getattr(inst, "sim", None) is self:
                inst.sim = None
                # Drop the pre-bound dispatch: the class react is back
                # in force, and the instance no longer refers to itself
                # (a bound method in its own dict is a reference cycle).
                inst.__dict__.pop("react", None)
        design._owned = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def instances(self) -> Dict[str, object]:
        """``path -> LeafModule`` mapping of the animated design."""
        return self.design.leaves

    def instance(self, path: str):
        try:
            return self.design.leaves[path]
        except KeyError:
            raise SimulationError(
                f"no instance {path!r}; known: {sorted(self.design.leaves)[:10]}...")

    def probe(self, wire: Wire, label: Optional[str] = None,
              limit: Optional[int] = None) -> WireProbe:
        """Attach a transfer probe to ``wire`` and return it.

        A wire may carry any number of probes; attaching a second one
        does not detach the first — every attached probe keeps
        recording (historically the newest probe silently replaced its
        predecessor, leaving the caller's handle stale).
        """
        probe = WireProbe(label or repr(wire), limit=limit)
        self._probes.setdefault(wire.wid, []).append(probe)
        self._store.watched[wire.wid] = True
        return probe

    def probe_between(self, src_path: str, src_port: str,
                      dst_path: str, dst_port: str, nth: int = 0,
                      **kw) -> WireProbe:
        """Probe the ``nth`` wire between two named ports."""
        return self.probe(self.design.wire_between(
            src_path, src_port, dst_path, dst_port, nth), **kw)

    def add_observer(self, fn) -> None:
        """Register ``fn(sim)`` to run after each timestep resolves.

        Observers fire once every signal is known but before sequential
        state commits — the right moment to sample wire values (used by
        the VCD tracer in :mod:`repro.core.trace`).
        """
        self._observers.append(fn)

    def run(self, cycles: int) -> "SimulatorBase":
        """Advance the simulation by ``cycles`` timesteps."""
        if self._closed:
            raise SimulationError(
                f"simulator for design {self.design.name!r} is closed; "
                f"build a new one to simulate again")
        if not self._initialized:
            self._do_init()
        for _ in range(cycles):
            self._step()
        return self

    def step(self) -> "SimulatorBase":
        """Advance by exactly one timestep."""
        return self.run(1)

    def close(self) -> None:
        """Detach this simulator from its design and release it.

        Animation installs backrefs — the store's hook, ``inst.sim``, the
        pre-bound ``react`` — and marks the design owned, so a finished
        simulator keeps its design alive and un-reanimatable forever.
        ``close()`` severs all of that: the design can be animated by a
        new simulator (no ``copy()`` needed), an attached profiler is
        detached (its collected data stays readable), and stepping this
        simulator afterwards raises.  Results (``stats``, counters,
        probes) remain readable.  Idempotent; also available as a
        context manager (``with build_simulator(spec) as sim: ...``).
        """
        if self._closed:
            return
        self._closed = True
        if self.profiler is not None:
            self.profiler.detach()
        self._detach(self.design)

    def __enter__(self) -> "SimulatorBase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared internals
    # ------------------------------------------------------------------
    def _do_init(self) -> None:
        if self._initialized:
            return
        for inst in self._instances:
            inst.init()
        self._initialized = True

    def _begin_step(self) -> None:
        self._store.reset(self._begin_unknown)
        self._relax_cursor = 0
        if self.profiler is not None:
            self.profiler._on_step_begin(self.now, self._begin_unknown)

    def _end_step(self) -> None:
        store = self._store
        ds, en, rak = store.ds, store.en, store.rak
        transfers = 0
        now = self.now
        for s in self._transfer_slots:
            if ds[s] is _SOMETHING and en[s] is _ASSERTED \
                    and rak[s] is _ASSERTED:
                transfers += 1
                store.transfers[s] += 1
                if store.watched[s]:
                    for probe in self._probes.get(s, ()):
                        probe.record(now, store.dv[s])
        self.transfers_total += transfers
        for observer in self._observers:
            observer(self)
        for inst in self._updaters:
            inst.update()
        if self.profiler is not None:
            self.profiler._on_step_end(now, transfers)
        self.now += 1

    def _instrumentation_changed(self) -> None:
        """Hook for engines that cache bound dispatch (see the static
        engine's generated stepper)."""

    def _apply_opt(self, block: Dict[str, Any]) -> None:
        """Apply a compiled-model ``opt`` block (:mod:`repro.core.opt`).

        The block carries canonical wire keys and instance paths, never
        live objects, so it applies to any design the artifact binds to:

        * **dead** wires leave the transfer/relax scans with their
          unknown-signal budget subtracted (nothing drives them, so a
          reset leaves them UNKNOWN and uncounted), and their
          (dead) instances leave the react/update rosters — the
          schedule the optimizer shipped never reacts them anyway, but
          the worklist seed and the levelized fallback honor the same
          set.

        Nothing here touches the design — in particular no engine
        mutates the store's ``control`` table.
        """
        self.opt_level = block.get("level", 1)
        if block.get("dead_wires"):
            from .compile_cache import wire_key
            key_map = {wire_key(w): w.wid for w in self._wires}
            dead = {key_map[tuple(k)] for k in block["dead_wires"]}
            self._transfer_slots = [s for s in self._transfer_slots
                                    if s not in dead]
            self._relax_slots = [s for s in self._relax_slots
                                 if s not in dead]
            self._begin_unknown -= self._store.begin_unknown(dead)
        dead_paths = set(block.get("dead_instances") or ())
        if dead_paths:
            self._react_instances = [i for i in self._instances
                                     if i.path not in dead_paths]
            self._updaters = [i for i in self._updaters
                              if i.path not in dead_paths]

    def _force_next_unresolved(self) -> bool:
        """Force the lowest-numbered unresolved signal to its default.

        The shared core of the ``'relax'`` cycle policy.  Scans forward
        from :attr:`_relax_cursor` instead of rescanning every wire:
        within one timestep signals only ever move from UNKNOWN to
        known, so a wire found fully resolved stays resolved and the
        cursor never needs to back up.  Returns ``False`` when no
        unresolved signal exists.
        """
        store = self._store
        slots = self._relax_slots
        i = self._relax_cursor
        n = len(slots)
        while i < n:
            signal = store.first_unresolved(slots[i])
            if signal is not None:
                self._relax_cursor = i
                self._force(slots[i], signal)
                return True
            i += 1
        self._relax_cursor = n
        return False

    def _force(self, slot: int, signal: str) -> None:
        """One relaxation: ``signal`` of ``slot`` takes its default."""
        self._store.force_default(slot, signal)
        self.relaxations_total += 1
        if self.profiler is not None:
            self.profiler._on_relax(self._wires[slot])

    # ------------------------------------------------------------------
    # Engine-specific checkpoint state (overridable)
    # ------------------------------------------------------------------
    def _extra_state(self) -> Dict[str, Any]:
        """Engine-specific counters to ride along in :meth:`state_dict`.

        Engines with extra dynamic state (e.g. the levelized engine's
        ``fallback_steps``) override this (and
        :meth:`_load_extra_state`) so checkpoints round-trip it.
        """
        return {}

    def _load_extra_state(self, extra: Dict[str, Any]) -> None:
        """Restore the :meth:`_extra_state` payload (tolerates absence)."""

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    #: Instance attributes owned by the framework, never part of state
    #: (``react`` is pre-bound into every animated instance's dict).
    _FRAMEWORK_ATTRS = ("path", "p", "_views", "sim", "react")

    @classmethod
    def _framework_attrs(cls, inst) -> set:
        """:attr:`_FRAMEWORK_ATTRS` plus ``inst``'s bound port views: a
        deep-copied view would drag the whole signal store into the
        snapshot, and a restore must not delete the live ones."""
        return {PORT_ATTR_PREFIX + name
                for name in inst._views}.union(cls._FRAMEWORK_ATTRS)

    def _shared_params(self) -> Dict[str, Any]:
        """Parameter values that are state shared by reference.

        A hierarchical template may hand one mutable state object to
        several of its leaves (and to its caller) through a parameter —
        the OoO core's architected registers, say.  Such a value opts
        in by implementing ``state_dict``/``load_state_dict``; it is
        keyed ``<path>.<param>`` by the first leaf that holds it, so an
        object shared by four leaves is snapshotted once.
        """
        found: Dict[str, Any] = {}
        seen = set()
        for path, inst in self.design.leaves.items():
            for name, value in inst.p.items():
                if id(value) in seen or not hasattr(value,
                                                    "load_state_dict"):
                    continue
                seen.add(id(value))
                found[f"{path}.{name}"] = value
        return found

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the simulator's dynamic state between timesteps.

        Covers ``now``, the engine RNG, transfer/relaxation totals, the
        statistics registry, per-wire transfer counts, and every leaf
        instance's own attributes (everything in ``__dict__`` except the
        framework bindings ``path``/``p``/``_views``/``sim`` and the
        bound port views ``io_<port>``).  Instance
        state is deep-copied with a shared memo, so containers aliased
        *between* instances stay aliased on restore.

        Parameter values that implement ``state_dict``/``load_state_dict``
        are shared state, not configuration (see :meth:`_shared_params`):
        they ride along under ``shared_params`` and are restored in place.

        Out of scope: other parameter bindings (``p`` — configuration,
        not state; rebuild from the same spec), probes/observers (re-attach
        after restore), and instance attributes that reference other
        module instances or the simulator itself (such references are
        preserved by identity in-memory but are not meaningful across
        processes).  State must be picklable to be written to disk; an
        attribute that cannot even be copied (a live generator, a lock)
        raises :class:`SimulationError` naming the instance and
        attribute.
        """
        memo: Dict[int, Any] = {id(self): self, id(self.design): self.design}
        for inst in self._instances:
            memo[id(inst)] = inst
        instances: Dict[str, Dict[str, Any]] = {}
        for path, inst in self.design.leaves.items():
            own: Dict[str, Any] = {}
            framework = self._framework_attrs(inst)
            for attr, value in inst.__dict__.items():
                if attr in framework:
                    continue
                try:
                    own[attr] = copy.deepcopy(value, memo)
                except TypeError as exc:  # e.g. a live generator
                    raise SimulationError(
                        f"instance {path!r} is not checkpointable: "
                        f"attribute {attr!r} cannot be copied "
                        f"({exc})") from exc
            instances[path] = own
        return {
            "design": self.design.name,
            "now": self.now,
            "transfers_total": self.transfers_total,
            "relaxations_total": self.relaxations_total,
            "rng": copy.deepcopy(self.rng.bit_generator.state),
            "stats": self.stats.state_dict(),
            "wires": list(self._store.transfers),
            "instances": instances,
            "shared_params": {key: value.state_dict() for key, value
                              in self._shared_params().items()},
            "engine_extra": self._extra_state(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> "SimulatorBase":
        """Restore a :meth:`state_dict` snapshot onto this simulator.

        The simulator must animate a design built from the same
        specification: the design name, instance paths and wire count
        all have to match.  After loading, the next :meth:`step`
        continues exactly as the snapshotted run would have.
        """
        if state["design"] != self.design.name:
            raise SimulationError(
                f"checkpoint is for design {state['design']!r}, this "
                f"simulator animates {self.design.name!r}")
        missing = set(state["instances"]) ^ set(self.design.leaves)
        if missing:
            raise SimulationError(
                f"checkpoint instance set differs from design "
                f"{self.design.name!r}: {sorted(missing)[:5]}")
        if len(state["wires"]) != len(self._wires):
            raise SimulationError(
                f"checkpoint has {len(state['wires'])} wires, design has "
                f"{len(self._wires)}")
        self.now = state["now"]
        self.transfers_total = state["transfers_total"]
        self.relaxations_total = state["relaxations_total"]
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])
        self.stats.load_state_dict(state["stats"])
        self._store.transfers[:] = state["wires"]
        memo: Dict[int, Any] = {id(self): self, id(self.design): self.design}
        for inst in self._instances:
            memo[id(inst)] = inst
        for path, inst in self.design.leaves.items():
            saved = copy.deepcopy(state["instances"][path], memo)
            framework = self._framework_attrs(inst)
            for key in list(inst.__dict__):
                if key not in framework and key not in saved:
                    del inst.__dict__[key]
            inst.__dict__.update(saved)
        # In place, so every holder of the object sees the restored run
        # (absent in checkpoints from before the field).
        shared = state.get("shared_params") or {}
        for key, value in self._shared_params().items():
            if key in shared:
                value.load_state_dict(shared[key])
        # Engine-specific counters (absent in pre-upgrade checkpoints).
        self._load_extra_state(state.get("engine_extra") or {})
        self._initialized = True
        return self

    def _unresolved_report(self, limit: int = 12) -> str:
        lines = []
        for wire in self._wires:
            missing = self._store.unresolved(wire.wid)
            if missing:
                lines.append(f"  {wire!r}: {', '.join(missing)} unresolved")
                if len(lines) >= limit:
                    lines.append("  ...")
                    break
        return "\n".join(lines)

    def _step(self) -> None:
        raise NotImplementedError


class Simulator(SimulatorBase):
    """The reference worklist engine (dynamic reactive scheduling).

    ``opt`` (default: the ``REPRO_OPT`` environment) routes the design
    through :func:`repro.core.ir.compile_model` at that optimizer level
    and applies the resulting opt block — the worklist has no static
    schedule, but dead-instance parking carries over.  At level 0 no
    compilation happens at all, preserving the historical
    zero-dependency path.
    """

    def __init__(self, design: Design, *, opt: Optional[int] = None, **kw):
        from .opt import resolve_opt_level
        level = resolve_opt_level(opt)
        if level > 0:
            from .ir import compile_model
            bound = compile_model(design, opt_level=level)
            kw.setdefault("_partition", bound.partition)
            kw.setdefault("_opt", bound.model.opt)
        super().__init__(design, **kw)
        self._queue: deque = deque()
        self._queued: Dict[int, bool] = {}
        # Map slots to the instances sensitive to each signal's arrival.
        self._fwd_reader = [None] * len(self._wires)
        self._ack_reader = [None] * len(self._wires)
        for wire in self._wires:
            if wire.dst is not None:
                self._fwd_reader[wire.wid] = wire.dst.instance
            if wire.src is not None:
                self._ack_reader[wire.wid] = wire.src.instance
        self._store.hook = self._enqueue_reader

    # -- scheduling ------------------------------------------------------
    def _enqueue(self, inst) -> None:
        if inst is not None and not self._queued.get(id(inst), False):
            self._queued[id(inst)] = True
            self._queue.append(inst)

    def _enqueue_reader(self, slot: int, is_ack: bool) -> None:
        """The store's hook: a signal of ``slot`` just resolved."""
        self._enqueue((self._ack_reader if is_ack
                       else self._fwd_reader)[slot])

    # -- timestep --------------------------------------------------------
    def _step(self) -> None:
        self._begin_step()
        queue = self._queue
        queued = self._queued
        for inst in self._react_instances:
            queued[id(inst)] = True
            queue.append(inst)

        relax_budget = _MAX_RELAX_FACTOR * max(1, len(self._wires) * 3)
        store = self._store
        while store.unknown > 0:
            while queue:
                inst = queue.popleft()
                queued[id(inst)] = False
                inst.react()
            if store.unknown <= 0:
                break
            # Worklist drained with unresolved signals: cycle policy.
            if self.cycle_policy == "error":
                # Lazy import: optimize imports this module at load time.
                from .optimize import _cycle_detail, unresolved_cycle_report
                members, groups = unresolved_cycle_report(self.design)
                raise CombinationalCycleError(
                    f"timestep {self.now}: signal resolution reached a fixed "
                    f"point with {store.unknown} signal(s) unresolved:\n"
                    + self._unresolved_report()
                    + _cycle_detail(members, groups),
                    members=members, groups=groups)
            self._relax_one()
            relax_budget -= 1
            if relax_budget <= 0:  # pragma: no cover - defensive
                raise CombinationalCycleError(
                    f"timestep {self.now}: relaxation did not converge")
        # Drain any reactions scheduled by the final resolutions.
        while queue:
            inst = queue.popleft()
            queued[id(inst)] = False
            inst.react()
        self._end_step()

    def _relax_one(self) -> None:
        """Force the first unresolved signal to its pessimistic default."""
        if not self._force_next_unresolved():
            raise SimulationError(
                "relax requested but no unresolved signal found")
