"""The lockstep engine: N structurally identical designs, one walk.

The compiled-model IR (:mod:`repro.core.ir`) makes a design's executable
form a function of its *structure* alone — every parameter variant of
one topology shares the same fingerprint, schedule and wire partition.
This engine exploits that: a :class:`BatchedSimulator` animates N such
variants ("lanes") in lockstep.  Each lane is a full static-engine
:class:`~repro.core.optimize.LevelizedSimulator` with its own wires,
instances, RNG, statistics and relaxation state, so per-lane results
are bit-identical to a standalone run of the same design and seed —
the lanes share no mutable state.

The batch runs a numpy structure-of-arrays execution plan keyed off the
compiled model's schedule and wire partition.  At plan-build time every
wire and instance is feature-detected (see
:func:`repro.core.vec.build_vec_plan`): instances whose exact template
class has a registered vectorized implementation — and whose parameter
bindings that implementation supports — run as one array-wide
``react``/``update`` per timestep, resolving each of their scheduled
signals across **all lanes in a single array operation**; everything
else (custom generators, callable payloads, probe-watched wires, Mealy
templates without a ``MEALY`` implementation, clusters) stays on the
per-lane scalar path, interleaved lane by lane at its exact schedule
position.  The per-timestep walk is a *generated* vectorized stepper
(:func:`repro.core.codegen.generate_vec_stepper_source`): vectorized
entries become hoisted array calls, scalar entries become flat
per-lane react loops, and skipped entries (later schedule occurrences
of an already-run vectorized Moore instance) vanish from the body.

Fallback ladder, outermost first:

* a step observer or contract monitor on any lane (or a plan-build
  failure, or nothing vectorizable) leaves the batch without a plan:
  each step then runs every lane's own static stepper in turn.  An
  observer reads every lane's wires mid-step and a monitor checks each
  port read a template's own ``react`` makes, and a vectorized
  instance never runs that ``react``;
* a probe attached to a wire demotes *that wire* (and, if thereby
  stranded, its endpoint instances) to the scalar path on the next
  plan rebuild, leaving the rest vectorized;
* a lane finishing the schedule walk with scalar signals unresolved
  takes the static engine's relaxation fallback — the plan scatters
  wire and module state back to that lane first, so the fallback's
  re-drives and relaxation scans see exactly the state a scalar run
  would have.

A profiler on a lane does not leave the plan.  Scalar entries keep the
profiler's own react wrappers; the stepper is built with each vec react
wrapped in a sampled timer (:class:`_LaneProfiles`), and the batch
reports the step figures a scalar lane would (see
:mod:`repro.obs.profiler`).  With no profiler attached the stepper and
the per-step path are the unprofiled ones.

Between runs the module instances and wires remain the source of truth:
every planned ``run()`` gathers state into the arrays on entry and
synchronizes it back (RNG streams rewound-and-replayed to their exact
scalar positions, statistics flushed as integer counter deltas) on
exit, so ``state_dict``/``load_state_dict``, probes on scalar wires,
and direct lane inspection all behave as on a solo simulator.

A batch of one is a drop-in static simulator: unknown attributes
delegate to lane 0, so probes, statistics and checkpointing behave as
usual.
"""

from __future__ import annotations

import time
import warnings
from typing import Any, Dict, List, Optional, Sequence, Union

from .codegen import generate_vec_stepper_source
from .errors import SimulationError
from .netlist import Design
from .optimize import LevelizedSimulator
from .vec import VecPlan, VecPlanMismatch, adopt_vec_plan, build_vec_plan


class _BatchLane(LevelizedSimulator):
    """One lane of a batch: a static simulator that tells its owner
    when its instrumentation (profiler, contract monitor, probe,
    observer) changes, so the plan is rebuilt before the next run."""

    def __init__(self, design: Design, **kw):
        self._owner = None
        super().__init__(design, **kw)

    def _instrumentation_changed(self) -> None:
        super()._instrumentation_changed()
        if self._owner is not None:
            self._owner._instrumentation_changed()

    def probe(self, wire, label=None, limit=None):
        probe = super().probe(wire, label=label, limit=limit)
        # Watching a wire is an instrumentation change at the batch
        # level: the plan must demote that wire to the scalar path so
        # the probe sees per-lane transfers.
        self._instrumentation_changed()
        return probe

    def add_observer(self, fn) -> None:
        super().add_observer(fn)
        self._instrumentation_changed()


class _LaneProfiles:
    """What the vec stepper reports to the profiled lanes of a batch.

    A vectorized instance never calls its lane's (profiler-wrapped)
    ``react``; one array op serves every lane.  Per plan, this holds the
    profiled lanes as ``(index, lane, profiler, records)`` — ``records[k]``
    being the profiler's :class:`~repro.obs.profiler.InstanceProfile`
    of vec implementation ``k`` — and each implementation's schedule
    occurrences, i.e. how many react calls a scalar lane makes for it
    per step.  The per-step work is O(profiled lanes): sampled time is
    summed per implementation for each set of sampling lanes, and like
    the call counts it reaches the records once per run (:meth:`flush`).
    """

    def __init__(self, lanes, schedule, plan: VecPlan):
        n_impls = len(plan.impls)
        occurrences = [0] * n_impls
        paths: List[str] = [""] * n_impls
        index_of = {}
        for entry, op in zip(schedule, plan.entry_ops):
            if op[0] not in ("vec", "skip"):
                continue
            # An instance's first occurrence is always its "vec" op.
            path = entry.instances[0].path
            k = index_of.setdefault(path, op[1])
            paths[k] = path
            occurrences[k] += 1
        self.occurrences = occurrences
        #: Vec react calls per step, and the signals of vectorized wires
        #: (three each) the carved lanes no longer count at step start.
        self.reacts = sum(occurrences)
        self.unknown = 3 * plan.n_wires
        self.n_lanes = len(lanes)
        self.lanes = [(index, lane, lane.profiler,
                       [lane.profiler._by_path[path] for path in paths])
                      for index, lane in enumerate(lanes)
                      if lane.profiler is not None]
        #: Sampling lanes (positions in ``lanes``) -> per-implementation
        #: ``(ns, sampled calls)`` not yet credited to their records.
        self.totals: dict = {}
        #: This step's entry of ``totals`` (None: no lane samples it),
        #: and the sampling lanes that keep a trace.
        self.sampled: Optional[tuple] = None
        self.tracing: List[tuple] = []

    def wrap(self, k: int, impl):
        """``impl.react`` (vec implementation ``k``), timed on steps
        some profiled lane samples.

        Each sampling lane gets the op's wall time divided by the batch
        size and the schedule occurrences it covered: all of them for a
        Moore implementation (one call stands for every occurrence), one
        per call for a re-entrant Mealy one.  Unsampled steps pay one
        attribute test.
        """
        perf = time.perf_counter_ns
        react = impl.react
        calls = 1 if getattr(impl, "MEALY", False) else self.occurrences[k]
        n_lanes = self.n_lanes

        def sampled_vec_react():
            sampled = self.sampled
            if sampled is not None:
                t0 = perf()
                react()
                t1 = perf()
                ns, sampled_calls = sampled
                ns[k] += (t1 - t0) // n_lanes
                sampled_calls[k] += calls
                for prof, records in self.tracing:
                    prof._trace_react(records[k].index, t0, t1)
            else:
                react()

        sampled_vec_react._obs_original = react
        return sampled_vec_react

    def begin(self) -> None:
        """Open each profiled lane's step with the signal count a
        scalar lane would report, and note which lanes sample it."""
        unknown = self.unknown
        sampling = []
        for pos, (_, lane, prof, _) in enumerate(self.lanes):
            prof._on_step_begin(lane.now, lane._begin_unknown + unknown)
            if prof._sampling:
                sampling.append(pos)
        if not sampling:
            self.sampled = None
            return
        key = tuple(sampling)
        sampled = self.totals.get(key)
        if sampled is None:
            n_impls = len(self.occurrences)
            sampled = self.totals[key] = ([0] * n_impls, [0] * n_impls)
        self.sampled = sampled
        lanes = self.lanes
        self.tracing = [(lanes[pos][2], lanes[pos][3]) for pos in sampling
                        if lanes[pos][2]._tracing]

    def end(self, counts) -> None:
        """Credit the step's vec reacts and array-scanned transfers
        (``counts``, per lane) before the lanes close their steps."""
        counts = counts.tolist()
        for index, _, prof, _ in self.lanes:
            prof._credit_step(self.reacts, counts[index])

    def flush(self, steps: int) -> None:
        """Credit the sampled time and ``steps`` steps' worth of vec
        react calls to the records."""
        for key, (ns, sampled_calls) in self.totals.items():
            for pos in key:
                for rec, t, n in zip(self.lanes[pos][3], ns, sampled_calls):
                    rec.ns += t
                    rec.sampled_calls += n
        self.totals.clear()
        for _, _, _, records in self.lanes:
            for rec, n in zip(records, self.occurrences):
                rec.calls += steps * n



class BatchedSimulator:
    """Lockstep execution of N structurally identical designs.

    Parameters
    ----------
    designs:
        One :class:`~repro.core.netlist.Design` or a sequence of them.
        All must share the same structural fingerprint (same topology,
        module classes, DEPS and controls — parameter bindings are free
        to differ).
    seeds:
        Optional per-lane seeds (one per design).  Mutually exclusive
        in spirit with ``seed``, which applies the same seed to every
        lane — the right choice when lanes differ by parameters and
        per-lane results must be comparable to standalone runs.
    cycle_policy / keep_samples:
        Forwarded to every lane.

    Per-lane results (statistics, transfer counts, relaxations) are
    bit-identical to a standalone :class:`LevelizedSimulator` run of the
    same design and seed, whether a given wire executed vectorized or
    scalar: the lanes share no mutable state.
    """

    def __init__(self, designs: Union[Design, Sequence[Design]], *,
                 seeds: Optional[Sequence[Optional[int]]] = None,
                 seed: Optional[int] = None, **kw):
        if isinstance(designs, Design):
            designs = [designs]
        designs = list(designs)
        if not designs:
            raise SimulationError("BatchedSimulator needs at least one design")
        from .compile_cache import design_fingerprint
        fingerprints = {design_fingerprint(d) for d in designs}
        if len(fingerprints) > 1:
            raise SimulationError(
                f"BatchedSimulator requires structurally identical designs; "
                f"got {len(fingerprints)} distinct fingerprints: "
                + ", ".join(sorted(f[:12] for f in fingerprints)))
        if seeds is not None:
            if len(seeds) != len(designs):
                raise SimulationError(
                    f"got {len(seeds)} seeds for {len(designs)} designs")
        else:
            seeds = [seed] * len(designs)
        self._closed = False
        self._lanes: List[_BatchLane] = []
        for design, lane_seed in zip(designs, seeds):
            lane = _BatchLane(design, seed=lane_seed, **kw)
            lane._owner = self
            self._lanes.append(lane)
        #: Set whenever a lane's instrumentation changes; the next
        #: ``run()`` rebuilds the plan once, however many changed.
        self._dispatch_dirty = True
        self._plan: Optional[VecPlan] = None
        self._stepper = None
        self._saved_lane_state: Optional[List[tuple]] = None
        #: Whether the plan leaves the lanes any scalar signal to reset
        #: each step, and whether the next step must reset them anyway.
        self._lanes_scalar = True
        self._reset_lanes = True
        #: The profiled lanes' vec-side reporting (None: none profiled).
        self._profiles: Optional[_LaneProfiles] = None
        #: Source text of the generated vectorized stepper (None until
        #: a plan is built).
        self.generated_vec_source: Optional[str] = None

    # -- plan lifecycle ----------------------------------------------------
    @property
    def vec_plan(self) -> Optional[VecPlan]:
        """The active vectorization plan (None while running scalar)."""
        return self._plan

    def _needs_scalar(self) -> bool:
        """A step observer or contract monitor on any lane (or on the
        batch itself) needs every lane on its own scalar stepper."""
        if getattr(self, "contract_monitor", None) is not None:
            return True
        return any(lane._observers
                   or getattr(lane, "contract_monitor", None) is not None
                   for lane in self._lanes)

    def _rebuild_plan(self) -> None:
        self._dispatch_dirty = False
        self._teardown_plan()
        if self._needs_scalar():
            return
        try:
            plan = self._fetch_or_build_plan(self._lanes[0].schedule)
            if plan is None:
                return
            self._build_vec_stepper(plan)
        except Exception as exc:  # pragma: no cover - defensive fallback
            warnings.warn(
                f"batched: vectorization unavailable for design "
                f"{self.design.name!r} ({type(exc).__name__}: {exc}); "
                f"each lane runs its own static stepper",
                RuntimeWarning, stacklevel=2)
            return
        self._plan = plan
        self._apply_partition(plan)

    def _fetch_or_build_plan(self, schedule) -> Optional[VecPlan]:
        """Adopt the compile-time vec plan, or plan live as a fallback.

        The staged compiler (``CompileOptions(vec=True)``) caches the
        portable planning payload under the composite vec key, so a
        warm build — or a fabric worker that installed the shipped
        artifact — materializes the plan here with **zero** optimizer
        pass runs and **zero** plan builds
        (:data:`repro.core.vec.PLAN_BUILDS` stays flat).  Adoption
        re-validates the payload against the live lanes; anything it
        cannot honor — a probe-watched wire, an impl registry or opt
        drift — raises :class:`~repro.core.vec.VecPlanMismatch` and
        falls back to a live :func:`~repro.core.vec.build_vec_plan`
        with the lane's own opt block.
        """
        lane0 = self._lanes[0]
        payload = None
        try:
            from .ir import CompileOptions, compile_model
            bound = compile_model(lane0.design, CompileOptions(
                opt_level=lane0.compile_opt_level, vec=True))
            payload = bound.model.vec
        except Exception:
            payload = None
        if payload is not None:
            try:
                # None means the payload validated as "nothing
                # vectorizes" for these lanes — an answer, not a miss.
                return adopt_vec_plan(self._lanes, schedule, payload)
            except VecPlanMismatch:
                pass
        return build_vec_plan(self._lanes, schedule, opt=lane0.compiled.opt)

    def _build_vec_stepper(self, plan: VecPlan) -> None:
        provenance = ("adopted from compiled artifact"
                      if plan.origin == "adopted" else "planned live")
        source = generate_vec_stepper_source(
            self._lanes[0].schedule, plan.entry_ops, self.design.name,
            provenance=provenance)
        namespace: dict = {}
        code = compile(source,
                       f"<generated vec stepper {self.design.name!r}>",
                       "exec")
        exec(code, namespace)
        vec_reacts = [impl.react for impl in plan.impls]
        lanes = self._lanes
        entry_reacts = [[lane.schedule[i].instances[0].react
                         for lane in lanes] if op[0] == "scalar" else None
                        for i, op in enumerate(plan.entry_ops)]
        profiles = None
        if any(lane.profiler is not None for lane in lanes):
            profiles = _LaneProfiles(lanes, lanes[0].schedule, plan)
            vec_reacts = [profiles.wrap(k, impl)
                          for k, impl in enumerate(plan.impls)]
        self._stepper = namespace["make_vec_stepper"](self, vec_reacts,
                                                      entry_reacts)
        self._profiles = profiles
        self.generated_vec_source = source

    def _apply_partition(self, plan: VecPlan) -> None:
        """Carve the plan's wires and instances out of each lane.

        Vectorized wires leave the lanes' transfer scan and
        unknown-signal accounting (their three signals resolve in the
        arrays) and are parked in each lane's store, so its per-step
        reset holds them resolved and non-transferring; vectorized
        instances leave the lanes' update lists (their ``update`` runs
        array-wide).  The originals are saved and restored verbatim on
        teardown.
        """
        saved: List[tuple] = []
        vec_slots = set(plan.vw.slots)
        delta = 3 * plan.n_wires
        for lane in self._lanes:
            saved.append((lane._transfer_slots, lane._begin_unknown,
                          lane._updaters, plan.vw.slots))
            lane._store.park(vec_slots)
            lane._transfer_slots = [s for s in lane._transfer_slots
                                    if s not in vec_slots]
            lane._begin_unknown -= delta
            lane._updaters = [i for i in lane._updaters
                              if i.path not in plan.vec_paths]
        self._saved_lane_state = saved
        self._lanes_scalar = any(lane._begin_unknown for lane in self._lanes)
        self._reset_lanes = True

    def _teardown_plan(self) -> None:
        # Keyed off the saved state, not the plan handle: restoring is
        # then idempotent and safe against any partially-applied plan
        # (repeated demotion triggers on the same wire, an exception
        # between partition and first run), never double-carving lanes.
        if self._saved_lane_state is not None:
            for lane, state in zip(self._lanes, self._saved_lane_state):
                (lane._transfer_slots, lane._begin_unknown,
                 lane._updaters, parked) = state
                lane._store.unpark(parked)
        self._plan = None
        self._stepper = None
        self._profiles = None
        self._saved_lane_state = None

    # -- the vectorized timestep ------------------------------------------
    def _vec_begin(self) -> None:
        self._plan.vw.begin_step()
        if self._reset_lanes:
            for lane in self._lanes:
                # The lane's _begin_step minus its profiler hook: a
                # profiled lane's step opens in _LaneProfiles.begin,
                # with the signal count of the uncarved lane.
                lane._store.reset(lane._begin_unknown)
                lane._relax_cursor = 0
            # Lanes the plan left no scalar signal in stay parked (their
            # planes equal their templates) until something scatters
            # real values into them: nothing to reset until then.
            self._reset_lanes = self._lanes_scalar
        if self._profiles is not None:
            self._profiles.begin()

    def _vec_end(self) -> None:
        plan = self._plan
        lanes = self._lanes
        vw = plan.vw
        # Scalar-side fallback: scatter the arrays' state (and the
        # vectorized instances' module state) onto the lanes first, so
        # the fallback's blanket re-reacts are idempotent against what
        # vectorized execution already drove.  Plane signals a Mealy
        # implementation had to leave unknown (an input of its own that
        # only resolves through relaxation) join the lanes' unknown
        # budget: the scattered wires report UNKNOWN, the re-reacts and
        # relaxation scans resolve them on the wire objects — exactly
        # as a scalar run would — and ``absorb`` brings the result back
        # into the planes before the transfer scan.
        if vw.any_unknown() or any(lane._store.unknown > 0
                                   for lane in lanes):
            plan.scatter_state()
            self._reset_lanes = True
            plane_unknown = vw.unknown_by_lane()
            for index, lane in enumerate(lanes):
                lane._store.unknown += int(plane_unknown[index])
                if lane._store.unknown > 0:
                    lane._fallback()
            if plane_unknown.any():
                vw.absorb()
        counts = vw.end_step()
        now = lanes[0].now
        for impl in plan.impls:
            impl.update(now)
        if self._profiles is not None:
            self._profiles.end(counts)
        for index, lane in enumerate(lanes):
            lane.transfers_total += int(counts[index])
            lane._end_step()

    def _run_entry_cluster(self, i: int) -> None:
        for lane in self._lanes:
            lane._run_cluster(lane.schedule[i], lane._cluster_slots[i])

    # -- run loop ----------------------------------------------------------
    def run(self, cycles: int) -> "BatchedSimulator":
        """Advance every lane by ``cycles`` timesteps, in lockstep."""
        if self._closed:
            raise SimulationError(
                f"simulator for design {self.design.name!r} is closed; "
                f"build a new one to simulate again")
        for lane in self._lanes:
            if not lane._initialized:
                lane._do_init()
        if self._dispatch_dirty:
            self._rebuild_plan()
        plan = self._plan
        if plan is None:
            # Step by step, so an error (a raising monitor, a cycle
            # error) leaves every lane within one step of the others.
            lanes = self._lanes
            for _ in range(cycles):
                for lane in lanes:
                    lane._step()
            return self
        if cycles <= 0:
            return self
        plan.gather()
        stepper = self._stepper
        done = 0                    # completed steps, for the profilers
        try:
            for done in range(cycles):
                stepper()
            done = cycles
        finally:
            plan.scatter_state()
            self._reset_lanes = True
            plan.flush_stats(self._lanes)
            if self._profiles is not None:
                # Profiler counts and times flush like the statistics do.
                self._profiles.flush(done)
            if self._dispatch_dirty:
                self._teardown_plan()
        return self

    def step(self) -> "BatchedSimulator":
        """Advance by exactly one timestep."""
        return self.run(1)

    # -- lane access ---------------------------------------------------------
    @property
    def lanes(self) -> tuple:
        """All lane simulators, in construction order."""
        return tuple(self._lanes)

    def lane(self, index: int) -> LevelizedSimulator:
        """The lane simulator at ``index``."""
        return self._lanes[index]

    @property
    def batch_size(self) -> int:
        return len(self._lanes)

    # -- aggregate / representative views -------------------------------------
    @property
    def now(self) -> int:
        return self._lanes[0].now

    @property
    def design(self) -> Design:
        return self._lanes[0].design

    @property
    def transfers_total(self) -> int:
        """Transfers summed over all lanes."""
        return sum(lane.transfers_total for lane in self._lanes)

    @property
    def relaxations_total(self) -> int:
        """Relaxations summed over all lanes."""
        return sum(lane.relaxations_total for lane in self._lanes)

    @property
    def fallback_steps(self) -> int:
        """Fallback timesteps summed over all lanes."""
        return sum(lane.fallback_steps for lane in self._lanes)

    # -- observability ---------------------------------------------------------
    @property
    def profiler(self):
        """Lane 0's profiler (attach per lane for per-lane attribution)."""
        return self._lanes[0].profiler

    @profiler.setter
    def profiler(self, value) -> None:
        self._lanes[0].profiler = value

    @property
    def _instances(self):
        # A profiler attached to the batch instruments lane 0; attach
        # one profiler per lane (``Profiler(sim.lane(i))``) for
        # per-lane attribution.
        return self._lanes[0]._instances

    def _instrumentation_changed(self) -> None:
        # A profiler or monitor attached to the batch itself rewraps
        # lane 0's reacts, which lane 0's own stepper has hoisted.
        self._lanes[0]._stepper = None
        self._dispatch_dirty = True

    # -- checkpointing ----------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Per-lane snapshots (or lane 0's own for a batch of one)."""
        if len(self._lanes) == 1:
            return self._lanes[0].state_dict()
        return {"design": self.design.name, "batched": True,
                "lanes": [lane.state_dict() for lane in self._lanes]}

    def load_state_dict(self, state: Dict[str, Any]) -> "BatchedSimulator":
        if not state.get("batched"):
            if len(self._lanes) != 1:
                raise SimulationError(
                    f"single-lane checkpoint cannot restore a batch of "
                    f"{len(self._lanes)}")
            self._lanes[0].load_state_dict(state)
            return self
        if len(state["lanes"]) != len(self._lanes):
            raise SimulationError(
                f"checkpoint has {len(state['lanes'])} lanes, batch has "
                f"{len(self._lanes)}")
        for lane, lane_state in zip(self._lanes, state["lanes"]):
            lane.load_state_dict(lane_state)
        return self

    # -- teardown -----------------------------------------------------------------
    def close(self) -> None:
        """Close every lane (idempotent); see ``SimulatorBase.close``."""
        if self._closed:
            return
        self._teardown_plan()
        self._closed = True
        for lane in self._lanes:
            lane.close()
            lane._owner = None  # the lane <-> batch reference cycle

    def __enter__(self) -> "BatchedSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "vec" if self._plan is not None else "scalar"
        return (f"<BatchedSimulator {self.design.name!r} "
                f"lanes={len(self._lanes)} now={self.now} mode={mode}>")

    def __getattr__(self, name: str):
        # Drop-in compatibility for a batch of one (and convenient
        # representative access otherwise): unknown public attributes
        # delegate to lane 0.  Private names never delegate, so a typo
        # inside the coordinator cannot silently read lane state.
        lanes = self.__dict__.get("_lanes")
        if not lanes or name.startswith("_"):
            raise AttributeError(
                f"{type(self).__name__} object has no attribute {name!r} "
                f"(the 'batched' backend does not delegate private "
                f"names to its lanes)")
        try:
            return getattr(lanes[0], name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__} object has no attribute {name!r}: "
                f"not part of the 'batched' backend's batch API and not "
                f"found on its lane simulators either; per-lane state is "
                f"available via .lane(i) / .lanes") from None
