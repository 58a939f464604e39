"""The vectorized batched backend: SoA lane state, one array op per signal.

:class:`VectorizedBatchedSimulator` extends the lockstep
:class:`~repro.core.batched.BatchedSimulator` with a numpy
structure-of-arrays execution plan keyed off the compiled model's
schedule and wire partition.  At plan-build time every wire and
instance is feature-detected (see :func:`repro.core.vec.build_vec_plan`):
instances whose exact template class has a registered vectorized
implementation — and whose parameter bindings that implementation
supports — run as one array-wide ``react``/``update`` per timestep,
resolving each of their scheduled signals across **all lanes in a
single array operation**; everything else (custom generators, callable
payloads, probe-watched wires, Mealy templates without a ``MEALY``
implementation, clusters) stays on the existing per-lane scalar path,
interleaved at its exact schedule position so results remain
bit-identical to solo levelized runs.

The per-timestep walk is a *generated* vectorized stepper
(:func:`repro.core.codegen.generate_vec_stepper_source`), mirroring the
codegen engine: vectorized entries become hoisted array calls, scalar
entries become flat per-lane react loops, and skipped entries (later
schedule occurrences of an already-run vectorized Moore instance)
vanish from the body entirely.

Fallback ladder, outermost first:

* a step observer or contract monitor on any lane (or a plan-build
  failure, or nothing vectorizable) disables the plan — the simulator
  then behaves exactly like its ``batched`` parent.  An
  observer reads every lane's wires mid-step and a monitor checks each
  port read a template's own ``react`` makes, and a vectorized
  instance never runs that ``react``;
* a probe attached to a wire demotes *that wire* (and, if thereby
  stranded, its endpoint instances) to the scalar path on the next
  plan rebuild, leaving the rest vectorized;
* a lane finishing the schedule walk with scalar signals unresolved
  takes the normal levelized relaxation fallback — the plan scatters
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
every ``run()`` gathers state into the arrays on entry and synchronizes
it back (RNG streams rewound-and-replayed to their exact scalar
positions, statistics flushed as integer counter deltas) on exit, so
``state_dict``/``load_state_dict``, probes on scalar wires, and direct
lane inspection all behave as on the scalar batched backend.
"""

from __future__ import annotations

import time
import warnings
from typing import List, Optional

from .batched import BatchedSimulator
from .codegen import generate_vec_stepper_source
from .vec import VecPlan, VecPlanMismatch, adopt_vec_plan, build_vec_plan

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


class VectorizedBatchedSimulator(BatchedSimulator):
    """Lockstep batch execution with a vectorized SoA fast path.

    Drop-in for :class:`BatchedSimulator` (same constructor, lane
    access, checkpointing and teardown API); per-lane results are
    bit-identical to standalone levelized runs of the same designs and
    seeds, whether a given wire executed vectorized or scalar.
    """

    BACKEND_NAME = "batched-vec"

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self._plan: Optional[VecPlan] = None
        self._plan_dirty = True
        self._stepper = None
        self._saved_lane_state: Optional[List[tuple]] = None
        #: Whether the plan leaves the lanes any scalar signal to reset
        #: each step, and whether the next step must reset them anyway.
        self._lanes_scalar = True
        self._reset_lanes = True
        #: The profiled lanes' vec-side reporting (None: none profiled).
        self._profiles: Optional[_LaneProfiles] = None
        #: Source text of the generated vectorized stepper (None until
        #: a plan is built; inspectable like CodegenSimulator's).
        self.generated_vec_source: Optional[str] = None

    # -- plan lifecycle ----------------------------------------------------
    @property
    def vec_plan(self) -> Optional[VecPlan]:
        """The active vectorization plan (None while running scalar)."""
        return self._plan

    def _rebuild_dispatch(self) -> None:
        super()._rebuild_dispatch()
        self._plan_dirty = True

    def _needs_scalar(self) -> bool:
        """A step observer or contract monitor on any lane (or on the
        batch itself) needs every lane on the scalar path."""
        if getattr(self, "contract_monitor", None) is not None:
            return True
        return any(lane._observers
                   or getattr(lane, "contract_monitor", None) is not None
                   for lane in self._lanes)

    def _ensure_plan(self) -> None:
        if not self._plan_dirty:
            return
        self._plan_dirty = False
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
                f"batched-vec: vectorization unavailable for design "
                f"{self.design.name!r} ({type(exc).__name__}: {exc}); "
                f"falling back to scalar lockstep execution",
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
        level = getattr(lane0, "compile_opt_level", 0)
        payload = None
        try:
            from .ir import CompileOptions, compile_model
            bound = compile_model(lane0.design,
                                  CompileOptions(opt_level=level, vec=True))
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
        return build_vec_plan(self._lanes, schedule,
                              opt=getattr(lane0.compiled, "opt", None))

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
        profiles = None
        if any(lane.profiler is not None for lane in self._lanes):
            profiles = _LaneProfiles(self._lanes, self._lanes[0].schedule,
                                     plan)
            vec_reacts = [profiles.wrap(k, impl)
                          for k, impl in enumerate(plan.impls)]
        self._stepper = namespace["make_vec_stepper"](self, vec_reacts)
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
    def run(self, cycles: int) -> "VectorizedBatchedSimulator":
        """Advance every lane by ``cycles`` timesteps, in lockstep."""
        if self._closed:
            from .errors import SimulationError
            raise SimulationError(
                f"simulator for design {self.design.name!r} is closed; "
                f"build a new one to simulate again")
        for lane in self._lanes:
            if not lane._initialized:
                lane._do_init()
        if self._dispatch_dirty:
            self._rebuild_dispatch()
        self._ensure_plan()
        if self._plan is None:
            for _ in range(cycles):
                self._step()
            return self
        if cycles <= 0:
            return self
        plan = self._plan
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

    # -- teardown ----------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._teardown_plan()
        super().close()

    def __repr__(self) -> str:
        mode = "vec" if self._plan is not None else "scalar"
        return (f"<VectorizedBatchedSimulator {self.design.name!r} "
                f"lanes={len(self._lanes)} now={self.now} mode={mode}>")


__all__ = ["VectorizedBatchedSimulator"]
