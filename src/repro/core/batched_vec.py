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

* ``REPRO_VEC=0`` (or an attached profiler/observer, or a plan-build
  failure, or nothing vectorizable) disables the plan — the simulator
  then behaves exactly like its ``batched`` parent;
* a probe attached to a wire demotes *that wire* (and, if thereby
  stranded, its endpoint instances) to the scalar path on the next
  plan rebuild, leaving the rest vectorized;
* a lane finishing the schedule walk with scalar signals unresolved
  takes the normal levelized relaxation fallback — the plan scatters
  wire and module state back to that lane first, so the fallback's
  re-drives and relaxation scans see exactly the state a scalar run
  would have.

Between runs the module instances and wires remain the source of truth:
every ``run()`` gathers state into the arrays on entry and synchronizes
it back (RNG streams rewound-and-replayed to their exact scalar
positions, statistics flushed as integer counter deltas) on exit, so
``state_dict``/``load_state_dict``, probes on scalar wires, and direct
lane inspection all behave as on the scalar batched backend.
"""

from __future__ import annotations

import os
import warnings
from typing import List, Optional

from .batched import BatchedSimulator
from .codegen import generate_vec_stepper_source
from .vec import VecPlan, VecPlanMismatch, adopt_vec_plan, build_vec_plan

_DISABLE_VALUES = ("0", "off", "no", "false")


def _vec_disabled() -> bool:
    return os.environ.get("REPRO_VEC", "").strip().lower() in _DISABLE_VALUES


class VectorizedBatchedSimulator(BatchedSimulator):
    """Lockstep batch execution with a vectorized SoA fast path.

    Drop-in for :class:`BatchedSimulator` (same constructor, lane
    access, checkpointing and teardown API); per-lane results are
    bit-identical to standalone levelized runs of the same designs and
    seeds, whether a given wire executed vectorized or scalar.
    """

    BACKEND_NAME = "batched-vec"

    def __init__(self, *args, **kw):
        # Plan state must exist before super().__init__: construction
        # already triggers _rebuild_dispatch(), which we intercept.
        self._plan: Optional[VecPlan] = None
        self._plan_dirty = True
        self._stepper = None
        self._stepping = False
        self._saved_lane_state: Optional[List[tuple]] = None
        #: Whether the plan leaves the lanes any scalar signal to reset
        #: each step, and whether the next step must reset them anyway.
        self._lanes_scalar = True
        self._reset_lanes = True
        #: Source text of the generated vectorized stepper (None until
        #: a plan is built; inspectable like CodegenSimulator's).
        self.generated_vec_source: Optional[str] = None
        super().__init__(*args, **kw)

    # -- plan lifecycle ----------------------------------------------------
    @property
    def vec_plan(self) -> Optional[VecPlan]:
        """The active vectorization plan (None while running scalar)."""
        return self._plan

    def _rebuild_dispatch(self) -> None:
        super()._rebuild_dispatch()
        self._invalidate_plan()

    def _lane_instrumented(self) -> None:
        self._invalidate_plan()

    def _invalidate_plan(self) -> None:
        self._plan_dirty = True

    def _ensure_plan(self) -> None:
        if not self._plan_dirty:
            return
        self._plan_dirty = False
        self._teardown_plan()
        if _vec_disabled():
            return
        # A profiler or step observer needs the full per-lane scalar
        # machinery (per-react timing, per-step sampling): run scalar.
        if any(lane.profiler is not None or lane._observers
               for lane in self._lanes):
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
        self._stepper = namespace["make_vec_stepper"](
            self, [impl.react for impl in plan.impls])
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
        self._saved_lane_state = None

    # -- the vectorized timestep ------------------------------------------
    def _vec_begin(self) -> None:
        self._plan.vw.begin_step()
        if self._reset_lanes:
            for lane in self._lanes:
                lane._begin_step()
            # Lanes the plan left no scalar signal in stay parked (their
            # planes equal their templates) until something scatters
            # real values into them: nothing to reset until then.
            self._reset_lanes = self._lanes_scalar

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
        self._stepping = True
        try:
            for _ in range(cycles):
                stepper()
        finally:
            self._stepping = False
            plan.scatter_state()
            self._reset_lanes = True
            plan.flush_stats(self._lanes)
            if self._plan_dirty:
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
