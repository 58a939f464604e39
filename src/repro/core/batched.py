"""The batched lockstep backend: N structurally identical designs, one walk.

The compiled-model IR (:mod:`repro.core.ir`) makes a design's executable
form a function of its *structure* alone — every parameter variant of
one topology shares the same fingerprint, schedule and wire partition.
This backend exploits that: a :class:`BatchedSimulator` animates N such
variants ("lanes") in lockstep, walking the shared static schedule
**once per timestep** and dispatching each entry across all lanes,
instead of running N separate simulator loops.

Each lane is a full :class:`~repro.core.optimize.LevelizedSimulator`
with its own wires, instances, RNG, statistics and relaxation state, so
per-lane results are bit-identical to what a standalone levelized run
of the same design and seed produces — the lanes share no mutable
state, only the walk.  The win is amortized control flow: one schedule
traversal, one Python-level loop, and (through the campaign fast path
in :mod:`repro.campaign`) one process and one task dispatch for a whole
group of sweep points.

A batch of one is a drop-in levelized simulator: unknown attributes
delegate to lane 0, so probes, statistics and checkpointing behave as
usual.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from .errors import SimulationError
from .netlist import Design
from .optimize import LevelizedSimulator


class _BatchLane(LevelizedSimulator):
    """One lane of a batch: a levelized simulator that tells its owner
    when its instrumentation (profiler, contract monitor, probe,
    observer) changes, so the shared dispatch is rebuilt before the
    next run."""

    def __init__(self, design: Design, **kw):
        self._owner = None
        super().__init__(design, **kw)

    def _instrumentation_changed(self) -> None:
        if self._owner is not None:
            self._owner._instrumentation_changed()

    def probe(self, wire, label=None, limit=None):
        probe = super().probe(wire, label=label, limit=limit)
        # Watching a wire is an instrumentation change at the batch
        # level: the vectorized backend must demote that wire to the
        # scalar path so the probe sees per-lane transfers.
        self._instrumentation_changed()
        return probe

    def add_observer(self, fn) -> None:
        super().add_observer(fn)
        self._instrumentation_changed()


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
    same design and seed: the lanes share no mutable state, the batch
    only interleaves their schedule walks.
    """

    #: Registry name, used in delegation errors so a failed attribute
    #: lookup names the engine the caller actually selected.
    BACKEND_NAME = "batched"

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
        #: ``run()`` rebuilds the dispatch once, however many changed.
        self._dispatch_dirty = True

    # -- the lockstep walk -------------------------------------------------
    def _rebuild_dispatch(self) -> None:
        """Flatten each schedule entry's bound ``react`` across lanes.

        Acyclic entry ``i`` becomes one flat list of every lane's bound
        (possibly profiler-wrapped) react for that entry; cluster
        entries stay ``None`` and are iterated per lane.  Called by
        ``run()`` when the dispatch is dirty, so attaching a profiler to
        each of N lanes costs one O(N) rebuild, not N of them.
        """
        self._dispatch_dirty = False
        lanes = self._lanes
        reacts: List[Optional[List[Any]]] = []
        for i, entry in enumerate(lanes[0].schedule):
            if entry.cluster:
                reacts.append(None)
            else:
                reacts.append([lane.schedule[i].instances[0].react
                               for lane in lanes])
        self._entry_reacts = reacts

    def _step(self) -> None:
        lanes = self._lanes
        for lane in lanes:
            lane._begin_step()
        for i, reacts in enumerate(self._entry_reacts):
            if reacts is None:
                for lane in lanes:
                    lane._run_cluster(lane.schedule[i],
                                      lane._cluster_slots[i])
            else:
                for react in reacts:
                    react()
        for lane in lanes:
            if lane._store.unknown > 0:
                lane._fallback()
            lane._end_step()

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
            self._rebuild_dispatch()
        for _ in range(cycles):
            self._step()
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
        self._closed = True
        for lane in self._lanes:
            lane.close()
            lane._owner = None  # the lane <-> batch reference cycle

    def __enter__(self) -> "BatchedSimulator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"<BatchedSimulator {self.design.name!r} "
                f"lanes={len(self._lanes)} now={self.now}>")

    def __getattr__(self, name: str):
        # Drop-in compatibility for a batch of one (and convenient
        # representative access otherwise): unknown public attributes
        # delegate to lane 0.  Private names never delegate, so a typo
        # inside the coordinator cannot silently read lane state.
        backend = type(self).BACKEND_NAME
        lanes = self.__dict__.get("_lanes")
        if not lanes or name.startswith("_"):
            raise AttributeError(
                f"{type(self).__name__} object has no attribute {name!r} "
                f"(the {backend!r} backend does not delegate private "
                f"names to its lanes)")
        try:
            return getattr(lanes[0], name)
        except AttributeError:
            raise AttributeError(
                f"{type(self).__name__} object has no attribute {name!r}: "
                f"not part of the {backend!r} backend's batch API and not "
                f"found on its lane simulators either; per-lane state is "
                f"available via .lane(i) / .lanes") from None
