"""Construction-time optimization: static signal scheduling (ref [22]).

Because LSE fixes its model of computation, the specification can be
*analyzed at construction time* (paper §2.3, citing Penry & August,
DAC'03).  This module implements the flagship such optimization: a
**levelized static schedule**.

Every wire contributes two *signal groups*: its forward group
(data+enable, driven by the source instance) and its ack group (driven
by the destination).  Each leaf module's ``DEPS`` declaration tells us
which input signal groups each driven group combinationally depends on
(``DEPS = {}`` declares a fully registered module; ``DEPS = None`` is
conservative: everything depends on everything).  From these we build a
dependency graph over signal groups (:func:`build_signal_graph`) and
:func:`build_schedule` — the one place a schedule is ordered — condenses
its strongly connected components with :mod:`networkx` and walks the
condensation with an **instance-affine Kahn's algorithm**:

* constant (stub-driven) groups are resolved by ``begin_step``, so what
  they feed is released before the walk starts;
* ready components sit in one bucket per driving instance; a run of the
  current instance is extended while its bucket is non-empty, and the
  next run starts at the instance with the most ready components (ties
  by path, components by lowest wire id — the order is deterministic
  and identical for structurally identical designs);
* consecutive components of one instance collapse into a single
  ``react()``; a genuine combinational cycle becomes a small iterative
  *cluster*, scheduled only when no single instance is ready.

Reacts are pure, monotone and idempotent, so *any* order respecting the
declared dependencies reaches the same fixpoint (chaotic-iteration
confluence); the affinity only decides how many ``react()`` calls that
takes.  On fig2d's detailed backend an instance-oblivious topological
order reacts 172 times per step (n = 4) where this walk needs 76.

The resulting schedule replaces the dynamic worklist with a fixed
sequence of ``react()`` calls.  Semantics are identical to the worklist
engine, which stays the reference every engine is checked against; only
scheduling overhead is removed.  The :mod:`repro.core.codegen` engine
further compiles the schedule into generated Python, and the optimizer
(:mod:`repro.core.opt`) decides what an engine binds to it — it never
reorders it.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from .engine import SimulatorBase
from .errors import CombinationalCycleError, fmt_endpoint
from .netlist import Design
from .signals import SIG_ACK, SIG_DATA, SIG_ENABLE, Wire

#: A signal group: ("fwd"|"ack", wire id)
Group = Tuple[str, int]


def _by_wire(group: Group) -> Tuple[int, str]:
    """Sort key placing a wire's groups together, in wire-id order."""
    return group[1], group[0]


class ScheduleEntry:
    """One step of the static schedule.

    ``instances`` holds a single instance for acyclic steps, or the
    members of a combinational cluster (an SCC of the signal graph) that
    must be iterated to a fixed point.
    """

    __slots__ = ("instances", "cluster", "groups")

    def __init__(self, instances: Sequence, cluster: bool,
                 groups: Sequence[Group]):
        self.instances = list(instances)
        self.cluster = cluster
        self.groups = list(groups)

    def __repr__(self) -> str:
        kind = "cluster" if self.cluster else "react"
        names = ",".join(i.path for i in self.instances)
        return f"<{kind} {names}>"


def build_signal_graph(design: Design) -> nx.DiGraph:
    """The signal-group dependency graph of a wired design.

    Nodes are groups; an edge ``g1 -> g2`` means g2's driver may read
    g1.  Constant (stub-driven) groups have no incoming edges.
    """
    graph = nx.DiGraph()
    # Index wires per (instance, port) for dependency expansion.
    by_port: Dict[Tuple[int, str], List[Wire]] = {}
    for wire in design.wires:
        if wire.src is not None:
            by_port.setdefault((id(wire.src.instance), wire.src.port), []).append(wire)
        if wire.dst is not None:
            by_port.setdefault((id(wire.dst.instance), wire.dst.port), []).append(wire)

    def groups_for(inst, key: Tuple[str, str]) -> List[Group]:
        kind, port = key
        out: List[Group] = []
        for wire in by_port.get((id(inst), port), []):
            if kind == "fwd":
                out.append(("fwd", wire.wid))
            else:
                out.append(("ack", wire.wid))
        return out

    def driver_dep_keys(inst, driven_key: Tuple[str, str]) -> List[Tuple[str, str]]:
        deps = inst.deps()
        if deps is None:
            # Conservative: all input fwd groups and all output ack groups.
            keys: List[Tuple[str, str]] = []
            for decl in inst.PORTS:
                if decl.direction == "input":
                    keys.append(("fwd", decl.name))
                else:
                    keys.append(("ack", decl.name))
            return keys
        return list(deps.get(driven_key, ()))

    for wire in design.wires:
        fwd_g: Group = ("fwd", wire.wid)
        ack_g: Group = ("ack", wire.wid)
        graph.add_node(fwd_g, wire=wire,
                       driver=wire.src.instance if wire.src else None,
                       const=wire.src is None)
        graph.add_node(ack_g, wire=wire,
                       driver=wire.dst.instance if wire.dst else None,
                       const=wire.dst is None)

    for wire in design.wires:
        if wire.src is not None:
            inst = wire.src.instance
            for key in driver_dep_keys(inst, ("fwd", wire.src.port)):
                for dep in groups_for(inst, key):
                    graph.add_edge(dep, ("fwd", wire.wid))
        if wire.dst is not None:
            inst = wire.dst.instance
            for key in driver_dep_keys(inst, ("ack", wire.dst.port)):
                for dep in groups_for(inst, key):
                    graph.add_edge(dep, ("ack", wire.wid))
    return graph


def combinational_clusters(graph: nx.DiGraph) -> List[List[Group]]:
    """Non-trivial SCCs of the signal graph: potential combinational cycles.

    Each cluster is returned as a sorted list of signal groups.  These
    are exactly the clusters :func:`build_schedule` must iterate to a
    fixed point, and what the ``moc.combinational-cycle`` analysis rule
    reports before any simulator is built.
    """
    out: List[List[Group]] = []
    for scc in nx.strongly_connected_components(graph):
        if len(scc) > 1 or any(graph.has_edge(g, g) for g in scc):
            out.append(sorted(scc, key=_by_wire))
    return out


def describe_wire_group(kind: str, wire: Wire) -> str:
    """Human-readable rendering of one signal group, e.g.
    ``fwd src.out[0] -> q.in[0]``."""
    def end(ep) -> str:
        if ep is None:
            return "<const>"
        return fmt_endpoint(ep.instance.path, ep.port, ep.index)
    return f"{kind} {end(wire.src)} -> {end(wire.dst)}"


def cluster_report(graph: nx.DiGraph,
                   members: Sequence[Group]) -> Tuple[List[str], List[str]]:
    """``(instance paths, group descriptions)`` of one cycle cluster."""
    paths: List[str] = []
    groups: List[str] = []
    for group in members:
        node = graph.nodes[group]
        driver = node["driver"]
        if driver is not None and driver.path not in paths:
            paths.append(driver.path)
        groups.append(describe_wire_group(group[0], node["wire"]))
    return sorted(paths), groups


def _group_unresolved(kind: str, wire: Wire) -> bool:
    missing = wire.unresolved()
    if kind == "fwd":
        return SIG_DATA in missing or SIG_ENABLE in missing
    return SIG_ACK in missing


def unresolved_cycle_report(design: Design) -> Tuple[List[str], List[str]]:
    """Attribute a stuck resolution state to its combinational cycles.

    Rebuilds the signal graph and returns the instance paths and
    still-unresolved group descriptions of every cycle cluster that
    contains an unresolved signal.  Used by the engines to enrich
    :class:`~repro.core.errors.CombinationalCycleError` and by the
    analysis ``moc`` pass for its pre-simulation report.
    """
    graph = build_signal_graph(design)
    members: List[str] = []
    groups: List[str] = []
    for cluster in combinational_clusters(graph):
        stuck = [g for g in cluster
                 if _group_unresolved(g[0], graph.nodes[g]["wire"])]
        if not stuck:
            continue
        paths, _ = cluster_report(graph, cluster)
        for path in paths:
            if path not in members:
                members.append(path)
        groups.extend(describe_wire_group(g[0], graph.nodes[g]["wire"])
                      for g in stuck)
    return members, groups


def _cycle_detail(members: Sequence[str], groups: Sequence[str]) -> str:
    """Render the members/groups attribution appended to cycle errors."""
    if not members and not groups:
        return ""
    lines = []
    if members:
        lines.append("  cycle members: " + ", ".join(members))
    if groups:
        lines.append("  unresolved groups:")
        lines.extend(f"    {g}" for g in groups)
    return "\n" + "\n".join(lines)


def build_schedule(design: Design,
                   graph: nx.DiGraph = None) -> List[ScheduleEntry]:
    """Condense the signal graph and emit the static schedule.

    The one place a schedule is ordered (see the module docstring): an
    instance-affine Kahn walk over the condensation.  ``graph`` lets a
    caller that already built the signal graph (the IR compiler) reuse
    it instead of re-running dependency expansion.
    """
    if graph is None:
        graph = build_signal_graph(design)
    condensed = nx.condensation(graph)
    # Plain dicts: the walk below is the hot part of a cold build.
    driver_of = dict(graph.nodes(data="driver"))
    members = dict(condensed.nodes(data="members"))
    successors = condensed.succ
    indeg = dict(condensed.in_degree())
    #: Ready single-driver components per driver path, and the ready
    #: multi-driver clusters (which have no run to extend); both are
    #: heaps of (lowest (wire id, kind), component, drivers, groups) —
    #: the key is unique, so the rest is never compared.
    ready: Dict[str, list] = {}
    clusters: list = []
    #: Lazy max-heap of (-len(bucket), path), pushed whenever a bucket
    #: grows.  Only the current run's bucket ever shrinks, and it is
    #: emptied before the heap is consulted again, so an entry is stale
    #: exactly when its size no longer matches.
    fullest: list = []

    def arrive(scc: int) -> None:
        """Every predecessor of ``scc`` is scheduled."""
        groups = sorted(members[scc], key=_by_wire)
        # Distinct drivers in group order (by identity, order-preserving).
        drivers = list({id(d): d for d in map(driver_of.get, groups)}
                       .values())
        if drivers[0] is None:
            # A constant group (always a singleton: nothing feeds it)
            # is resolved by begin_step, so its consumers are released
            # before the walk starts rather than when it would be popped.
            release(scc)
            return
        if len(drivers) == 1:
            path = drivers[0].path
            bucket = ready.setdefault(path, [])
            heappush(fullest, (-len(bucket) - 1, path))
        else:
            bucket = clusters
        heappush(bucket, (_by_wire(groups[0]), scc, drivers, groups))

    def release(scc: int) -> None:
        for succ in successors[scc]:
            indeg[succ] -= 1
            if not indeg[succ]:
                arrive(succ)

    for scc in [n for n, degree in indeg.items() if not degree]:
        arrive(scc)
    entries: List[ScheduleEntry] = []
    current: Optional[str] = None
    while ready or clusters:
        bucket = ready.get(current)
        if bucket is None:
            # The run cannot be extended: start the next one at the
            # driver with the most ready components (ties by path), and
            # take a cluster only when no single driver is ready.
            bucket = clusters
            while fullest:
                size, path = heappop(fullest)
                if len(ready.get(path, ())) == -size:
                    current, bucket = path, ready[path]
                    break
        _, scc, drivers, groups = heappop(bucket)
        if not bucket:
            ready.pop(current, None)  # no-op when ``bucket is clusters``
        cluster = len(groups) > 1
        if not cluster and entries and not entries[-1].cluster \
                and entries[-1].instances[0] is drivers[0]:
            # Same instance as the previous entry: one react covers both.
            entries[-1].groups.extend(groups)
        else:
            entries.append(ScheduleEntry(drivers, cluster, groups))
        release(scc)
    # Mutually recursive closures are a reference cycle (and these hold
    # every driver instance through ``driver_of``): break it by hand.
    arrive = release = None
    return entries


class LevelizedSimulator(SimulatorBase):
    """Statically scheduled engine; see module docstring.

    Attributes
    ----------
    schedule:
        The :class:`ScheduleEntry` list executed each timestep.
    fallback_steps:
        Number of timesteps in which the static schedule failed to
        resolve every signal (symptom of an over-optimistic ``DEPS``
        declaration) and the engine fell back to worklist-style
        iteration.  0 for correct declarations.
    """

    #: Subclasses that execute a generated stepper set this so
    #: :func:`repro.core.ir.compile_model` attaches one up front.
    NEEDS_STEPPER = False

    def __init__(self, design: Design, *, opt: Optional[int] = None, **kw):
        # Construction-time compilation is content-addressed: the IR
        # compiler fingerprints the design and, on a cache hit, rebinds
        # the cached CompiledModel onto this design's instances and
        # wires — the signal graph, condensation and schedule
        # construction are all skipped (see repro.core.ir).  ``opt``
        # (default: the REPRO_OPT environment) selects the optimizer
        # level; optimized artifacts are cached under a composite key,
        # so warm runs skip the pass pipeline too.
        from .ir import CompileOptions, compile_model
        from .opt import resolve_opt_level
        level = resolve_opt_level(opt)
        bound = compile_model(design, CompileOptions(
            opt_level=level, need_stepper=type(self).NEEDS_STEPPER))
        super().__init__(design, _partition=bound.partition,
                         _opt=bound.model.opt, **kw)
        self.compiled = bound.model
        self.compile_fingerprint: str = bound.model.fingerprint
        self.compiled_from_cache = bound.from_cache
        #: The resolved optimization level this simulator compiled at;
        #: the vectorized batched backend keys its plan fetch off it.
        self.compile_opt_level = level
        self.schedule = bound.schedule
        self.fallback_steps = 0
        # Per-entry slot lists the cluster fixed-point iteration checks.
        self._cluster_slots: List[List[int]] = bound.cluster_slots

    def _run_cluster(self, entry: ScheduleEntry, slots: List[int]) -> None:
        """Iterate a combinational cluster to a fixed point."""
        store = self._store
        first_unresolved = store.first_unresolved
        pending = True
        guard = 3 * len(entry.groups) + 3
        while pending and guard > 0:
            guard -= 1
            before = store.unknown
            for inst in entry.instances:
                inst.react()
            pending = any(first_unresolved(s) is not None for s in slots)
            if pending and store.unknown == before:
                # No progress: apply the cycle policy inside the cluster.
                if self.cycle_policy == "error":
                    members = sorted({inst.path
                                      for inst in entry.instances})
                    wires = self._wires
                    groups = [describe_wire_group(kind, wires[wid])
                              for kind, wid in entry.groups
                              if _group_unresolved(kind, wires[wid])]
                    raise CombinationalCycleError(
                        f"timestep {self.now}: combinational cluster "
                        f"{entry!r} did not converge:\n"
                        + self._unresolved_report()
                        + _cycle_detail(members, groups),
                        members=members, groups=groups)
                for s in slots:
                    signal = first_unresolved(s)
                    if signal is not None:
                        self._force(s, signal)
                        break

    def _step(self) -> None:
        self._begin_step()
        for entry, slots in zip(self.schedule, self._cluster_slots):
            if entry.cluster:
                self._run_cluster(entry, slots)
            else:
                entry.instances[0].react()
        if self._store.unknown > 0:
            self._fallback()
        self._end_step()

    def _fallback(self) -> None:
        """Worklist-style safety net for mis-declared dependencies."""
        self.fallback_steps += 1
        store = self._store
        guard = 3 * len(self._wires) * 3 + 3
        while store.unknown > 0 and guard > 0:
            guard -= 1
            before = store.unknown
            for inst in self._react_instances:
                inst.react()
            if store.unknown == before:
                if self.cycle_policy == "error":
                    members, groups = unresolved_cycle_report(self.design)
                    raise CombinationalCycleError(
                        f"timestep {self.now}: static schedule incomplete "
                        f"and iteration stuck:\n" + self._unresolved_report()
                        + _cycle_detail(members, groups),
                        members=members, groups=groups)
                if not self._force_next_unresolved():
                    break

    # ------------------------------------------------------------------
    # Engine-specific checkpoint state
    # ------------------------------------------------------------------
    def _extra_state(self):
        return {"fallback_steps": self.fallback_steps}

    def _load_extra_state(self, extra) -> None:
        self.fallback_steps = extra.get("fallback_steps",
                                        self.fallback_steps)

    # ------------------------------------------------------------------
    def schedule_report(self) -> str:
        """Human-readable schedule listing (for docs and debugging)."""
        lines = [f"static schedule for {self.design.name!r}: "
                 f"{len(self.schedule)} entries"]
        for i, entry in enumerate(self.schedule):
            lines.append(f"  [{i:3d}] {entry!r} ({len(entry.groups)} groups)")
        return "\n".join(lines)
