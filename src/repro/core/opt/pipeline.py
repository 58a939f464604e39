"""The optimizer: decide what an engine may skip, emit the opt block.

:func:`optimize_model` is the single entry point the IR compiler
(:func:`repro.core.ir.compile_model`) calls on an optimized-cache miss.
It lowers the schedule it is handed to

* the live schedule — the one :func:`repro.core.optimize.build_schedule`
  ordered, minus whatever dead-code elimination removed; nothing
  reorders it — and
* a portable **opt block** — a JSON-able dict of wire keys and
  instance paths every engine applies at construction time
  (``SimulatorBase._apply_opt``) and that rides inside the cached
  :class:`~repro.core.ir.CompiledModel`.

**Dead-code elimination** (``--opt 2``) is the one pass.  It reuses the
consuming-endpoint semantics proven in
:func:`repro.analysis.connectivity.dead_instance_paths`: an instance is
*dead* when it is fully disconnected amid other wiring, or when nothing
it produces can ever reach a consuming endpoint.  The analysis layer
reports those instances; :func:`eliminable_instances` picks the ones
that can go.

Elimination is restricted to **closed** dead subgraphs — dead
instances whose every wire connects only to other eliminated instances
or to stubs.  A dead instance sharing a live wire with a surviving
instance is kept: removing it would change the survivor's observable
environment (an ack that never arrives, a datum never offered), and
observation equivalence for survivors is the contract.  Instances
participating in combinational clusters are likewise exempt (cluster
fixed-point iteration needs every member).

What elimination means downstream: the instance's entries leave the
schedule (closure guarantees they carry only dead groups and that no
surviving group waits on them, so the remaining order stays a valid
topological order), its ``update()`` is skipped (so its statistics
vanish with it), and all its wires are *parked* — excluded from the
per-step begin/transfer/relaxation loops with their unknown-signal
budget subtracted.  Surviving instances, wires and probes behave
bit-identically to ``--opt 0``.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from ..netlist import Design
from ..optimize import (ScheduleEntry, build_schedule, build_signal_graph,
                        combinational_clusters)

#: Total pipeline executions in this process.  Cache tests and the
#: warm-skip benchmark assert this does NOT advance on a warm
#: optimized-IR cache hit.
PIPELINE_RUNS = 0


class OptResult(NamedTuple):
    """One pipeline run's output: the new schedule plus the opt block."""

    schedule: List[ScheduleEntry]
    block: Dict[str, Any]
    level: int


def react_calls(entries: List[ScheduleEntry]) -> int:
    """``react()`` invocations one schedule walk costs (clusters count
    one call per member; their fixed-point iterations are dynamic)."""
    return sum(len(e.instances) if e.cluster else 1 for e in entries)


def schedule_signature(entries: List[ScheduleEntry]) -> List[str]:
    """Compact, comparison-friendly rendering of a schedule (golden
    snapshot tests): one string per entry, ``path`` or
    ``cluster:a+b``, suffixed with the group count."""
    out: List[str] = []
    for entry in entries:
        if entry.cluster:
            names = "+".join(sorted(i.path for i in entry.instances))
            out.append(f"cluster:{names}({len(entry.groups)}g)")
        else:
            out.append(f"{entry.instances[0].path}({len(entry.groups)}g)")
    return out


def eliminable_instances(design, graph=None) -> Tuple[Set[str], Set[int]]:
    """The closed dead subgraph of ``design``: ``(paths, wire ids)``.

    ``graph`` is the signal-group graph when the caller already has it
    (used to exempt combinational-cluster members); it is rebuilt when
    absent.  Shared with ``repro check`` so the ``removable at --opt 2``
    notes and the optimizer's eliminated set agree by construction.
    """
    # Lazy import: repro.analysis imports repro.core at module load.
    from repro.analysis.connectivity import dead_instance_paths
    isolated, unreachable = dead_instance_paths(design)
    candidates: Set[str] = set(isolated) | set(unreachable)
    if graph is None:
        graph = build_signal_graph(design)
    for cluster in combinational_clusters(graph):
        for group in cluster:
            node = graph.nodes[group]
            if node["driver"] is not None:
                candidates.discard(node["driver"].path)
    # Close the set: drop any candidate sharing a wire with a survivor,
    # to a fixed point.
    changed = True
    while changed and candidates:
        changed = False
        for wire in design.wires:
            src = wire.src.instance.path if wire.src is not None else None
            dst = wire.dst.instance.path if wire.dst is not None else None
            for mine, other in ((src, dst), (dst, src)):
                if (mine in candidates and other is not None
                        and other not in candidates):
                    candidates.discard(mine)
                    changed = True
    dead_wids = {wire.wid for wire in design.wires
                 if (wire.src is not None
                     and wire.src.instance.path in candidates)
                 or (wire.dst is not None
                     and wire.dst.instance.path in candidates)}
    return candidates, dead_wids


def optimize_model(design: Design, *, level: int, graph=None,
                   schedule: Optional[List[ScheduleEntry]] = None) \
        -> OptResult:
    """Optimize ``design`` at ``level``: the schedule an engine walks
    plus the opt block it applies.

    ``graph``/``schedule`` let the IR compiler hand over the signal
    graph and base schedule it already has; both are rebuilt when
    absent.  ``level`` must be ≥ 1 (level 0 means "pipeline skipped"
    and is handled by the caller).  Level 1 runs the
    observation-equivalent passes, of which none remain — it returns
    the schedule it was handed and an empty block — and level 2 adds
    dead-code elimination.
    """
    from . import OPT_VERSION
    from ..compile_cache import wire_key
    global PIPELINE_RUNS
    PIPELINE_RUNS += 1
    if graph is None:
        graph = build_signal_graph(design)
    if schedule is None:
        schedule = build_schedule(design, graph=graph)
    passes: List[str] = []
    dead_paths: Set[str] = set()
    dead_wids: Set[int] = set()
    if level >= 2:
        passes.append("dead-code")
        dead_paths, dead_wids = eliminable_instances(design, graph)
        # Cluster members are never eliminable, so only single-instance
        # entries can go.  No two entries of one survivor become
        # adjacent: a dead component releases only dead components, so
        # whatever the walk picked after a dead entry was not the
        # instance before it.
        schedule = [entry for entry in schedule if entry.cluster
                    or entry.instances[0].path not in dead_paths]
    block = {"version": OPT_VERSION,
             "level": level,
             "dead_wires": sorted(list(wire_key(w)) for w in design.wires
                                  if w.wid in dead_wids),
             "dead_instances": sorted(dead_paths),
             "passes": passes}
    return OptResult(schedule, block, level)


# ----------------------------------------------------------------------
# Explain report (python -m repro opt --explain)
# ----------------------------------------------------------------------
def explain_report(design: Design, level: int) -> str:
    """Human-readable before/after report for one design at ``level``.

    Runs the optimizer directly (never through the cache) so the report
    always reflects its current behavior.
    """
    lines = [f"optimizer report for design {design.name!r} at --opt {level}"]
    if level <= 0:
        lines.append("  level 0: pipeline disabled, schedule unchanged")
        return "\n".join(lines)
    graph = build_signal_graph(design)
    base = build_schedule(design, graph=graph)
    result = optimize_model(design, level=level, graph=graph, schedule=base)
    block = result.block
    lines.append(
        f"  total: schedule {len(base)}->{len(result.schedule)} entries, "
        f"react calls/step {react_calls(base)}->"
        f"{react_calls(result.schedule)}")
    lines.append(
        f"  passes run: {', '.join(block['passes']) or 'none'}; "
        f"parked wires: {len(block['dead_wires'])} dead; "
        f"instances removed: {len(block['dead_instances'])}")
    if block["dead_instances"]:
        lines.append("  eliminated: " + ", ".join(block["dead_instances"]))
    lines.extend(_vec_coverage_lines(design, level, base, result))
    return "\n".join(lines)


def _vec_coverage_lines(design: Design, level: int, base, result) -> List[str]:
    """Per-level vec-planning preview for the explain report.

    Plans the single-lane vec structure at opt 0 and at every enabled
    level so the report shows how many wires each level vectorizes,
    demotes, or parks — the opt/vec interaction the staged compiler
    exploits (wires the optimizer parks never demote a lane).
    """
    from ..vec import plan_vec_structure
    lines = ["  vec planning preview (wires vectorized/demoted/parked):"]
    for lvl in range(level + 1):
        if lvl == 0:
            payload = plan_vec_structure(design, base, opt=None)
        elif lvl == level:
            payload = plan_vec_structure(design, result.schedule,
                                         opt=result.block)
        else:
            mid = optimize_model(design, level=lvl)
            payload = plan_vec_structure(design, mid.schedule, opt=mid.block)
        counts = payload["counts"]
        reasons: Dict[str, int] = {}
        for _key, reason in payload["demotions"]:
            reasons[reason] = reasons.get(reason, 0) + 1
        detail = ("" if not reasons else " (" + ", ".join(
            f"{name}: {n}" for name, n in sorted(reasons.items())) + ")")
        lines.append(
            f"    opt {lvl}: {counts['vectorized']}/{counts['total']} "
            f"vectorized, {counts['demoted']} demoted, "
            f"{counts['parked']} parked{detail}")
    return lines
