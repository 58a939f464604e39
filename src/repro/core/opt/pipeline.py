"""The optimizer pass manager: run passes, record deltas, emit the block.

:func:`optimize_model` is the single entry point the IR compiler
(:func:`repro.core.ir.compile_model`) calls on an optimized-cache miss.
It runs each pass of :data:`PASS_TABLE` that the requested level
enables over one shared :class:`OptContext` and lowers the result to

* the live schedule — the one :func:`repro.core.optimize.build_schedule`
  ordered, minus whatever dead-code eliminated; no pass reorders it —
  and
* a portable **opt block** — a JSON-able dict of wire keys and
  instance paths every engine applies at construction time
  (``SimulatorBase._apply_opt``) and that rides inside the cached
  :class:`~repro.core.ir.CompiledModel`.

Safety rests on the DEPS/PORTS contracts the fingerprint already
covers: reacts are pure, idempotent and monotone, so any schedule that
respects the declared signal-group dependencies reaches the same
unique fixpoint (chaotic-iteration confluence), and transfers/probes
are judged from final wire state only.  Both passes transform within
those contracts; the cross-engine differential tests arbitrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Set

from ..netlist import Design
from ..optimize import ScheduleEntry, build_schedule, build_signal_graph
from .passes import dead_code, specialize

#: Total pipeline executions in this process.  Cache tests and the
#: warm-skip benchmark assert this does NOT advance on a warm
#: optimized-IR cache hit.
PIPELINE_RUNS = 0

#: (name, minimum level, pass module) in execution order: dead-code
#: first, so specialize folds nothing that was eliminated.
PASS_TABLE = (
    (dead_code.NAME, 2, dead_code),
    (specialize.NAME, 1, specialize),
)


@dataclass
class OptContext:
    """Mutable state shared by the passes of one pipeline run."""

    design: Design
    graph: Any
    entries: List[ScheduleEntry]
    #: Instances eliminated by dead-code (closed dead subgraphs).
    dead_paths: Set[str] = field(default_factory=set)
    #: Wires of eliminated instances, parked entirely.
    dead_wids: Set[int] = field(default_factory=set)
    #: Instance paths whose react is folded per constant binding.
    specialized: List[str] = field(default_factory=list)


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


def optimize_model(design: Design, *, level: int, graph=None,
                   schedule: Optional[List[ScheduleEntry]] = None) \
        -> OptResult:
    """Run the pass pipeline over ``design`` at ``level``.

    ``graph``/``schedule`` let the IR compiler hand over the signal
    graph and base schedule it already has; both are rebuilt when
    absent.  ``level`` must be ≥ 1 (level 0 means "pipeline skipped"
    and is handled by the caller).
    """
    from . import OPT_VERSION
    from ..compile_cache import wire_key
    global PIPELINE_RUNS
    PIPELINE_RUNS += 1
    if graph is None:
        graph = build_signal_graph(design)
    if schedule is None:
        schedule = build_schedule(design, graph=graph)
    ctx = OptContext(design, graph, schedule)
    records: List[Dict[str, Any]] = []
    for name, min_level, module in PASS_TABLE:
        if level < min_level:
            continue
        entries_before = len(ctx.entries)
        reacts_before = react_calls(ctx.entries)
        detail = module.run(ctx) or {}
        record = {"name": name,
                  "entries_before": entries_before,
                  "entries_after": len(ctx.entries),
                  "reacts_before": reacts_before,
                  "reacts_after": react_calls(ctx.entries)}
        record.update(detail)
        records.append(record)
    # Lower the context's wid/path sets to the portable opt block.
    block = {"version": OPT_VERSION,
             "level": level,
             "dead_wires": sorted(list(wire_key(w)) for w in design.wires
                                  if w.wid in ctx.dead_wids),
             "dead_instances": sorted(ctx.dead_paths),
             "specialized": sorted(ctx.specialized),
             "passes": records}
    return OptResult(ctx.entries, block, level)


# ----------------------------------------------------------------------
# Explain report (python -m repro opt --explain)
# ----------------------------------------------------------------------
def explain_report(design: Design, level: int) -> str:
    """Human-readable per-pass delta report for one design at ``level``.

    Runs the pipeline directly (never through the cache) so the report
    always reflects the current pass behavior.
    """
    lines = [f"optimizer report for design {design.name!r} at --opt {level}"]
    if level <= 0:
        lines.append("  level 0: pipeline disabled, schedule unchanged")
        return "\n".join(lines)
    graph = build_signal_graph(design)
    base = build_schedule(design, graph=graph)
    result = optimize_model(design, level=level, graph=graph, schedule=base)
    for rec in result.block["passes"]:
        delta = []
        if rec["entries_before"] != rec["entries_after"]:
            delta.append(f"entries {rec['entries_before']}"
                         f"->{rec['entries_after']}")
        if rec["reacts_before"] != rec["reacts_after"]:
            delta.append(f"reacts/step {rec['reacts_before']}"
                         f"->{rec['reacts_after']}")
        for key, value in rec.items():
            if key in ("name", "entries_before", "entries_after",
                       "reacts_before", "reacts_after"):
                continue
            delta.append(f"{key}={value}")
        lines.append(f"  pass {rec['name']:<14} "
                     + (", ".join(delta) if delta else "no change"))
    block = result.block
    lines.append(
        f"  total: schedule {len(base)}->{len(result.schedule)} entries, "
        f"react calls/step {react_calls(base)}->"
        f"{react_calls(result.schedule)}")
    lines.append(
        f"  parked wires: {len(block['dead_wires'])} dead; "
        f"instances removed: {len(block['dead_instances'])}; "
        f"reacts specialized: {len(block['specialized'])}")
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
