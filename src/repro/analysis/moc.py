"""Model-of-computation analysis: cycles and scheduling hazards.

The fixed reactive MoC (paper §2.3) lets us predict, before any
simulator is built, exactly which signal groups the static scheduler
will have to iterate: the non-trivial SCCs of the signal-group graph
(:func:`repro.core.optimize.combinational_clusters`).  This pass
reports them — and the specific hazard of a ``DEPS = None``
(conservative) module landing inside such a cluster, where the
engine's relaxation order can change simulation results.

``moc.combinational-cycle``
    A cluster of signal groups with a circular combinational
    dependency.  Legal, but it costs fixed-point iteration every
    timestep and fails outright under ``cycle_policy='error'`` if it
    does not converge.
``moc.relaxation-race``
    An instance with conservative dependencies (``DEPS = None``) drives
    signals inside a combinational cluster.  Its outputs are assumed to
    depend on *all* of its inputs, so if the cluster must be relaxed,
    the relaxation order — an engine implementation detail — can leak
    into model behaviour.
"""

from __future__ import annotations

from typing import List

from ..core.optimize import cluster_report, combinational_clusters
from .diagnostics import Diagnostic, Severity
from .passes import AnalysisContext, AnalysisPass, register_pass


@register_pass
class MoCPass(AnalysisPass):
    """Combinational-cycle and relaxation-race reporting."""

    name = "moc"
    rules = {
        "moc.combinational-cycle":
            "signal groups form a combinational cycle requiring "
            "fixed-point iteration",
        "moc.relaxation-race":
            "a DEPS=None module inside a combinational cycle makes "
            "results depend on relaxation order",
    }

    def run(self, ctx: AnalysisContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        graph = ctx.signal_graph
        for cluster in combinational_clusters(graph, ctx.condensation):
            paths, groups = cluster_report(graph, cluster)
            anchor = paths[0] if paths else ""
            out.append(Diagnostic(
                "moc.combinational-cycle", Severity.WARNING,
                f"combinational cycle over {len(cluster)} signal group(s) "
                f"spanning {{{', '.join(paths)}}}; the engine must iterate "
                f"it to a fixed point every timestep",
                path=anchor,
                data={"members": paths, "groups": groups},
                hint="break the cycle with a registered (Moore) stage, or "
                     "tighten a DEPS declaration if the dependency is "
                     "spurious"))
            racers = sorted({
                node["driver"].path
                for g in cluster
                for node in (graph.nodes[g],)
                if node["driver"] is not None
                and node["driver"].deps() is None})
            for path in racers:
                out.append(Diagnostic(
                    "moc.relaxation-race", Severity.WARNING,
                    f"instance {path!r} has conservative dependencies "
                    f"(DEPS = None) inside a combinational cycle; if the "
                    f"cycle is relaxed, results can depend on relaxation "
                    f"order",
                    path=path,
                    data={"cluster": paths},
                    hint="declare the module's real DEPS map so the "
                         "scheduler can order it deterministically"))
        return out
