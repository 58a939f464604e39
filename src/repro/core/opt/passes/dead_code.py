"""Dead-instance and dead-signal elimination (``--opt 2``).

Reuses the consuming-endpoint semantics proven in
:func:`repro.analysis.connectivity.dead_instance_paths`: an instance is
*dead* when it is fully disconnected amid other wiring, or when nothing
it produces can ever reach a consuming endpoint.  The analysis layer
reports those instances; this pass removes them.

Elimination is restricted to **closed** dead subgraphs — dead
instances whose every wire connects only to other eliminated instances
or to stubs.  A dead instance sharing a live wire with a surviving
instance is kept: removing it would change the survivor's observable
environment (an ack that never arrives, a datum never offered), and
observation equivalence for survivors is the pass's contract.
Instances participating in combinational clusters are likewise exempt
(cluster fixed-point iteration needs every member).

What elimination means downstream: the pass drops the instance's
entries from the schedule it is handed (closure guarantees they carry
only dead groups and that no surviving group waits on them, so the
remaining order stays a valid topological order), its ``update()`` is
skipped (so its statistics vanish with it), and all its wires are
*parked* — excluded from the per-step begin/transfer/relaxation loops
with their unknown-signal budget subtracted.  Surviving instances,
wires and probes behave bit-identically to ``--opt 0``.
"""

from __future__ import annotations

from typing import Any, Dict, Set, Tuple

from ...optimize import build_signal_graph, combinational_clusters

NAME = "dead-code"


def eliminable_instances(design, graph=None) -> Tuple[Set[str], Set[int]]:
    """The closed dead subgraph of ``design``: ``(paths, wire ids)``.

    ``graph`` is the signal-group graph when the caller already has it
    (used to exempt combinational-cluster members); passing ``None``
    skips that exemption only if the design has no clusters anyway —
    callers with possibly-cyclic designs should supply it.  Shared with
    ``repro check`` so the ``removable at --opt 2`` notes and the
    optimizer's eliminated set agree by construction.
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


def run(ctx) -> Dict[str, Any]:
    dead_paths, dead_wids = eliminable_instances(ctx.design, ctx.graph)
    ctx.dead_paths, ctx.dead_wids = dead_paths, dead_wids
    # Cluster members are never eliminable, so only single-instance
    # entries can go.  No two entries of one survivor become adjacent:
    # a dead component releases only dead components, so whatever the
    # walk picked after a dead entry was not the instance before it.
    ctx.entries = [entry for entry in ctx.entries if entry.cluster
                   or entry.instances[0].path not in dead_paths]
    return {"instances": len(dead_paths), "wires": len(dead_wids)}
