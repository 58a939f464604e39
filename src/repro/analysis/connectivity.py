"""Connectivity lint: wiring problems a partial specification can hide.

Partial specification (paper §2.2) is a feature — the constructor pads
unconnected port indices with default-driven stub wires so incomplete
models still build and run.  The flip side is that a *mistakenly*
disconnected port degrades silently: the module reads defaults forever,
or its output feeds nothing.  This pass surfaces exactly those
conditions:

``connectivity.unconnected-input``
    An input port whose every wire is a default-driven stub — the
    instance will only ever see the declared defaults there.  Info
    severity: deliberately leaving optional ports unconnected is the
    whole point of partial specification, so this is an inventory of
    what the model does *not* exercise, not an accusation.
``connectivity.dangling-output``
    An output port whose every wire is a stub — everything the
    instance produces there is discarded.  Info severity, as above.
``connectivity.dead-instance``
    An instance with no real wires at all, or one whose outputs can
    never reach a consuming endpoint — a terminal consumer, or a
    terminal request/response loop with a stateful member — so nothing
    it does can be observed downstream.
``connectivity.constant-subgraph``
    A cycle of *flow-through* instances receiving no real data from
    outside the cycle: every datum circulating in it derives from stub
    constants.  A member that can generate data from internal state —
    a Moore module (``DEPS = {}``), one with a state-driven (empty-dep)
    forward group, or a conservative ``DEPS = None`` module — exempts
    the cycle, since statically we cannot rule out self-sustained
    traffic.
``connectivity.dangling-export``
    A hierarchical template declares a port its ``build`` never
    exports; connecting to it would fail at elaboration, and leaving
    it unconnected silently drops the interface.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..core.errors import LibertyError, fmt_endpoint
from ..core.graph import Condensation, DiGraph, descendants
from ..core.module import HierBody, HierTemplate
from ..core.params import resolve_bindings
from ..core.ports import INPUT
from .diagnostics import Diagnostic, Severity
from .passes import AnalysisContext, AnalysisPass, register_pass


def instance_graph(design) -> Tuple[DiGraph, Condensation]:
    """The instance graph of ``design``'s real wires, and its condensation."""
    graph = DiGraph()
    for path in design.leaves:
        graph.add_node(path)
    for wire in design.real_wires:
        graph.add_edge(wire.src.instance.path, wire.dst.instance.path)
    return graph, graph.condensation()


def dead_instance_paths(design, instances=None) -> Tuple[List[str], List[str]]:
    """The ``connectivity.dead-instance`` findings as reusable data.

    Returns ``(isolated, unreachable)``: instances with no real wires
    at all (amid other wiring), and instances whose outputs cannot
    reach any consuming endpoint on the instance-graph condensation.
    This is the single source of truth for the dead-instance
    semantics — :class:`ConnectivityPass` renders it as diagnostics and
    the optimizer's dead-code pass
    (:func:`repro.core.opt.pipeline.eliminable_instances`) consumes it for
    elimination, so ``repro check`` findings and ``--opt 2``
    eliminations agree by construction.  ``instances`` is
    :func:`instance_graph`'s result when the caller already has it.
    """
    graph, condensed = instances or instance_graph(design)
    fed = {dst for dsts in graph.succ.values() for dst in dsts}
    isolated = [p for p in design.leaves
                if not graph.succ[p] and p not in fed]
    connected = set(design.leaves) - set(isolated)
    if not connected:
        # A one-instance design is a deliberate unit under test, not a
        # wiring accident; only flag isolation amid other wiring.
        isolated = []

    # Consuming endpoints, on the condensation: a terminal component
    # that receives external data counts as an endpoint when it is a
    # plain terminal instance (the classic sink) or a cycle with a
    # stateful member (a request/response service loop, e.g. a NIC
    # DMAing into a memory that answers back).  A terminal cycle of
    # pure flow-through instances is *not* an endpoint — data
    # circling it is never consumed.
    indeg = condensed.in_degree()
    endpoints = [
        comp for comp, members in enumerate(condensed.members)
        if not condensed.succ[comp] and indeg[comp]
        and (not condensed.cyclic(graph, comp)
             or any(_can_generate(design.leaves[p]) for p in members))]
    unreachable: List[str] = []
    if endpoints:
        alive = set(endpoints) | descendants(condensed.pred(), endpoints)
        unreachable = [p for p in sorted(connected)
                       if condensed.component[p] not in alive]
    return sorted(isolated), unreachable


def _can_generate(inst) -> bool:
    """Whether an instance may originate data from internal state.

    Conservative: True for ``DEPS = None`` (unknown), for Moore modules
    (``deps() == {}``), and for any forward driven group declared with
    no dependencies — all of which can emit without external input.
    Only pure flow-through members (every fwd group depends on some
    input) provably cannot sustain a cycle on their own.
    """
    deps = inst.deps()
    if deps is None or not isinstance(deps, dict):
        return True
    # An output port missing from the dict has empty deps (Moore) by
    # the scheduler's convention, so it too counts as state-driven.
    for decl in inst.PORTS:
        if decl.direction != INPUT:
            if not tuple(deps.get(("fwd", decl.name)) or ()):
                return True
    return False


@register_pass
class ConnectivityPass(AnalysisPass):
    """Structural wiring lint; see module docstring."""

    name = "connectivity"
    rules = {
        "connectivity.unconnected-input":
            "an input port sees only default-driven stub wires",
        "connectivity.dangling-output":
            "an output port drives only stub wires; its data is discarded",
        "connectivity.dead-instance":
            "an instance is fully disconnected or cannot reach any "
            "consuming endpoint",
        "connectivity.constant-subgraph":
            "a cycle of instances is fed by nothing but stub constants",
        "connectivity.dangling-export":
            "a hierarchical template port is never exported by build()",
    }

    def run(self, ctx: AnalysisContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        out.extend(self._port_stubs(ctx))
        out.extend(self._instance_graph(ctx))
        if ctx.spec is not None:
            out.extend(self._dangling_exports(ctx))
        return out

    # ------------------------------------------------------------------
    def _port_stubs(self, ctx: AnalysisContext) -> List[Diagnostic]:
        design = ctx.design
        stub_ids = {id(w) for w in design.stub_wires}
        out: List[Diagnostic] = []
        for (path, port), wires in sorted(design.port_wires.items()):
            if not wires or any(id(w) not in stub_ids for w in wires):
                continue
            decl = design.leaves[path].port_decl(port)
            ep = fmt_endpoint(path, port, 0 if len(wires) == 1 else None)
            if decl.direction == INPUT:
                out.append(Diagnostic(
                    "connectivity.unconnected-input", Severity.INFO,
                    f"input port {ep} has no real connection; the module "
                    f"sees only the declared defaults "
                    f"({decl.default_data.name}/{decl.default_enable.name})",
                    path=path, port=ep,
                    hint=f"connect a producer to {path}.{port} or drop the "
                         f"port from the model"))
            else:
                out.append(Diagnostic(
                    "connectivity.dangling-output", Severity.INFO,
                    f"output port {ep} has no real connection; everything "
                    f"sent there is discarded (stub ack "
                    f"{decl.default_ack.name})",
                    path=path, port=ep,
                    hint=f"connect a consumer to {path}.{port} or drop the "
                         f"port from the model"))
        return out

    # ------------------------------------------------------------------
    def _instance_graph(self, ctx: AnalysisContext) -> List[Diagnostic]:
        design = ctx.design
        graph, condensed = instances = instance_graph(design)
        isolated, unreachable = dead_instance_paths(design, instances)
        # Cross-link with the optimizer: findings the dead-code pass
        # would actually eliminate (closed dead subgraphs outside any
        # combinational cluster) get a "removable" note in their hint.
        from repro.core.opt.pipeline import eliminable_instances
        removable, _ = eliminable_instances(design, ctx.signal_graph)
        removable_note = "; removable at --opt 2"

        out: List[Diagnostic] = []
        for path in isolated:
            out.append(Diagnostic(
                "connectivity.dead-instance", Severity.WARNING,
                f"instance {path!r} has no real connections at all",
                path=path,
                hint=f"wire {path!r} into the design or remove it"
                     + (removable_note if path in removable else "")))
        for path in unreachable:
            out.append(Diagnostic(
                "connectivity.dead-instance", Severity.WARNING,
                f"instance {path!r} cannot reach any consuming "
                f"endpoint; nothing it produces is ever consumed",
                path=path,
                hint="route its outputs toward a consuming "
                     "instance or remove the dead subgraph"
                     + (removable_note if path in removable else "")))

        # Constant-only cycles: SCCs fed by nothing outside themselves
        # whose members are all flow-through (cannot generate data from
        # internal state).
        indeg = condensed.in_degree()
        for comp, scc in enumerate(condensed.members):
            if not condensed.cyclic(graph, comp) or indeg[comp]:
                continue
            if any(_can_generate(design.leaves[p]) for p in scc):
                continue
            members = sorted(scc)
            out.append(Diagnostic(
                "connectivity.constant-subgraph", Severity.WARNING,
                f"cycle {{{', '.join(members)}}} of flow-through "
                f"instances receives no real data from outside itself; "
                f"it can only circulate stub defaults",
                path=members[0],
                data={"members": members},
                hint="feed the cycle from a source or remove it"))
        return out

    # ------------------------------------------------------------------
    def _dangling_exports(self, ctx: AnalysisContext) -> List[Diagnostic]:
        """Spec-level walk: every declared hier port must be exported."""
        out: List[Diagnostic] = []
        seen: Set[Tuple[type, Tuple]] = set()

        def walk(body, prefix: str) -> None:
            for name, inst in body.instances.items():
                path = f"{prefix}/{name}" if prefix else name
                template = inst.template
                if not (isinstance(template, type)
                        and issubclass(template, HierTemplate)):
                    continue
                try:
                    params = resolve_bindings(
                        template.PARAMS, inst.bindings,
                        owner=f"{template.template_name()}@{path}")
                    hbody = HierBody(
                        template,
                        label=f"{template.template_name()}@{path}")
                    template().build(hbody, params)
                except LibertyError:
                    continue  # construction problems reported elsewhere
                exported = {key[0] for key in hbody.exports}
                missing = tuple(d.name for d in template.PORTS
                                if d.name not in exported)
                key = (template, missing)
                if missing and key not in seen:
                    seen.add(key)
                    ports = ", ".join(repr(p) for p in missing)
                    out.append(Diagnostic(
                        "connectivity.dangling-export", Severity.ERROR,
                        f"template {template.template_name()!r} (instance "
                        f"{path!r}) declares port(s) {ports} that build() "
                        f"never exports; connections to them will fail at "
                        f"elaboration",
                        path=path,
                        data={"template": template.template_name(),
                              "ports": list(missing)},
                        hint="export the port in build() or remove the "
                             "declaration"))
                walk(hbody, path)

        walk(ctx.spec, "")
        return out
