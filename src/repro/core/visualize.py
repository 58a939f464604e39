"""System visualization: DOT export and ASCII structure reports.

The paper positions LSE as "an effective educational tool when
integrated with an interactive system visualizer" (§1).  This module
provides the non-interactive core of such a visualizer: Graphviz DOT
export of specifications and flattened designs, and textual structure
and activity reports.
"""

from __future__ import annotations


from .lss import LSS
from .module import LeafModule
from .netlist import Design


def _dot_escape(text: str) -> str:
    return text.replace('"', '\\"')


def spec_to_dot(spec: LSS) -> str:
    """Render an un-elaborated specification (one node per instance)."""
    lines = [f'digraph "{_dot_escape(spec.name)}" {{',
             "  rankdir=LR;",
             "  node [shape=box, fontname=monospace];"]
    for name, inst in spec.instances.items():
        tname = inst.template.template_name()
        lines.append(f'  "{_dot_escape(name)}" '
                     f'[label="{_dot_escape(name)}\\n:{_dot_escape(tname)}"];')
    for src, dst, control in spec.connections:
        attrs = ""
        if control is not None:
            attrs = f' [label="{_dot_escape(getattr(control, "name", "ctl"))}"]'
        lines.append(f'  "{_dot_escape(src.inst.name)}" -> '
                     f'"{_dot_escape(dst.inst.name)}"{attrs};')
    lines.append("}")
    return "\n".join(lines)


def design_to_dot(design: Design, show_stubs: bool = False) -> str:
    """Render a flattened design (one node per leaf, one edge per wire)."""
    lines = [f'digraph "{_dot_escape(design.name)}" {{',
             "  rankdir=LR;",
             "  node [shape=box, fontname=monospace];"]
    for path, leaf in design.leaves.items():
        tname = type(leaf).__name__
        lines.append(f'  "{_dot_escape(path)}" '
                     f'[label="{_dot_escape(path)}\\n:{_dot_escape(tname)}"];')
    for wire in design.wires:
        if wire.src is None or wire.dst is None:
            if not show_stubs:
                continue
            src = wire.src.instance.path if wire.src else "const"
            dst = wire.dst.instance.path if wire.dst else "open"
            lines.append(f'  "{_dot_escape(src)}" -> "{_dot_escape(dst)}" '
                         f'[style=dotted];')
            continue
        label = f"{wire.src.port}->{wire.dst.port}"
        lines.append(f'  "{_dot_escape(wire.src.instance.path)}" -> '
                     f'"{_dot_escape(wire.dst.instance.path)}" '
                     f'[label="{_dot_escape(label)}"];')
    lines.append("}")
    return "\n".join(lines)


def hierarchy_report(spec: LSS) -> str:
    """ASCII tree of the instance hierarchy before flattening."""
    lines = [f"{spec.name}/"]

    def walk(template, prefix: str) -> None:
        if issubclass(template, LeafModule):
            return
        from .module import HierBody
        from .params import resolve_bindings
        # Elaborate with defaults only, for display purposes.
        try:
            params = resolve_bindings(template.PARAMS, {}, owner="viz")
        except Exception:
            lines.append(prefix + "  (requires parameters; body not shown)")
            return
        body = HierBody(template, label="viz")
        template().build(body, params)
        for name, inst in body.instances.items():
            tname = inst.template.template_name()
            lines.append(f"{prefix}  {name}: {tname}")
            walk(inst.template, prefix + "  ")

    for name, inst in spec.instances.items():
        lines.append(f"  {name}: {inst.template.template_name()}")
        walk(inst.template, "  ")
    return "\n".join(lines)


def activity_report(sim, top: int = 20) -> str:
    """Wires ranked by transfer count after a run (hot-path view)."""
    transfers = sim.design.store.transfers
    ranked = sorted((w for w in sim.design.wires
                     if w.src is not None and w.dst is not None),
                    key=lambda w: -transfers[w.wid])[:top]
    lines = [f"activity after {sim.now} cycles "
             f"({sim.transfers_total} transfers total):"]
    for wire in ranked:
        lines.append(f"  {transfers[wire.wid]:8d}  "
                     f"{wire.src.instance.path}.{wire.src.port} -> "
                     f"{wire.dst.instance.path}.{wire.dst.port}")
    return "\n".join(lines)
