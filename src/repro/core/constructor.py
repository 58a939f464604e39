"""The Liberty Simulator Constructor (Figure 1 of the paper).

Turns a specification into an executable simulator in five phases:

1. **Elaboration** — recursively instantiate templates: leaf templates
   become runtime :class:`~repro.core.module.LeafModule` objects;
   hierarchical templates have their ``build`` methods run, and their
   exports recorded.
2. **Flattening** — every connection endpoint is chased through export
   chains down to a leaf port; port indices are assigned (explicit
   indices reserve slots, the rest fill in specification order).
3. **Type inference** — endpoint types are unified per connection
   (:func:`repro.core.typesys.infer_types`).
4. **Wiring** — runtime :class:`~repro.core.signals.Wire` objects are
   created, unconnected port indices are padded with default-driven
   stub wires (this is what makes partial specifications build, §2.2),
   and port views are bound onto the leaf instances.
5. **Engine construction** — :func:`build_simulator` hands the wired
   :class:`~repro.core.netlist.Design` to the selected engine:
   ``'worklist'`` (dynamic reactive scheduler), ``'levelized'`` (static
   schedule compiled to a generated-Python stepper, ref [22]) or
   ``'batched'`` (lockstep lanes).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .control import ControlFunction
from .errors import SpecificationError, WiringError, fmt_endpoint
from .lss import LSS
from .module import HierBody, LeafModule
from .netlist import Design, FlatConnection, FlatDesign
from .params import resolve_bindings
from .ports import INPUT, OUTPUT, InView, OutView
from .signals import Endpoint, Wire
from .typesys import infer_types


def _join(prefix: str, name: str) -> str:
    return f"{prefix}/{name}" if prefix else name


class _RawConn:
    """Pre-flattening connection with possibly-hierarchical endpoints."""

    __slots__ = ("src", "dst", "control", "origin")

    def __init__(self, src, dst, control, origin: str):
        self.src = src      # (path, port, index|None)
        self.dst = dst
        self.control = control
        self.origin = origin


def elaborate(spec: LSS) -> FlatDesign:
    """Phases 1-2: elaborate templates and flatten to leaf connections."""
    flat = FlatDesign(spec.name)
    templates: Dict[str, Any] = {}
    exports: Dict[Tuple[str, str], Tuple[str, str]] = {}
    raw: List[_RawConn] = []

    def expand(prefix: str, body) -> None:
        for name, inst in body.instances.items():
            path = _join(prefix, name)
            templates[path] = inst.template
            if issubclass(inst.template, LeafModule):
                flat.leaves[path] = inst.template.instantiate(path, inst.bindings)
            else:
                params = resolve_bindings(
                    inst.template.PARAMS, inst.bindings,
                    owner=f"{inst.template.template_name()}@{path}")
                hbody = HierBody(inst.template,
                                 label=f"{inst.template.template_name()}@{path}")
                builder = inst.template()
                builder.build(hbody, params)
                expand(path, hbody)
                for (outer_port, outer_index), (inner, inner_port,
                                                inner_index) \
                        in hbody.exports.items():
                    exports[(path, outer_port, outer_index)] = (
                        _join(path, inner.name), inner_port, inner_index)
        for src_ref, dst_ref, control in body.connections:
            src = (_join(prefix, src_ref.inst.name), src_ref.port, src_ref.index)
            dst = (_join(prefix, dst_ref.inst.name), dst_ref.port, dst_ref.index)
            raw.append(_RawConn(src, dst, control, origin=body.label))

    try:
        expand("", spec)
    finally:
        # A recursive closure refers to itself through its own cell:
        # left alone it would pin ``flat.leaves`` until a gc pass.
        expand = None

    def chase(path: str, port: str, index: Optional[int], what: str,
              origin: str) -> Tuple[str, str, Optional[int]]:
        seen = set()
        # Validate the port exists at the starting level.
        tmpl = templates.get(path)
        if tmpl is None:
            raise SpecificationError(
                f"{origin}: {what} endpoint references unknown instance "
                f"{path!r}")
        tmpl.port_decl(port)  # raises if missing
        while True:
            indexed = index is not None and (path, port, index) in exports
            whole = (path, port, None) in exports
            if indexed:
                step = exports[(path, port, index)]
            elif whole:
                step = exports[(path, port, None)]
            elif any(key[0] == path and key[1] == port for key in exports):
                # Indexed exports exist but this connection used no (or an
                # unmapped) index.
                raise SpecificationError(
                    f"{origin}: {what} endpoint {path}.{port}"
                    f"{'' if index is None else f'[{index}]'} does not match "
                    f"any indexed export of that port (explicit indices are "
                    f"required once a port has per-index exports)")
            else:
                break
            key = (path, port, index)
            if key in seen:
                raise SpecificationError(
                    f"{origin}: export cycle at {path}.{port}")
            seen.add(key)
            next_path, next_port, inner_index = step
            if indexed or inner_index is not None:
                index = inner_index
            # whole-port export with no pinned inner index: the outer
            # connection's index (explicit or automatic) carries through.
            path, port = next_path, next_port
        if path not in flat.leaves:
            raise SpecificationError(
                f"{origin}: {what} endpoint {path}.{port} resolves to a "
                f"hierarchical port with no export")
        return path, port, index

    conns: List[FlatConnection] = []
    for rc in raw:
        sp, spt, si = chase(*rc.src, what="source", origin=rc.origin)
        dp, dpt, di = chase(*rc.dst, what="destination", origin=rc.origin)
        src_leaf = flat.leaves[sp]
        dst_leaf = flat.leaves[dp]
        src_decl = src_leaf.port_decl(spt)
        dst_decl = dst_leaf.port_decl(dpt)
        src_ep = fmt_endpoint(sp, spt, si)
        dst_ep = fmt_endpoint(dp, dpt, di)
        if src_decl.direction != OUTPUT:
            raise WiringError(
                f"{rc.origin}: connection {src_ep} -> {dst_ep}: source "
                f"endpoint {src_ep} is an {src_decl.direction} port "
                f"({src_decl.wtype}), not an output")
        if dst_decl.direction != INPUT:
            raise WiringError(
                f"{rc.origin}: connection {src_ep} -> {dst_ep}: destination "
                f"endpoint {dst_ep} is an {dst_decl.direction} port "
                f"({dst_decl.wtype}), not an input")
        control = rc.control
        if control is not None and not isinstance(control, ControlFunction):
            raise WiringError(
                f"{rc.origin}: control for {src_ep} -> {dst_ep} is not a "
                f"ControlFunction")
        conns.append(FlatConnection(sp, spt, si, dp, dpt, di, control,
                                    src_type=src_decl.wtype,
                                    dst_type=dst_decl.wtype))

    _assign_indices(flat, conns)
    flat.connections = conns
    return flat


def _assign_indices(flat: FlatDesign, conns: List[FlatConnection]) -> None:
    """Resolve ``None`` indices and validate explicit ones per port."""
    taken: Dict[Tuple[str, str, str], Dict[int, FlatConnection]] = {}

    def claim(key, index, conn):
        slots = taken.setdefault(key, {})
        if index in slots:
            raise WiringError(
                f"endpoint {fmt_endpoint(key[0], key[1], index)} connected "
                f"twice ({slots[index]!r} and {conn!r})")
        slots[index] = conn

    # First pass: reserve explicit indices.
    for conn in conns:
        if conn.src_index is not None:
            claim((conn.src_path, conn.src_port, "src"), conn.src_index, conn)
        if conn.dst_index is not None:
            claim((conn.dst_path, conn.dst_port, "dst"), conn.dst_index, conn)

    # Second pass: fill automatic indices in specification order.
    def next_free(key) -> int:
        slots = taken.setdefault(key, {})
        i = 0
        while i in slots:
            i += 1
        return i

    for conn in conns:
        if conn.src_index is None:
            key = (conn.src_path, conn.src_port, "src")
            conn.src_index = next_free(key)
            claim(key, conn.src_index, conn)
        if conn.dst_index is None:
            key = (conn.dst_path, conn.dst_port, "dst")
            conn.dst_index = next_free(key)
            claim(key, conn.dst_index, conn)

    # Width validation against declarations.
    for (path, port, _side), slots in taken.items():
        decl = flat.leaves[path].port_decl(port)
        width = max(slots) + 1
        if decl.max_width is not None and width > decl.max_width:
            raise WiringError(
                f"port {fmt_endpoint(path, port, max(slots))}: {width} "
                f"connections exceed declared max_width {decl.max_width}")


def build_design(spec: LSS) -> Design:
    """Phases 1-4: produce a fully wired :class:`Design` from a spec."""
    flat = elaborate(spec)
    infer_types(flat.connections)

    design = Design(spec.name)
    design.leaves = flat.leaves
    store = design.store

    # Real wires from connections.
    per_port: Dict[Tuple[str, str], Dict[int, Wire]] = {}
    for conn in flat.connections:
        src_leaf = flat.leaves[conn.src_path]
        dst_leaf = flat.leaves[conn.dst_path]
        wire = _claim_slot(design,
                           Endpoint(src_leaf, conn.src_port, conn.src_index),
                           Endpoint(dst_leaf, conn.dst_port, conn.dst_index),
                           conn.wtype, conn.control)
        per_port.setdefault((conn.src_path, conn.src_port), {})[conn.src_index] = wire
        per_port.setdefault((conn.dst_path, conn.dst_port), {})[conn.dst_index] = wire

    # Pad every leaf port to a contiguous, at-least-min_width wire list;
    # unconnected indices get constant stub wires.
    for path, leaf in design.leaves.items():
        for decl in leaf.PORTS:
            slots = per_port.get((path, decl.name), {})
            width = max(decl.min_width, (max(slots) + 1) if slots else 0)
            wires: List[Wire] = []
            for i in range(width):
                wire = slots.get(i)
                if wire is None:
                    wire = _make_stub(design, leaf, decl, i)
                wires.append(wire)
            design.port_wires[(path, decl.name)] = wires
            view = (InView if decl.direction == INPUT else OutView)(
                decl, store, [w.wid for w in wires])
            leaf.bind_port(decl.name, view)

    store.allocate()
    return design


def _claim_slot(design: Design, src: Optional[Endpoint],
                dst: Optional[Endpoint], wtype, control=None) -> Wire:
    """Append a wire to ``design``, claiming the next slot of its store.

    Only the structural tables grow here; ``store.allocate()`` sizes the
    signal planes for every claimed slot in one shot once wiring is done.
    """
    store = design.store
    wid = len(design.wires)
    if len(store.ends) != wid:
        raise WiringError(
            f"wire id {wid} is not the next slot of its store "
            f"({len(store.ends)})")
    store.ends.append((src, dst))
    store.control.append(control)
    wire = Wire(wid, src, dst, wtype)
    design.wires.append(wire)
    return wire


def _make_stub(design: Design, leaf: LeafModule, decl, index: int) -> Wire:
    """Create a constant stub wire for an unconnected port index.

    For an input port the absent *source* side (data, enable) is held at
    the declaration's defaults; the module still drives ack normally.
    For an output port the absent *destination* side (ack) is held at
    the declaration's default; the module drives data/enable normally.
    """
    endpoint = Endpoint(leaf, decl.name, index)
    set_const = design.store.set_const
    if decl.direction == INPUT:
        wire = _claim_slot(design, None, endpoint, decl.wtype)
        set_const(wire.wid, 0, decl.default_data)
        set_const(wire.wid, 1, decl.default_value)
        set_const(wire.wid, 2, decl.default_enable)
    else:
        wire = _claim_slot(design, endpoint, None, decl.wtype)
        set_const(wire.wid, 3, decl.default_ack)
    design.stub_wires.append(wire)
    return wire


def build_simulator(spec: LSS, engine: Optional[str] = None, *,
                    opt: Optional[int] = None, **engine_kw):
    """Construct an executable simulator from a specification.

    Parameters
    ----------
    spec:
        The :class:`~repro.core.lss.LSS` to build.
    engine:
        A name registered in :mod:`repro.core.backends` —
        ``'worklist'`` (dynamic reactive scheduler, the reference
        semantics), ``'levelized'`` (construction-time static schedule,
        paper ref [22], compiled to a generated Python stepper) or
        ``'batched'`` (lockstep execution of structurally identical
        designs).  ``None`` selects the
        default engine: the ``REPRO_ENGINE`` environment variable when
        set, else :data:`~repro.core.backends.DEFAULT_ENGINE`
        (``'levelized'``).
    opt:
        Optimizer level 0–2 (:mod:`repro.core.opt`): 0 skips the
        optimizer, 1 runs the observation-equivalent passes (none
        remain), 2 adds dead-instance elimination.  ``None`` defers to
        the ``REPRO_OPT`` environment variable (default 0).  Every engine accepts it; optimization
        never changes observable results, only the work per timestep.
    engine_kw:
        Forwarded to the engine constructor (e.g. ``cycle_policy``,
        ``seed``, ``keep_samples``).
    """
    from .backends import default_engine, resolve_engine
    name = engine if engine is not None else default_engine()
    cls = resolve_engine(name)
    design = build_design(spec)
    if opt is not None:
        engine_kw["opt"] = opt
    return cls(design, **engine_kw)
