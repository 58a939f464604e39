"""Module templates: leaf modules and hierarchical templates (paper §2.1).

Two kinds of template exist, mirroring LSE:

* **Leaf modules** — subclasses of :class:`LeafModule` — encapsulate
  behaviour.  They declare parameters (``PARAMS``), ports (``PORTS``)
  and optionally a fine-grained combinational dependency map (``DEPS``)
  that the construction-time optimizer exploits (paper ref [22]).

* **Hierarchical templates** — subclasses of :class:`HierTemplate` —
  encapsulate *structure*: a ``build`` method instantiates and connects
  sub-templates and exports inner ports to the template's own interface.
  "LSE allows users to build new module templates based on the
  interconnection and customization of instances of existing module
  templates" (§2.1).

Both kinds are instantiated from a specification with keyword bindings
for their parameters; hierarchical ``build`` methods receive the
resolved parameter dict and may compute sub-instance structure from it
(the "powerful syntax" of §2.1 is ordinary Python here).
"""

from __future__ import annotations

from typing import Any, ClassVar, Dict, List, Optional, Tuple

from .errors import SpecificationError
from .params import Parameter, resolve_bindings
from .ports import InView, OutView, PortDecl

#: ``LeafModule.bind_port`` sets each bound view as the instance
#: attribute ``PORT_ATTR_PREFIX + port name``.
PORT_ATTR_PREFIX = "io_"

#: Signal-group key helpers for ``DEPS`` maps.  ``fwd(port)`` names the
#: forward (data+enable) signals of a port; ``ack(port)`` names the
#: backward signal.
def fwd(port: str) -> Tuple[str, str]:
    """Dependency key for the forward signals of ``port``."""
    return ("fwd", port)


def ack(port: str) -> Tuple[str, str]:
    """Dependency key for the ack signal of ``port``."""
    return ("ack", port)


class LeafModule:
    """Base class of all behavioural (leaf) module templates.

    Subclasses override the class attributes and the reactive lifecycle
    hooks:

    ``init()``
        Called once after wiring, before the first timestep.
    ``react()``
        Called (possibly several times) during each timestep's
        resolution phase.  Must be *monotone*: it may resolve output
        signals based on resolved inputs and internal state, must
        tolerate still-UNKNOWN inputs, and must never un-resolve
        anything.  Re-driving the identical value is permitted, so
        idempotent handlers are the natural style.
    ``update()``
        Called once per timestep after all signals resolve; commits
        sequential state (the clock edge).

    Class attributes
    ----------------
    PARAMS:
        Tuple of :class:`~repro.core.params.Parameter` declarations.
    PORTS:
        Tuple of :class:`~repro.core.ports.PortDecl` declarations.
    DEPS:
        ``None`` (conservative: every output signal group may depend
        combinationally on every input signal group), or a dict mapping
        driven signal-group keys — ``fwd('outport')`` / ``ack('inport')``
        — to tuples of the signal groups they read.  ``{}`` declares a
        fully registered (Moore) module, which breaks scheduling cycles.
    """

    PARAMS: ClassVar[Tuple[Parameter, ...]] = ()
    PORTS: ClassVar[Tuple[PortDecl, ...]] = ()
    DEPS: ClassVar[Optional[Dict[Tuple[str, str], Tuple[Tuple[str, str], ...]]]] = None

    def __init__(self, path: str, params: Dict[str, Any]):
        self.path = path
        self.p = params
        self._views: Dict[str, Any] = {}
        self.sim = None  # set by the engine at bind time

    def deps(self):
        """Combinational dependency map used by the static scheduler.

        Defaults to the class-level ``DEPS``; override when the map
        depends on parameter values (e.g. a flow-through queue).
        """
        return type(self).DEPS

    # ------------------------------------------------------------------
    # Template-level introspection
    # ------------------------------------------------------------------
    @classmethod
    def template_name(cls) -> str:
        return cls.__name__

    @classmethod
    def port_decl(cls, name: str) -> PortDecl:
        for decl in cls.PORTS:
            if decl.name == name:
                return decl
        raise SpecificationError(
            f"template {cls.template_name()!r} has no port {name!r}; "
            f"ports: {[d.name for d in cls.PORTS]}")

    @classmethod
    def instantiate(cls, path: str, bindings: Dict[str, Any]) -> "LeafModule":
        params = resolve_bindings(cls.PARAMS, bindings,
                                  owner=f"{cls.template_name()}:{path}")
        return cls(path, params)

    # ------------------------------------------------------------------
    # Runtime wiring
    # ------------------------------------------------------------------
    def bind_port(self, name: str, view) -> None:
        """Bind ``view`` to port ``name``: the one writer of a binding.

        Which wires a port touches is a constant of the design, so the
        view is also set as the instance attribute ``io_<name>`` —
        template bodies read ``self.io_in`` instead of resolving the
        name with :meth:`port` on every ``react``/``update``.  The
        ``io_`` prefix keeps port names (``p``, ``decl``, …) clear of
        the template API.  Whoever swaps a view
        (:class:`repro.analysis.monitor.ContractMonitor`) goes through
        here, so both spellings always name the same object.
        """
        self._views[name] = view
        setattr(self, PORT_ATTR_PREFIX + name, view)

    def port(self, name: str):
        """The bound :class:`InView`/:class:`OutView` for port ``name``
        (for computed names and for callers outside the instance)."""
        try:
            return self._views[name]
        except KeyError:
            raise SpecificationError(
                f"instance {self.path!r}: port {name!r} not bound "
                f"(known: {sorted(self._views)})") from None

    @property
    def ports(self) -> Dict[str, Any]:
        return dict(self._views)

    # ------------------------------------------------------------------
    # Lifecycle hooks (overridable)
    # ------------------------------------------------------------------
    def init(self) -> None:
        """One-time setup after wiring; default does nothing."""

    def react(self) -> None:
        """Resolution-phase handler; default does nothing."""

    def update(self) -> None:
        """Clock-edge handler; default does nothing."""

    # ------------------------------------------------------------------
    # Conveniences for module authors
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current timestep number."""
        return self.sim.now if self.sim is not None else 0

    def collect(self, name: str, n: float = 1) -> None:
        """Increment the per-instance statistic ``name`` by ``n``."""
        if self.sim is not None:
            self.sim.stats.add(self.path, name, n)

    def record(self, name: str, value: float) -> None:
        """Record a sample into the per-instance histogram ``name``."""
        if self.sim is not None:
            self.sim.stats.sample(self.path, name, value)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.path!r}>"


class _SpecPortRef:
    """Specification-time reference to ``instance.port[index]``."""

    __slots__ = ("inst", "port", "index")

    def __init__(self, inst: "_SpecInstance", port: str, index: Optional[int] = None):
        self.inst = inst
        self.port = port
        self.index = index

    def __getitem__(self, index: int) -> "_SpecPortRef":
        if self.index is not None:
            raise SpecificationError(f"port ref {self!r} already indexed")
        return _SpecPortRef(self.inst, self.port, index)

    def __repr__(self) -> str:
        idx = "" if self.index is None else f"[{self.index}]"
        return f"{self.inst.name}.{self.port}{idx}"


class _SpecInstance:
    """Specification-time handle to an instantiated template."""

    __slots__ = ("name", "template", "bindings", "owner")

    def __init__(self, name: str, template, bindings: Dict[str, Any], owner):
        self.name = name
        self.template = template
        self.bindings = bindings
        self.owner = owner

    def port(self, name: str, index: Optional[int] = None) -> _SpecPortRef:
        """Reference one of this instance's ports for connecting."""
        return _SpecPortRef(self, name, index)

    def __repr__(self) -> str:
        tname = getattr(self.template, "__name__", repr(self.template))
        return f"<instance {self.name!r} of {tname}>"


class _Body:
    """Common container for instances + connections (LSS and hier bodies)."""

    def __init__(self, label: str):
        self.label = label
        self.instances: Dict[str, _SpecInstance] = {}
        self.connections: List[Tuple[_SpecPortRef, _SpecPortRef, Any]] = []

    def instance(self, name: str, template, **bindings) -> _SpecInstance:
        """Instantiate ``template`` under ``name`` with parameter bindings."""
        if not name.isidentifier():
            raise SpecificationError(
                f"{self.label}: instance name {name!r} is not an identifier")
        if name in self.instances:
            raise SpecificationError(
                f"{self.label}: duplicate instance name {name!r}")
        if not (isinstance(template, type)
                and issubclass(template, (LeafModule, HierTemplate))):
            raise SpecificationError(
                f"{self.label}: {template!r} is not a module template")
        inst = _SpecInstance(name, template, bindings, self)
        self.instances[name] = inst
        return inst

    def connect(self, src: _SpecPortRef, dst: _SpecPortRef, control=None) -> None:
        """Connect an output port reference to an input port reference."""
        for ref in (src, dst):
            if not isinstance(ref, _SpecPortRef):
                raise SpecificationError(
                    f"{self.label}: connect endpoint {ref!r} is not a port "
                    f"reference (use instance.port('name'))")
            if ref.inst.owner is not self:
                raise SpecificationError(
                    f"{self.label}: endpoint {ref!r} belongs to a different "
                    f"specification body")
        self.connections.append((src, dst, control))


class HierTemplate:
    """Base class of hierarchical (structural) module templates.

    Subclasses declare ``PARAMS`` and ``PORTS`` like leaf modules, and
    implement :meth:`build` to populate a :class:`HierBody` with
    sub-instances, internal connections, and port exports.
    """

    PARAMS: ClassVar[Tuple[Parameter, ...]] = ()
    PORTS: ClassVar[Tuple[PortDecl, ...]] = ()

    @classmethod
    def template_name(cls) -> str:
        return cls.__name__

    @classmethod
    def port_decl(cls, name: str) -> PortDecl:
        for decl in cls.PORTS:
            if decl.name == name:
                return decl
        raise SpecificationError(
            f"template {cls.template_name()!r} has no port {name!r}")

    def build(self, body: "HierBody", p: Dict[str, Any]) -> None:
        """Populate ``body``; ``p`` is the resolved parameter dict."""
        raise NotImplementedError


class HierBody(_Body):
    """The structural body a :class:`HierTemplate.build` populates."""

    def __init__(self, template_cls, label: str):
        super().__init__(label)
        self.template_cls = template_cls
        # (outer port name, outer index or None)
        #   -> (inner instance, inner port name, inner index or None)
        self.exports: Dict[Tuple[str, Optional[int]],
                           Tuple[_SpecInstance, str, Optional[int]]] = {}

    def export(self, outer_port: str, inner: _SpecInstance, inner_port: str,
               outer_index: Optional[int] = None,
               inner_index: Optional[int] = None) -> None:
        """Bind the template's ``outer_port`` to ``inner.inner_port``.

        Every connection the enclosing specification makes to
        ``outer_port`` is rerouted to the inner port during flattening.
        The directions of the two ports must agree.

        With ``outer_index`` the binding applies to that index only —
        e.g. a router template exporting ``in[i]`` to its i-th input
        queue.  Once any indexed export exists for a port, outer
        connections to that port must use explicit indices (there is no
        well-defined automatic assignment across multiple inner
        targets).  ``inner_index`` optionally pins the index on the
        inner port; left ``None`` it is assigned automatically.
        """
        decl = self.template_cls.port_decl(outer_port)
        if inner.owner is not self:
            raise SpecificationError(
                f"{self.label}: export target {inner!r} is not a sub-instance")
        inner_decl = _decl_of(inner.template, inner_port)
        if inner_decl.direction != decl.direction:
            raise SpecificationError(
                f"{self.label}: export {outer_port!r} ({decl.direction}) to "
                f"{inner.name}.{inner_port} ({inner_decl.direction}): "
                f"directions differ")
        key = (outer_port, outer_index)
        if key in self.exports:
            raise SpecificationError(
                f"{self.label}: port {outer_port!r}"
                f"{'' if outer_index is None else f'[{outer_index}]'} "
                f"exported twice")
        if outer_index is None and any(k[0] == outer_port and k[1] is not None
                                       for k in self.exports):
            raise SpecificationError(
                f"{self.label}: port {outer_port!r} mixes indexed and "
                f"whole-port exports")
        if outer_index is not None and (outer_port, None) in self.exports:
            raise SpecificationError(
                f"{self.label}: port {outer_port!r} mixes indexed and "
                f"whole-port exports")
        self.exports[key] = (inner, inner_port, inner_index)


def _decl_of(template, port: str) -> PortDecl:
    """Port declaration lookup working for both template kinds."""
    return template.port_decl(port)
