"""Static contract conformance: ``DEPS`` declarations vs ``react`` code.

A module's ``DEPS`` map is a *contract* with the static scheduler: it
promises which input signal groups each driven group combinationally
depends on.  The scheduler trusts it blindly — an over-optimistic map
silently degrades the levelized engine to fallback iteration (or, worse,
lets a module observe UNKNOWN signals mid-resolution).  In the
assume-guarantee tradition this pass checks the promise against the
implementation: it analyzes the AST of each template's ``react`` method
(following ``self.<helper>()`` calls) to recover the port-view methods
it actually invokes, classifies them into signal-group *reads* and
*writes* using the :class:`~repro.core.ports.InView` /
:class:`~repro.core.ports.OutView` contract tables, and cross-checks
the result with the declared ``DEPS``.

Rules (anchored to one representative instance per template/DEPS
variant, with the instance count in ``data``):

``contracts.unknown-port``      (error)   DEPS names a port the template
                                          does not declare, or react
                                          touches an unbound port.
``contracts.wrong-direction``   (error)   a DEPS key/value has the wrong
                                          kind for its port's direction
                                          (e.g. ``fwd`` of an input used
                                          as a *driven* group).
``contracts.direction-misuse``  (error)   react calls an output-only
                                          method on an input view or
                                          vice versa — guaranteed
                                          ``ContractViolationError`` at
                                          runtime.
``contracts.undeclared-read``   (warning) react reads a signal group the
                                          DEPS map never declares; the
                                          scheduler may run the module
                                          before that group resolves.
``contracts.unused-dep``        (info)    a declared dependency react
                                          never reads (over-conservative
                                          schedule).
``contracts.undriven-group``    (info)    DEPS declares a driven group
                                          react never writes.

The info-level rules are suppressed when the analysis is *incomplete* —
e.g. the module resolves port names dynamically (``self.port(name)``
with a non-literal) — because absence of evidence is then meaningless.
Reads and writes that *are* detected remain sound regardless.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Dict, List, Optional, Set, Tuple

from ..core.module import PORT_ATTR_PREFIX, LeafModule
from ..core.ports import INPUT, OUTPUT
from .diagnostics import Diagnostic, Severity
from .passes import AnalysisContext, AnalysisPass, register_pass

#: A signal group key as it appears in DEPS: ("fwd"|"ack", port name).
GroupKey = Tuple[str, str]

# Port-view method classification, per port direction.  "Reads" and
# "writes" are in terms of signal groups: an input view reads the
# port's fwd group and writes its ack group; an output view writes fwd
# and reads ack.  Own-signal probes (a driver inspecting what it drove)
# and update-phase helpers are contract-neutral.
_IN_READS = {"status", "value", "enable", "known", "present", "absent",
             "indices_present", "all_known"}
_IN_WRITES = {"set_ack"}
_IN_NEUTRAL = {"ack_known", "took", "name", "width"}
_OUT_WRITES = {"send", "send_nothing", "drive_data", "drive_enable"}
_OUT_READS = {"ack", "ack_known", "accepted", "indices_accepted"}
_OUT_NEUTRAL = {"data_known", "took", "name", "width"}

#: Sentinel for a view whose port name could not be resolved statically.
_DYNAMIC = "<dynamic>"


class ReactFootprint:
    """What a template's ``react`` provably does to its port views."""

    def __init__(self) -> None:
        self.reads: Set[GroupKey] = set()
        self.writes: Set[GroupKey] = set()
        #: (port, method) pairs that would raise ContractViolationError.
        self.misuses: List[Tuple[str, str]] = []
        #: Port names react references that the template never declares.
        self.unknown_ports: Set[str] = set()
        #: False when dynamic port names / escaping views hide effects.
        self.complete: bool = True


def _method_source_ast(func) -> Optional[ast.FunctionDef]:
    try:
        source = textwrap.dedent(inspect.getsource(func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def _literal_port_arg(call: ast.Call) -> Optional[str]:
    """The literal string argument of a ``self.port(...)`` call, if any."""
    if len(call.args) == 1 and not call.keywords:
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _is_self_port_call(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "port"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self")


def _bound_port_attr(node: ast.AST) -> Optional[str]:
    """The port name of a ``self.io_<port>`` attribute read, if any
    (the spelling :meth:`LeafModule.bind_port` sets)."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith(PORT_ATTR_PREFIX)):
        return node.attr[len(PORT_ATTR_PREFIX):]
    return None


class _ReactVisitor(ast.NodeVisitor):
    """Walks one method body, tracking ``x = self.io_lit`` and
    ``x = self.port('lit')`` aliases."""

    def __init__(self, analyzer: "_TemplateAnalyzer", fp: ReactFootprint):
        self.analyzer = analyzer
        self.fp = fp
        #: local name -> port name (or _DYNAMIC)
        self.aliases: Dict[str, str] = {}

    # -- alias tracking ------------------------------------------------
    def _resolve_view(self, node: ast.AST) -> Optional[str]:
        """Port name a node evaluates to, ``_DYNAMIC``, or None."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id)
        if _is_self_port_call(node):
            name = _literal_port_arg(node)
            if name is None:
                self.fp.complete = False
                return _DYNAMIC
            return name
        return _bound_port_attr(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        target_names = [t.id for t in node.targets
                        if isinstance(t, ast.Name)]
        view = self._resolve_view(node.value)
        for name in target_names:
            if view is not None:
                self.aliases[name] = view
            else:
                self.aliases.pop(name, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            if isinstance(node.target, ast.Name):
                view = self._resolve_view(node.value)
                if view is not None:
                    self.aliases[node.target.id] = view
                else:
                    self.aliases.pop(node.target.id, None)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id == "self":
                if func.attr != "port":
                    self.analyzer.follow_helper(func.attr, self.fp)
            else:
                port = self._resolve_view(base)
                if port is not None and port != _DYNAMIC:
                    self.analyzer.record_effect(port, func.attr, self.fp)
        # A view alias passed as an argument escapes the analysis.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if (isinstance(arg, ast.Name) and arg.id in self.aliases) \
                    or _is_self_port_call(arg) \
                    or _bound_port_attr(arg) is not None:
                self.fp.complete = False
        self.generic_visit(node)


class _TemplateAnalyzer:
    """Computes (and memoizes) the react footprint of one template."""

    def __init__(self, template: type):
        self.template = template
        self.decls = {d.name: d for d in template.PORTS}
        self._visited_methods: Set[str] = set()

    def analyze(self) -> ReactFootprint:
        fp = ReactFootprint()
        self.follow_helper("react", fp)
        return fp

    def follow_helper(self, method_name: str, fp: ReactFootprint) -> None:
        if method_name in self._visited_methods:
            return
        self._visited_methods.add(method_name)
        func = getattr(self.template, method_name, None)
        if not inspect.isfunction(func):
            return
        # Framework plumbing (collect, record, port, ...) is neutral;
        # only user code defined outside LeafModule is followed.
        if func.__qualname__.startswith("LeafModule."):
            return
        node = _method_source_ast(func)
        if node is None:
            fp.complete = False
            return
        _ReactVisitor(self, fp).visit(node)

    def record_effect(self, port: str, method: str,
                      fp: ReactFootprint) -> None:
        decl = self.decls.get(port)
        if decl is None:
            fp.unknown_ports.add(port)
            return
        if decl.direction == INPUT:
            if method in _IN_READS:
                fp.reads.add(("fwd", port))
            elif method in _IN_WRITES:
                fp.writes.add(("ack", port))
            elif method in _OUT_WRITES | (_OUT_READS - _IN_NEUTRAL):
                fp.misuses.append((port, method))
            elif method not in _IN_NEUTRAL:
                fp.complete = False
        else:
            if method in _OUT_WRITES:
                fp.writes.add(("fwd", port))
            elif method in _OUT_READS:
                fp.reads.add(("ack", port))
            elif method in _IN_WRITES | (_IN_READS - _OUT_NEUTRAL):
                fp.misuses.append((port, method))
            elif method not in _OUT_NEUTRAL:
                fp.complete = False


def _fmt_key(key: GroupKey) -> str:
    kind, port = key
    return f"{kind}({port!r})"


def _deps_signature(deps) -> object:
    if deps is None:
        return None
    try:
        return tuple(sorted(
            (tuple(k), tuple(tuple(v) for v in vals))
            for k, vals in deps.items()))
    except Exception:
        return repr(deps)


def _valid_key(key) -> bool:
    return (isinstance(key, tuple) and len(key) == 2
            and key[0] in ("fwd", "ack") and isinstance(key[1], str))


@register_pass
class ContractPass(AnalysisPass):
    """Static DEPS-vs-react conformance; see module docstring."""

    name = "contracts"
    rules = {
        "contracts.unknown-port":
            "DEPS or react references a port the template does not "
            "declare",
        "contracts.wrong-direction":
            "a DEPS entry uses a group kind inconsistent with the "
            "port's direction",
        "contracts.direction-misuse":
            "react calls an output-only view method on an input port "
            "or vice versa",
        "contracts.undeclared-read":
            "react reads a signal group its DEPS map never declares",
        "contracts.unused-dep":
            "a declared dependency is never read by react",
        "contracts.undriven-group":
            "a declared driven group is never written by react",
    }

    def run(self, ctx: AnalysisContext) -> List[Diagnostic]:
        out: List[Diagnostic] = []
        # One analysis per (template, DEPS variant); instances grouped.
        variants: Dict[Tuple[type, object], List[Tuple[str, object]]] = {}
        for path in sorted(ctx.design.leaves):
            inst = ctx.design.leaves[path]
            deps = inst.deps()
            variants.setdefault(
                (type(inst), _deps_signature(deps)), []).append((path, deps))

        footprints: Dict[type, ReactFootprint] = {}
        for (template, _sig), members in sorted(
                variants.items(),
                key=lambda kv: kv[1][0][0]):
            if template not in footprints:
                footprints[template] = _TemplateAnalyzer(template).analyze()
            fp = footprints[template]
            path, deps = members[0]
            out.extend(self._check_variant(template, fp, path, deps,
                                           len(members)))
        return out

    # ------------------------------------------------------------------
    def _check_variant(self, template: type, fp: ReactFootprint,
                       path: str, deps, count: int) -> List[Diagnostic]:
        name = template.template_name()
        decls = {d.name: d for d in template.PORTS}
        extra = {"template": name, "instances": count}
        out: List[Diagnostic] = []

        def diag(rule: str, severity: Severity, message: str,
                 hint: str = "", **data) -> None:
            out.append(Diagnostic(rule, severity, message, path=path,
                                  hint=hint, data={**extra, **data}))

        for port in sorted(fp.unknown_ports):
            diag("contracts.unknown-port", Severity.ERROR,
                 f"react of template {name!r} touches port {port!r}, which "
                 f"the template does not declare",
                 hint=f"declare {port!r} in PORTS or fix the name")
        for port, method in sorted(set(fp.misuses)):
            direction = decls[port].direction
            diag("contracts.direction-misuse", Severity.ERROR,
                 f"react of template {name!r} calls {method}() on "
                 f"{direction} port {port!r}; this raises "
                 f"ContractViolationError at runtime",
                 hint="input views read data and set_ack; output views "
                      "send data and read ack", port=port, method=method)

        if deps is None or not isinstance(deps, dict):
            if deps is not None and not isinstance(deps, dict):
                diag("contracts.unknown-port", Severity.ERROR,
                     f"template {name!r} DEPS is {type(deps).__name__}, "
                     f"expected a dict or None")
            return out

        declared_reads: Set[GroupKey] = set()
        declared_writes: Set[GroupKey] = set()
        for key, values in deps.items():
            if not _valid_key(key):
                diag("contracts.unknown-port", Severity.ERROR,
                     f"template {name!r} DEPS key {key!r} is not a "
                     f"fwd(port)/ack(port) group",
                     hint="use repro.fwd('port') / repro.ack('port')")
                continue
            kind, port = key
            decl = decls.get(port)
            if decl is None:
                diag("contracts.unknown-port", Severity.ERROR,
                     f"template {name!r} DEPS names unknown port {port!r} "
                     f"in key {_fmt_key(key)}",
                     hint=f"known ports: {sorted(decls)}")
            elif (kind == "fwd") != (decl.direction == OUTPUT):
                diag("contracts.wrong-direction", Severity.ERROR,
                     f"template {name!r} DEPS key {_fmt_key(key)} is not a "
                     f"driven group: {kind} of an {decl.direction} port is "
                     f"an input to the module, not an output",
                     hint="driven groups are fwd(output) and ack(input)")
            else:
                declared_writes.add((kind, port))
            try:
                value_list = list(values)
            except TypeError:
                diag("contracts.unknown-port", Severity.ERROR,
                     f"template {name!r} DEPS value for {_fmt_key(key)} is "
                     f"not a sequence of groups")
                continue
            for dep in value_list:
                if not _valid_key(dep):
                    diag("contracts.unknown-port", Severity.ERROR,
                         f"template {name!r} DEPS dependency {dep!r} under "
                         f"{_fmt_key(key)} is not a fwd(port)/ack(port) "
                         f"group",
                         hint="use repro.fwd('port') / repro.ack('port')")
                    continue
                dkind, dport = dep
                ddecl = decls.get(dport)
                if ddecl is None:
                    diag("contracts.unknown-port", Severity.ERROR,
                         f"template {name!r} DEPS names unknown port "
                         f"{dport!r} in dependency {_fmt_key(dep)}",
                         hint=f"known ports: {sorted(decls)}")
                elif (dkind == "fwd") != (ddecl.direction == INPUT):
                    diag("contracts.wrong-direction", Severity.ERROR,
                         f"template {name!r} DEPS dependency {_fmt_key(dep)} "
                         f"under {_fmt_key(key)} is not a readable group: "
                         f"{dkind} of an {ddecl.direction} port is driven "
                         f"by the module itself",
                         hint="readable groups are fwd(input) and "
                              "ack(output)")
                else:
                    declared_reads.add((dkind, dport))

        # Detected reads are sound even when the analysis is incomplete.
        for read in sorted(fp.reads - declared_reads):
            diag("contracts.undeclared-read", Severity.WARNING,
                 f"react of template {name!r} reads {_fmt_key(read)} but "
                 f"DEPS never declares it; the scheduler may run the "
                 f"module before that group resolves",
                 hint=f"add {_fmt_key(read)} to the DEPS entries of the "
                      f"groups it influences", group=list(read))

        if fp.complete and not fp.unknown_ports:
            for dep in sorted(declared_reads - fp.reads):
                diag("contracts.unused-dep", Severity.INFO,
                     f"template {name!r} declares dependency "
                     f"{_fmt_key(dep)} that react never reads; the "
                     f"schedule is more conservative than necessary",
                     group=list(dep))
            for key in sorted(declared_writes - fp.writes):
                diag("contracts.undriven-group", Severity.INFO,
                     f"template {name!r} DEPS declares driven group "
                     f"{_fmt_key(key)} but react never writes it",
                     group=list(key))
        return out


def react_footprint(template: type) -> ReactFootprint:
    """Public helper: the static footprint of one template's react."""
    if not (isinstance(template, type)
            and issubclass(template, LeafModule)):
        raise TypeError(f"{template!r} is not a LeafModule template")
    return _TemplateAnalyzer(template).analyze()
