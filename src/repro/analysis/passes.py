"""The analysis pass manager.

The paper's fixed model of computation (§2.3) is what makes *static*
analysis of a specification possible at all: the constructor already
exploits it for scheduling (:mod:`repro.core.optimize`); this framework
generalizes the idea to arbitrary checking passes in the style of the
component-contract verification literature (Benveniste et al.;
Mahmood's verification framework for component-based M&S).

A pass is a subclass of :class:`AnalysisPass` registered with
:func:`register_pass`.  The :class:`PassManager` accepts either an
:class:`~repro.core.lss.LSS` specification or an already-built
:class:`~repro.core.netlist.Design`, hands every pass a shared
:class:`AnalysisContext` (lazily-built design, signal graph and
condensation, all cached), and aggregates their
:class:`~repro.analysis.diagnostics.Diagnostic` findings into a
:class:`~repro.analysis.diagnostics.Report`.

If the design cannot be constructed at all (a malformed specification),
the manager reports the construction error as a ``build.error``
diagnostic and still runs any spec-level checks, so ``repro check``
degrades gracefully instead of crashing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type, Union

from ..core.errors import LibertyError
from ..core.lss import LSS
from ..core.netlist import Design
from .diagnostics import Diagnostic, Report, Severity


class AnalysisContext:
    """Shared, lazily-computed state handed to every pass.

    Passes should reach expensive artifacts (the wired design, the
    signal-group graph, its condensation) through this context so they
    are computed at most once per run.
    """

    def __init__(self, spec: Optional[LSS] = None,
                 design: Optional[Design] = None):
        if spec is None and design is None:
            raise LibertyError("analysis needs a specification or a design")
        self.spec = spec
        self._design = design
        self._compiled = None
        self._signal_graph = None
        self._condensation = None
        self._fingerprint: Optional[str] = None

    @property
    def design_name(self) -> str:
        if self._design is not None:
            return self._design.name
        return self.spec.name if self.spec is not None else "?"

    @property
    def design(self) -> Design:
        """The wired design (built from the spec on first use)."""
        if self._design is None:
            from ..core.constructor import build_design
            self._design = build_design(self.spec)
        return self._design

    @property
    def compiled(self):
        """The design's :class:`~repro.core.ir.BoundModel`.

        Analysis consumes the same compiled artifact the execution
        backends run — one ``Design → CompiledModel`` compilation
        (cache-aware) shared by checking and simulation alike.
        """
        if self._compiled is None:
            from ..core.ir import compile_model
            self._compiled = compile_model(self.design)
        return self._compiled

    @property
    def signal_graph(self):
        """The signal-group dependency graph (see ``core.optimize``).

        Materialized from the compiled model's stored edge list when
        available (so a cache hit skips dependency expansion entirely);
        rebuilt from the design only for artifacts predating graph
        storage.
        """
        if self._signal_graph is None:
            graph = self.compiled.model.signal_graph(self.design)
            if graph is None:
                from ..core.optimize import build_signal_graph
                graph = build_signal_graph(self.design)
            self._signal_graph = graph
        return self._signal_graph

    @property
    def condensation(self):
        """The SCC condensation of :attr:`signal_graph` (a
        :class:`~repro.core.graph.Condensation`)."""
        if self._condensation is None:
            self._condensation = self.signal_graph.condensation()
        return self._condensation

    @property
    def fingerprint(self) -> str:
        """The design's canonical compile-cache fingerprint.

        See :func:`repro.core.compile_cache.design_fingerprint`; lets
        reports correlate analysis results with cached compilations.
        """
        if self._fingerprint is None:
            from ..core.compile_cache import design_fingerprint
            self._fingerprint = design_fingerprint(self.design)
        return self._fingerprint


class AnalysisPass:
    """Base class of all analysis passes.

    Subclasses set :attr:`name` (the rule-id prefix), :attr:`rules`
    (``rule id -> one-line description``, the authoritative catalog
    used by docs and ``repro check --list-rules``) and implement
    :meth:`run`.  :attr:`needs_design` lets spec-only passes run even
    when design construction failed.
    """

    #: Rule-id prefix; every emitted rule must start with ``f"{name}."``.
    name: str = "pass"
    #: ``rule id -> description`` catalog of everything the pass emits.
    rules: Dict[str, str] = {}
    #: Whether :meth:`run` requires ``ctx.design`` to exist.
    needs_design: bool = True

    def run(self, ctx: AnalysisContext) -> List[Diagnostic]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


#: Registered pass classes in registration order (= default run order).
PASS_REGISTRY: Dict[str, Type[AnalysisPass]] = {}


def register_pass(cls: Type[AnalysisPass]) -> Type[AnalysisPass]:
    """Class decorator adding a pass to the default suite."""
    if not cls.name or cls.name == AnalysisPass.name:
        raise LibertyError(f"analysis pass {cls.__name__} needs a name")
    if cls.name in PASS_REGISTRY:
        raise LibertyError(f"analysis pass {cls.name!r} registered twice")
    PASS_REGISTRY[cls.name] = cls
    return cls


def all_rules() -> Dict[str, str]:
    """The combined ``rule id -> description`` catalog of every pass."""
    catalog: Dict[str, str] = {}
    for cls in PASS_REGISTRY.values():
        catalog.update(cls.rules)
    return catalog


class PassManager:
    """Runs a suite of analysis passes and aggregates their findings.

    Parameters
    ----------
    passes:
        Pass instances or registered pass names to run, in order.
        ``None`` runs every registered pass in registration order.
    """

    def __init__(self, passes: Optional[Sequence[Union[str, AnalysisPass]]]
                 = None):
        if passes is None:
            self.passes: List[AnalysisPass] = [cls() for cls
                                               in PASS_REGISTRY.values()]
        else:
            self.passes = []
            for item in passes:
                if isinstance(item, AnalysisPass):
                    self.passes.append(item)
                elif isinstance(item, str):
                    try:
                        self.passes.append(PASS_REGISTRY[item]())
                    except KeyError:
                        raise LibertyError(
                            f"unknown analysis pass {item!r}; registered: "
                            f"{sorted(PASS_REGISTRY)}") from None
                else:
                    raise LibertyError(
                        f"{item!r} is neither a pass nor a pass name")

    def run(self, target: Union[LSS, Design]) -> Report:
        """Run every pass over ``target`` and return the report."""
        if isinstance(target, LSS):
            ctx = AnalysisContext(spec=target)
        elif isinstance(target, Design):
            ctx = AnalysisContext(design=target)
        else:
            raise LibertyError(
                f"cannot analyze {type(target).__name__}; expected an LSS "
                f"specification or a wired Design")
        report = Report(ctx.design_name)

        # Probe design construction once, up front: a malformed spec
        # becomes a diagnostic, and design-needing passes are skipped.
        design_ok = True
        try:
            ctx.design
        except LibertyError as exc:
            design_ok = False
            report.add(Diagnostic(
                "build.error", Severity.ERROR,
                f"{type(exc).__name__}: {exc}",
                hint="fix the specification; design-level passes were "
                     "skipped"))

        for pass_ in self.passes:
            if pass_.needs_design and not design_ok:
                continue
            report.passes_run.append(pass_.name)
            for diag in pass_.run(ctx):
                if not diag.rule.startswith(pass_.name + "."):
                    raise LibertyError(
                        f"pass {pass_.name!r} emitted foreign rule "
                        f"{diag.rule!r}")
                report.add(diag)
        return report


def check(target: Union[LSS, Design],
          passes: Optional[Sequence[Union[str, AnalysisPass]]] = None) \
        -> Report:
    """One-call entry point: run the (default) pass suite on ``target``."""
    return PassManager(passes).run(target)
