"""Opt-in runtime contract monitor: handshake discipline, verified live.

The static :mod:`~repro.analysis.contracts` pass checks what ``react``
*code* can do; this monitor checks what a running module *actually
does*, per timestep, against the same contract.  It attaches to any
engine the way the profiler does — swapping each instance's pre-bound
``react`` for a wrapper (marking the resolution phase) and each port
view for a checking proxy — and is completely free when detached: the
engines test only ``sim.contract_monitor is not None``-style structure,
and detaching restores the original views and dispatch by assignment,
never changing dict shapes.  A ``batched`` batch with a monitor on
any lane runs each lane on its own static stepper until it is detached:
a vectorized instance never calls its template's ``react``.

Checked rules (pass-attributed, same scheme as the static passes):

``contract-monitor.undeclared-read``
    During ``react`` the module read a signal group its ``DEPS`` map
    never declares.  The scheduler was told the group is irrelevant, so
    what the module just observed depends on engine scheduling order.
``contract-monitor.unknown-value-read``
    During ``react`` the module read ``value()`` of an input index
    whose data signal is still UNKNOWN — the returned datum is
    garbage; the sanctioned pattern is to probe ``present()`` /
    ``known()`` first.
``contract-monitor.premature-took``
    ``took()`` was called during ``react`` while the wire's handshake
    was still unresolved.  ``took`` judges a *completed* handshake and
    is meaningful only once data/enable/ack have all resolved
    (normally from ``update()``).

``mode='raise'`` (default) raises the existing
:class:`~repro.core.errors.ContractViolationError` at the offending
call, with the rule id in the message; ``mode='record'`` accumulates
deduplicated :class:`~repro.analysis.diagnostics.Diagnostic` findings
for post-run inspection via :meth:`ContractMonitor.report`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..core.errors import (ContractViolationError, SimulationError,
                           fmt_endpoint)
from ..core.ports import InView, OutView
from .diagnostics import Diagnostic, Report, Severity

#: ``rule id -> description`` catalog (mirrors the static passes).
MONITOR_RULES = {
    "contract-monitor.undeclared-read":
        "react read a signal group its DEPS map never declares",
    "contract-monitor.unknown-value-read":
        "react read value() of an input whose data is still UNKNOWN",
    "contract-monitor.premature-took":
        "took() called during react before the handshake resolved",
}


class _CheckedViewBase:
    """Delegating proxy installed over a port view while attached."""

    __slots__ = ("_view", "_mon", "_inst")

    def __init__(self, view, mon: "ContractMonitor", inst):
        self._view = view
        self._mon = mon
        self._inst = inst

    def __getattr__(self, name):
        return getattr(self._view, name)

    def __len__(self):
        return len(self._view)

    # -- helpers -------------------------------------------------------
    def _reacting(self) -> bool:
        return self._mon._current is self._inst

    def _read(self, kind: str) -> None:
        mon = self._mon
        if mon._current is self._inst:
            mon._on_read(self._inst, kind, self._view.decl.name)

    def _check_took(self, i: int) -> None:
        mon = self._mon
        if mon._current is self._inst:
            view = self._view
            try:
                slot = view._slots[i]
            except IndexError:
                raise view._bad_index(i) from None
            missing = view._store.unresolved(slot)
            if missing:
                mon._violation(
                    "contract-monitor.premature-took", self._inst,
                    view.decl.name, i,
                    f"took() called during react while "
                    f"{'/'.join(missing)} is still UNKNOWN; "
                    f"took judges a completed handshake",
                    hint="move the took() bookkeeping to update()")


class CheckedInView(_CheckedViewBase):
    """Checking proxy over an :class:`~repro.core.ports.InView`."""

    __slots__ = ()

    def status(self, i: int = 0):
        self._read("fwd")
        return self._view.status(i)

    def value(self, i: int = 0):
        self._read("fwd")
        if self._reacting() and not self._view.known(i):
            self._mon._violation(
                "contract-monitor.unknown-value-read", self._inst,
                self._view.decl.name, i,
                "value() read during react while the input's data is "
                "still UNKNOWN; the returned datum is meaningless",
                hint="guard the read with present(i) or known(i)")
        return self._view.value(i)

    def enable(self, i: int = 0):
        self._read("fwd")
        return self._view.enable(i)

    def known(self, i: int = 0):
        self._read("fwd")
        return self._view.known(i)

    def present(self, i: int = 0):
        self._read("fwd")
        return self._view.present(i)

    def absent(self, i: int = 0):
        self._read("fwd")
        return self._view.absent(i)

    def indices_present(self):
        self._read("fwd")
        return self._view.indices_present()

    def all_known(self):
        self._read("fwd")
        return self._view.all_known()

    def took(self, i: int = 0):
        self._check_took(i)
        return self._view.took(i)


class CheckedOutView(_CheckedViewBase):
    """Checking proxy over an :class:`~repro.core.ports.OutView`."""

    __slots__ = ()

    def ack(self, i: int = 0):
        self._read("ack")
        return self._view.ack(i)

    def ack_known(self, i: int = 0):
        self._read("ack")
        return self._view.ack_known(i)

    def accepted(self, i: int = 0):
        self._read("ack")
        return self._view.accepted(i)

    def indices_accepted(self):
        self._read("ack")
        return self._view.indices_accepted()

    def took(self, i: int = 0):
        self._check_took(i)
        return self._view.took(i)


def _wrap_react(mon: "ContractMonitor", inst, react):
    def monitored_react():
        mon._current = inst
        try:
            react()
        finally:
            mon._current = None

    monitored_react._contract_original = react
    return monitored_react


class ContractMonitor:
    """Attachable runtime contract checker; see module docstring.

    Parameters
    ----------
    sim:
        Engine to attach to immediately (or ``None``; call
        :meth:`attach` later).
    mode:
        ``'raise'`` aborts the simulation with a
        :class:`~repro.core.errors.ContractViolationError` at the first
        violation; ``'record'`` collects deduplicated diagnostics.
    """

    rules = MONITOR_RULES

    def __init__(self, sim=None, *, mode: str = "raise"):
        if mode not in ("raise", "record"):
            raise SimulationError(
                f"contract monitor mode must be 'raise' or 'record', "
                f"got {mode!r}")
        self.mode = mode
        self.sim = None
        self._current = None
        #: Deduplicated findings, in first-occurrence order.
        self.violations: List[Diagnostic] = []
        self._seen: Dict[Tuple[str, str, str], Diagnostic] = {}
        #: instance id -> declared readable groups, or None (= DEPS=None,
        #: every read is sanctioned).
        self._declared: Dict[int, Optional[FrozenSet]] = {}
        if sim is not None:
            self.attach(sim)

    # ------------------------------------------------------------------
    # Attachment lifecycle (profiler idiom: swap values, never dict shape)
    # ------------------------------------------------------------------
    def attach(self, sim) -> "ContractMonitor":
        if self.sim is not None:
            raise SimulationError("contract monitor is already attached")
        if getattr(sim, "contract_monitor", None) is not None:
            raise SimulationError(
                f"simulator for design {sim.design.name!r} already has a "
                f"contract monitor attached; detach it first")
        self.sim = sim
        for inst in sim._instances:
            self._declared[id(inst)] = _declared_reads(inst.deps())
            # Swap through bind_port so the proxies are what the
            # template bodies read (``self.io_<port>``), not only what
            # ``self.port(name)`` returns.
            for name, view in inst.ports.items():
                if isinstance(view, InView):
                    inst.bind_port(name, CheckedInView(view, self, inst))
                elif isinstance(view, OutView):
                    inst.bind_port(name, CheckedOutView(view, self, inst))
            inst.react = _wrap_react(self, inst, inst.react)
        sim.contract_monitor = self
        sim._instrumentation_changed()
        return self

    def detach(self) -> "ContractMonitor":
        sim = self.sim
        if sim is None:
            return self
        for inst in sim._instances:
            wrapped = inst.__dict__.get("react")
            original = getattr(wrapped, "_contract_original", None)
            if original is not None:
                inst.react = original
            for name, view in inst.ports.items():
                if isinstance(view, _CheckedViewBase):
                    inst.bind_port(name, view._view)
        sim.contract_monitor = None
        sim._instrumentation_changed()
        self.sim = None
        self._current = None
        return self

    def __enter__(self) -> "ContractMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Checks (called from the proxies)
    # ------------------------------------------------------------------
    def _on_read(self, inst, kind: str, port: str) -> None:
        declared = self._declared.get(id(inst))
        if declared is None:  # DEPS=None: conservative, everything allowed
            return
        if (kind, port) not in declared:
            self._violation(
                "contract-monitor.undeclared-read", inst, port, None,
                f"react read the {kind} group of port {port!r}, which the "
                f"DEPS map never declares; the scheduler may not have "
                f"resolved it yet",
                hint=f"declare ('{kind}', '{port}') in the DEPS entries "
                     f"of the groups it influences")

    def _violation(self, rule: str, inst, port: str, index: Optional[int],
                   message: str, hint: str = "") -> None:
        endpoint = fmt_endpoint(inst.path, port, index)
        now = self.sim.now if self.sim is not None else -1
        diag = Diagnostic(
            rule, Severity.ERROR,
            f"timestep {now}: {endpoint}: {message}",
            path=inst.path, port=endpoint, hint=hint,
            data={"template": type(inst).template_name(),
                  "timestep": now, "count": 1})
        key = (rule, inst.path, port)
        known = self._seen.get(key)
        if known is not None:
            known.data["count"] += 1
            return
        self._seen[key] = diag
        self.violations.append(diag)
        if self.mode == "raise":
            raise ContractViolationError(f"[{rule}] {diag.message}")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def report(self) -> Report:
        """The collected findings as an analysis :class:`Report`."""
        name = self.sim.design.name if self.sim is not None else ""
        report = Report(name, self.violations)
        report.passes_run.append("contract-monitor")
        return report

    def __repr__(self) -> str:
        state = "attached" if self.sim is not None else "detached"
        return (f"<ContractMonitor {state} mode={self.mode!r}: "
                f"{len(self.violations)} finding(s)>")


def _declared_reads(deps) -> Optional[FrozenSet]:
    """The readable groups a DEPS map sanctions (None = everything)."""
    if deps is None:
        return None
    groups = set()
    if isinstance(deps, dict):
        for values in deps.values():
            try:
                for dep in values:
                    if (isinstance(dep, tuple) and len(dep) == 2
                            and dep[0] in ("fwd", "ack")):
                        groups.add((dep[0], dep[1]))
            except TypeError:
                continue
    return frozenset(groups)
