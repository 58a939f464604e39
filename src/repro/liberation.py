"""Liberation: encapsulating legacy simulators as LSE modules (§1).

"The 'Liberation' of existing popular simulation systems, through
encapsulation into LSE modules or through equivalent configuration,
will allow a smooth transition for interested researchers."

A legacy monolithic simulator advances its own state once per call and
exposes inputs/outputs through host-language values rather than ports.
:class:`LiberatedModule` wraps such a simulator behind the standard
contract so it composes with every library component:

* the wrapped object is advanced exactly once per timestep (during
  ``update``, i.e. at the clock edge, keeping the reactive phase pure);
* offered input data is handed to the adapter's ``accept`` hook, which
  decides admission (backpressure);
* the adapter's ``emit`` hook supplies at most one output datum per
  cycle, delivered under the usual handshake.

The adapter protocol (see :class:`LegacyAdapter`) is three small
methods over the legacy object — typically a dozen lines, which is the
paper's migration pitch.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .core import LeafModule, Parameter, PortDecl, INPUT, OUTPUT


class LegacyAdapter:
    """Protocol between a legacy simulator object and the wrapper.

    Subclass (or duck-type) with:

    ``step(legacy, now)``
        Advance the legacy simulator by one of its own time units.
    ``accept(legacy, value) -> bool``
        Offer one datum arriving on the LSE input port; return True to
        admit it (False exerts backpressure).
    ``emit(legacy) -> value | None``
        A datum the legacy simulator wants to send this cycle, or None.
        Called after ``step``; a refused datum is re-offered next cycle
        unless ``drop_refused``.
    """

    def step(self, legacy: Any, now: int) -> None:
        raise NotImplementedError

    def accept(self, legacy: Any, value: Any) -> bool:
        return False

    def emit(self, legacy: Any) -> Optional[Any]:
        return None


class FunctionAdapter(LegacyAdapter):
    """Build an adapter from three callables (the common quick path)."""

    def __init__(self,
                 step: Callable[[Any, int], None],
                 accept: Optional[Callable[[Any, Any], bool]] = None,
                 emit: Optional[Callable[[Any], Optional[Any]]] = None):
        self._step = step
        self._accept = accept
        self._emit = emit

    def step(self, legacy: Any, now: int) -> None:
        self._step(legacy, now)

    def accept(self, legacy: Any, value: Any) -> bool:
        return self._accept(legacy, value) if self._accept else False

    def emit(self, legacy: Any) -> Optional[Any]:
        return self._emit(legacy) if self._emit else None


class LiberatedModule(LeafModule):
    """A legacy simulator wrapped behind the LSE contract.

    Parameters
    ----------
    legacy:
        The legacy simulator object (opaque to the framework).
    adapter:
        A :class:`LegacyAdapter` bridging it to ports.
    drop_refused:
        If True, an emitted datum the downstream refuses is discarded
        instead of retried (for legacy models with no flow control).

    Ports: ``in`` (width 1) and ``out`` (width 1); either may be left
    unconnected (defaults apply — a liberated traffic generator only
    uses ``out``, a liberated checker only ``in``).

    Statistics: ``legacy_steps``, ``admitted``, ``emitted``,
    ``dropped``.
    """

    PARAMS = (
        Parameter("legacy", None),
        Parameter("adapter", None),
        Parameter("drop_refused", False),
    )
    PORTS = (
        PortDecl("in", INPUT, min_width=1, max_width=1),
        PortDecl("out", OUTPUT, min_width=1, max_width=1),
    )
    DEPS = {}  # the legacy state advances at the clock edge: Moore

    def init(self) -> None:
        self._pending_out: Optional[Any] = None
        self._accept_decision: Optional[bool] = None

    @property
    def legacy(self) -> Any:
        """The wrapped simulator object (for inspection)."""
        return self.p["legacy"]

    def react(self) -> None:
        inp = self.io_in
        out = self.io_out
        adapter: LegacyAdapter = self.p["adapter"]
        if self._pending_out is not None:
            out.send(0, self._pending_out)
        else:
            out.send_nothing(0)
        if not inp.known(0):
            return
        if not inp.present(0):
            inp.set_ack(0, False)
            return
        # Ask the legacy code once per cycle whether it admits the datum.
        if self._accept_decision is None:
            self._accept_decision = bool(
                adapter.accept(self.legacy, inp.value(0)))
        inp.set_ack(0, self._accept_decision)

    def update(self) -> None:
        inp = self.io_in
        out = self.io_out
        adapter: LegacyAdapter = self.p["adapter"]
        if inp.took(0):
            self.collect("admitted")
        if self._pending_out is not None:
            if out.took(0):
                self.collect("emitted")
                self._pending_out = None
            elif self.p["drop_refused"]:
                self.collect("dropped")
                self._pending_out = None
        adapter.step(self.legacy, self.now)
        self.collect("legacy_steps")
        if self._pending_out is None:
            self._pending_out = adapter.emit(self.legacy)
        self._accept_decision = None
