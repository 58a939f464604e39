"""Port declarations and the runtime port views module code uses.

A module template declares its interface as a tuple of :class:`PortDecl`
objects.  Ports have *variable width*: "each port ... may have multiple
connections so that users can easily scale the bandwidth a module
instance has" (paper §2.1).  The actual width of a port on a given
instance is determined by how many connections the specification makes
to it (plus declared minimums, padded with default-driven stub wires).

At runtime each leaf instance exposes one :class:`InView` per input port
and one :class:`OutView` per output port.  The views are the *only*
sanctioned way for module code to touch wires; they

* enforce the direction rules of the contract (you cannot ``send`` on an
  input port or ``ack`` an output port),
* route reads through any control function attached to the wire, and
* keep per-wire bookkeeping (e.g. ``took()``) used in ``update()``.
"""

from __future__ import annotations

from typing import Any, List, Optional

from .errors import ContractViolationError, WiringError
from .signals import CtrlStatus, DataStatus, SignalStore, Wire
from .typesys import ANY, WireType

INPUT = "input"
OUTPUT = "output"


class PortDecl:
    """Declaration of one port on a module template.

    Parameters
    ----------
    name:
        Port name used in ``connect`` statements.
    direction:
        :data:`INPUT` or :data:`OUTPUT`.
    wtype:
        Wire type of every connection made to the port.
    min_width, max_width:
        Bounds on the number of connections.  ``max_width=None`` means
        unbounded.  If a specification leaves indices below ``min_width``
        unconnected, the constructor pads them with default-driven stub
        wires, which is what makes *partial specification* (paper §2.2)
        work: the module still sees a fully-resolved port.
    default_data / default_value:
        Data status (and value) an unconnected *input* index sees.
    default_enable:
        Enable status an unconnected *input* index sees.
    default_ack:
        Ack status an unconnected *output* index sees.  The usual default
        of ``ASSERTED`` means "an absent consumer accepts everything",
        so dangling producers never deadlock a partial model.
    doc:
        Human-readable description.
    """

    __slots__ = ("name", "direction", "wtype", "min_width", "max_width",
                 "default_data", "default_value", "default_enable",
                 "default_ack", "doc")

    def __init__(self, name: str, direction: str, wtype: WireType = ANY, *,
                 min_width: int = 0, max_width: Optional[int] = None,
                 default_data: DataStatus = DataStatus.NOTHING,
                 default_value: Any = None,
                 default_enable: CtrlStatus = CtrlStatus.DEASSERTED,
                 default_ack: CtrlStatus = CtrlStatus.ASSERTED,
                 doc: str = ""):
        if direction not in (INPUT, OUTPUT):
            raise WiringError(f"port {name!r}: bad direction {direction!r}")
        if max_width is not None and max_width < min_width:
            raise WiringError(f"port {name!r}: max_width < min_width")
        self.name = name
        self.direction = direction
        self.wtype = wtype
        self.min_width = min_width
        self.max_width = max_width
        self.default_data = default_data
        self.default_value = default_value
        self.default_enable = default_enable
        self.default_ack = default_ack
        self.doc = doc

    def __repr__(self) -> str:
        return f"PortDecl({self.name!r}, {self.direction}, {self.wtype!r})"


def in_port(name: str, wtype: WireType = ANY, **kw) -> PortDecl:
    """Shorthand for an input :class:`PortDecl`."""
    return PortDecl(name, INPUT, wtype, **kw)


def out_port(name: str, wtype: WireType = ANY, **kw) -> PortDecl:
    """Shorthand for an output :class:`PortDecl`."""
    return PortDecl(name, OUTPUT, wtype, **kw)


_D_UNKNOWN = DataStatus.UNKNOWN
_D_NOTHING = DataStatus.NOTHING
_D_SOMETHING = DataStatus.SOMETHING
_C_UNKNOWN = CtrlStatus.UNKNOWN
_C_DEASSERTED = CtrlStatus.DEASSERTED
_C_ASSERTED = CtrlStatus.ASSERTED

#: What a zero-width view binds, so an index error stays an index error.
_NO_STORE = SignalStore()


class _ViewBase:
    """Common machinery of the two port views.

    A view binds, at wiring time, the design's
    :class:`~repro.core.signals.SignalStore` and the slot of each of
    its wires; every read and write below indexes the store's planes
    directly (``store.<plane>[slots[i]]``).  A bad index surfaces as the
    ``IndexError`` of that one lookup.
    """

    __slots__ = ("decl", "wires", "_store", "_slots")

    def __init__(self, decl: PortDecl, wires: List[Wire]):
        self.decl = decl
        self.wires = wires
        self._slots = [w.wid for w in wires]
        self._store = wires[0].store if wires else _NO_STORE

    @property
    def name(self) -> str:
        return self.decl.name

    @property
    def width(self) -> int:
        """Number of connections (including default-driven stubs)."""
        return len(self._slots)

    def __len__(self) -> int:
        return len(self._slots)

    def _bad_index(self, i: int) -> ContractViolationError:
        return ContractViolationError(
            f"port {self.decl.name!r}: index {i} out of range "
            f"(width {len(self._slots)})")

    def _wire(self, i: int) -> Wire:
        try:
            return self.wires[i]
        except IndexError:
            raise self._bad_index(i) from None


class InView(_ViewBase):
    """Runtime view of an input port.

    Reads of ``data``/``enable`` see the wire's committed (post-control)
    values; the only writable signal is ``ack``.
    """

    __slots__ = ()

    # -- reads ---------------------------------------------------------
    def status(self, i: int = 0) -> DataStatus:
        """Data status as seen by this destination."""
        try:
            return self._store.ds[self._slots[i]]
        except IndexError:
            raise self._bad_index(i) from None

    def value(self, i: int = 0) -> Any:
        """The offered datum (None unless status is SOMETHING)."""
        try:
            return self._store.dv[self._slots[i]]
        except IndexError:
            raise self._bad_index(i) from None

    def enable(self, i: int = 0) -> CtrlStatus:
        """Enable status as seen by this destination."""
        try:
            return self._store.en[self._slots[i]]
        except IndexError:
            raise self._bad_index(i) from None

    def known(self, i: int = 0) -> bool:
        """True when both forward signals have resolved."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        return (store.ds[s] is not _D_UNKNOWN
                and store.en[s] is not _C_UNKNOWN)

    def present(self, i: int = 0) -> bool:
        """True when a committed datum is being offered."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        return store.ds[s] is _D_SOMETHING and store.en[s] is _C_ASSERTED

    def absent(self, i: int = 0) -> bool:
        """True when the source has resolved to *not* offering a datum."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        ds, en = store.ds[s], store.en[s]
        if ds is _D_UNKNOWN or en is _C_UNKNOWN:
            return False
        return ds is not _D_SOMETHING or en is not _C_ASSERTED

    # -- writes --------------------------------------------------------
    def set_ack(self, i: int = 0, accept: bool = True) -> None:
        """Resolve this index's ack signal (monotone)."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        if store.rak[s] is _C_UNKNOWN and store.control[s] is None:
            # First drive of a slot without control: nothing to check.
            store.rak[s] = store.ak[s] = \
                _C_ASSERTED if accept else _C_DEASSERTED
            store.unknown -= 1
            if store.hook is not None:
                store.hook(s, True)
        else:
            store.drive_ack(s, accept)

    def ack_known(self, i: int = 0) -> bool:
        try:
            return self._store.ak[self._slots[i]] is not _C_UNKNOWN
        except IndexError:
            raise self._bad_index(i) from None

    def took(self, i: int = 0) -> bool:
        """True iff this destination consumed a datum on index ``i``.

        Destination-relative: delivered (post-control) data that this
        port's own ack accepted.  Meaningful once the timestep has
        resolved — i.e. from ``update()`` handlers.
        """
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        return (store.ds[s] is _D_SOMETHING and store.en[s] is _C_ASSERTED
                and store.rak[s] is _C_ASSERTED)

    # -- convenience over all indices ----------------------------------
    def indices_present(self):
        """Indices currently offering a committed datum."""
        return [i for i in range(len(self._slots)) if self.present(i)]

    def all_known(self) -> bool:
        return all(self.known(i) for i in range(len(self._slots)))

    # Guard against contract misuse -------------------------------------
    def send(self, *a, **kw):
        raise ContractViolationError(
            f"cannot send on input port {self.decl.name!r}")


class OutView(_ViewBase):
    """Runtime view of an output port.

    Writable signals are ``data`` and ``enable``; reads of ``ack`` see
    the wire's committed (post-control) value.
    """

    __slots__ = ()

    # -- writes --------------------------------------------------------
    def send(self, i: int = 0, value: Any = None) -> None:
        """Offer ``value`` and assert enable — the common case."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        if (store.rds[s] is _D_UNKNOWN and store.ren[s] is _C_UNKNOWN
                and store.control[s] is None):
            # First drive of a slot without control: nothing to check.
            store.rds[s] = store.ds[s] = _D_SOMETHING
            store.rdv[s] = store.dv[s] = value
            store.ren[s] = store.en[s] = _C_ASSERTED
            store.unknown -= 2
            if store.hook is not None:
                store.hook(s, False)
        else:
            store.drive_data(s, _D_SOMETHING, value)
            store.drive_enable(s, True)

    def send_nothing(self, i: int = 0) -> None:
        """Affirmatively send no datum this timestep."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        if (store.rds[s] is _D_UNKNOWN and store.ren[s] is _C_UNKNOWN
                and store.control[s] is None):
            store.rds[s] = store.ds[s] = _D_NOTHING
            store.ren[s] = store.en[s] = _C_DEASSERTED
            store.unknown -= 2
            if store.hook is not None:
                store.hook(s, False)
        else:
            store.drive_data(s, _D_NOTHING)
            store.drive_enable(s, False)

    def drive_data(self, i: int, status: DataStatus, value: Any = None) -> None:
        """Low-level data drive (for modules separating data/enable)."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        self._store.drive_data(s, status, value)

    def drive_enable(self, i: int, asserted: bool) -> None:
        """Low-level enable drive."""
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        self._store.drive_enable(s, asserted)

    # -- reads ---------------------------------------------------------
    def ack(self, i: int = 0) -> CtrlStatus:
        """Committed (post-control) ack status as seen by this source."""
        try:
            return self._store.ak[self._slots[i]]
        except IndexError:
            raise self._bad_index(i) from None

    def ack_known(self, i: int = 0) -> bool:
        try:
            return self._store.ak[self._slots[i]] is not _C_UNKNOWN
        except IndexError:
            raise self._bad_index(i) from None

    def accepted(self, i: int = 0) -> bool:
        try:
            return self._store.ak[self._slots[i]] is _C_ASSERTED
        except IndexError:
            raise self._bad_index(i) from None

    def data_known(self, i: int = 0) -> bool:
        try:
            return self._store.ds[self._slots[i]] is not _D_UNKNOWN
        except IndexError:
            raise self._bad_index(i) from None

    def took(self, i: int = 0) -> bool:
        """True iff this source's offer was accepted on index ``i``.

        Source-relative: the raw offer this port made, judged against
        the (post-control) ack it observes.
        """
        try:
            s = self._slots[i]
        except IndexError:
            raise self._bad_index(i) from None
        store = self._store
        return (store.rds[s] is _D_SOMETHING and store.ren[s] is _C_ASSERTED
                and store.ak[s] is _C_ASSERTED)

    def indices_accepted(self):
        return [i for i in range(len(self._slots)) if self.accepted(i)]

    # Guard against contract misuse -------------------------------------
    def set_ack(self, *a, **kw):
        raise ContractViolationError(
            f"cannot ack output port {self.decl.name!r}")
