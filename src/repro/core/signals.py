"""The three-signal component communication contract (paper §2.1).

Every LSE connection is a :class:`Wire` carrying three signals:

``data``
    Flows forward (source to destination).  Its per-timestep status is
    one of ``UNKNOWN``, ``NOTHING`` (the source affirmatively sends no
    datum this cycle) or ``SOMETHING`` (a value is offered, stored in
    ``data_value``).

``enable``
    Flows forward.  The source asserts it to commit the transmission.
    Most modules drive ``data`` and ``enable`` together through the
    convenience helpers on the port views, but they are independent
    signals so control can be layered on separately, exactly as in LSE.

``ack``
    Flows backward (destination to source).  The destination asserts it
    to accept the datum.

Within a timestep each signal moves monotonically from ``UNKNOWN`` to a
known value exactly once.  Rewriting the identical value is a no-op so
that reactive handlers may be written idempotently; writing a different
value raises :class:`~repro.core.errors.MonotonicityError`.

Control functions (paper §2.1's control overrides) transform signals
**at write time**: the source's raw forward drive passes through the
control's forward transform before it is committed to the wire (both
forward signals commit together, so the transform sees a consistent
pair), and the destination's raw ack passes through the backward
transform.  The wire thus holds a single consistent post-control
reality; the *raw* drives are retained so each endpoint's ``took()``
is judged against what that endpoint itself did:

* **source-side transfer** (:meth:`Wire.took_src`): the source offered
  a committed datum and the (transformed) ack it observes is asserted
  — "my datum was taken, I may advance";
* **destination-side transfer** (:meth:`Wire.took_dst`): the
  (transformed) forward signals deliver a datum and the destination's
  own raw ack accepted it — "I consumed a datum".

Without a control function the two coincide with the classic rule
``data=SOMETHING ∧ enable=ASSERTED ∧ ack=ASSERTED``.  With one they can
deliberately diverge — e.g. ``squash_when`` makes the source advance
while the destination sees nothing (a drop), and ``never_ack`` stalls
the source while hiding the consumer's acceptance (so nothing is
consumed either).
"""

from __future__ import annotations

import copy
import enum
import operator
import weakref
from typing import Any, Callable, Dict, Iterable, List, Optional

from .errors import MonotonicityError, WiringError


class DataStatus(enum.IntEnum):
    """Status of the forward ``data`` signal within one timestep."""

    UNKNOWN = 0
    NOTHING = 1
    SOMETHING = 2


class CtrlStatus(enum.IntEnum):
    """Status of the ``enable`` and ``ack`` signals within one timestep."""

    UNKNOWN = 0
    DEASSERTED = 1
    ASSERTED = 2


#: Signal slot identifiers (used in diagnostics and the dependency graph).
SIG_DATA = "data"
SIG_ENABLE = "enable"
SIG_ACK = "ack"
ALL_SIGNALS = (SIG_DATA, SIG_ENABLE, SIG_ACK)


def values_equal(a: Any, b: Any) -> bool:
    """Identity-first, exception-safe payload equality for re-drives.

    Used to decide whether a second ``drive_data`` of an already-driven
    wire is an idempotent repeat (allowed) or a conflicting value (a
    monotonicity violation).  Plain ``==`` is wrong for two payload
    classes modules actually send:

    * **array-likes** (numpy arrays): ``a == b`` returns an elementwise
      array whose truth value raises ``ValueError``;
    * **NaN floats**: ``nan == nan`` is ``False``, so an idempotent
      handler re-offering the same not-a-number was misreported as a
      conflict.

    The helper therefore checks identity first, falls back to ``==``,
    resolves ambiguous (array) comparisons with ``.all()``, treats two
    self-unequal values (NaNs) as equal, and maps any comparison
    exception to "not equal" rather than propagating it.
    """
    if a is b:
        return True
    try:
        eq = a == b
    except Exception:
        return False
    if eq is True:
        return True
    if eq is False:
        try:
            return bool(a != a) and bool(b != b)  # NaN re-driven as NaN
        except Exception:
            return False
    try:
        return bool(eq)
    except Exception:
        pass
    try:
        # Broadcasting can silently compare mismatched shapes (an empty
        # array against anything yields an empty, vacuously-true
        # elementwise result); require equal shapes when both declare one.
        shape_a = getattr(a, "shape", None)
        shape_b = getattr(b, "shape", None)
        if shape_a is not None and shape_b is not None and shape_a != shape_b:
            return False
        return bool(eq.all())  # elementwise array comparison
    except Exception:
        return False


class Endpoint:
    """One end of a wire: a (leaf instance, port name, port index) triple.

    The instance is held *weakly*: instances own their port views, the
    views own their wires, and a strong reference back from each wire's
    endpoints would close a cycle through every leaf of a design — the
    reason a finished simulator used to be cyclic garbage.  The design
    (``Design.leaves``) is what keeps instances alive.
    """

    __slots__ = ("_instance", "path", "port", "index")

    def __init__(self, instance, port: str, index: int):
        self._instance = weakref.ref(instance)
        #: The instance's path (fixed at instantiation), readable
        #: without dereferencing the instance.
        self.path = instance.path
        self.port = port
        self.index = index

    @property
    def instance(self):
        return self._instance()

    def __deepcopy__(self, memo):
        # weakref.ref copies atomically (it would keep pointing at the
        # original's instance); follow the memo to the copied instance,
        # which may still be under construction (hence no re-read of
        # its path).
        dup = Endpoint.__new__(Endpoint)
        dup._instance = weakref.ref(copy.deepcopy(self._instance(), memo))
        dup.path, dup.port, dup.index = self.path, self.port, self.index
        return dup

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.path}.{self.port}[{self.index}]"


_D_UNKNOWN = DataStatus.UNKNOWN
_D_NOTHING = DataStatus.NOTHING
_D_SOMETHING = DataStatus.SOMETHING
_C_UNKNOWN = CtrlStatus.UNKNOWN
_C_DEASSERTED = CtrlStatus.DEASSERTED
_C_ASSERTED = CtrlStatus.ASSERTED

#: ``consts`` row of a slot without stub constants.
_NO_CONSTS = (None, None, None, None)


class SignalStore:
    """The signal state of every wire of one design, in slot-indexed planes.

    A slot is a wire id: plane ``p`` holds wire ``w``'s signal at
    ``p[w.wid]``.  Eight planes carry the per-timestep signals — the
    committed (post-control) ``ds``/``dv``/``en``/``ak`` and the
    endpoints' raw (pre-control) drives ``rds``/``rdv``/``ren``/``rak``
    — and hold the :class:`DataStatus`/:class:`CtrlStatus` members
    themselves, so every ``is`` comparison in module and engine code
    reads them unconverted.  Beside them sit the per-slot ``control``
    table, the ``transfers`` counters and ``watched`` probe marks, and
    the four reset templates ``t_ds``/``t_dv``/``t_en``/``t_ak`` with
    the stub constants (``consts``) baked in: :meth:`reset` starts a
    timestep with eight slice writes.

    ``unknown`` counts the signals still UNKNOWN in the current
    timestep; every resolution decrements it, which is all a statically
    scheduled engine needs.  The worklist engine additionally installs
    ``hook(slot, is_ack)`` to reschedule the instance reading the signal.

    The monotone drives (:meth:`drive_data`, :meth:`drive_enable`,
    :meth:`drive_ack`) are the one place the contract is checked; the
    port views call them whenever their inlined "first drive of a slot
    without control" shortcut does not apply.
    """

    __slots__ = ("ds", "dv", "en", "ak", "rds", "rdv", "ren", "rak",
                 "control", "ends", "transfers", "watched", "consts",
                 "t_ds", "t_dv", "t_en", "t_ak", "unknown", "hook",
                 "__weakref__")

    def __init__(self):
        self.ds: list = []
        self.dv: list = []
        self.en: list = []
        self.ak: list = []
        self.rds: list = []
        self.rdv: list = []
        self.ren: list = []
        self.rak: list = []
        self.control: list = []
        #: ``(src, dst)`` endpoints per slot, for diagnostics only.
        self.ends: list = []
        self.transfers: List[int] = []
        self.watched: List[bool] = []
        #: slot -> ``[data, value, enable, ack]`` stub constants.
        self.consts: Dict[int, list] = {}
        self.t_ds: list = []
        self.t_dv: list = []
        self.t_en: list = []
        self.t_ak: list = []
        self.unknown = 0
        self.hook: Optional[Callable[[int, bool], None]] = None

    def __len__(self) -> int:
        return len(self.ends)

    def allocate(self) -> None:
        """Extend every plane to the claimed slots (all-UNKNOWN but for
        stub constants) — once, when wiring is done."""
        start = len(self.ds)
        extra = len(self.ends) - start
        for plane in (self.ds, self.rds, self.t_ds):
            plane.extend([_D_UNKNOWN] * extra)
        for plane in (self.en, self.ak, self.ren, self.rak,
                      self.t_en, self.t_ak):
            plane.extend([_C_UNKNOWN] * extra)
        for plane in (self.dv, self.rdv, self.t_dv):
            plane.extend([None] * extra)
        self.transfers.extend([0] * extra)
        self.watched.extend([False] * extra)
        self.unpark(slot for slot in self.consts if slot >= start)

    def describe(self, slot: int) -> str:
        src, dst = self.ends[slot]
        return f"Wire#{slot}({src!r}->{dst!r})"

    # ------------------------------------------------------------------
    # Reset templates
    # ------------------------------------------------------------------
    def set_const(self, slot: int, field: int, value: Any) -> None:
        """Set one stub constant (``field`` indexes a ``consts`` row)."""
        row = self.consts.get(slot)
        if row is None:
            row = self.consts[slot] = [None, None, None, None]
        row[field] = value
        if slot < len(self.t_ds):
            self.unpark((slot,))

    def park(self, slots: Iterable[int]) -> None:
        """Make :meth:`reset` hold ``slots`` resolved and non-transferring.

        The vectorized backend resolves these slots in its own arrays;
        parked, they never count as unresolved in a relaxation scan.
        """
        t_ds, t_dv, t_en, t_ak = self.t_ds, self.t_dv, self.t_en, self.t_ak
        for slot in slots:
            t_ds[slot] = _D_NOTHING
            t_dv[slot] = None
            t_en[slot] = t_ak[slot] = _C_DEASSERTED

    def unpark(self, slots: Iterable[int]) -> None:
        """Rebuild the templates of ``slots`` from their stub constants."""
        consts = self.consts
        for slot in slots:
            data, value, enable, ack = consts.get(slot, _NO_CONSTS)
            self.t_ds[slot] = _D_UNKNOWN if data is None else data
            self.t_dv[slot] = None if data is None else value
            self.t_en[slot] = _C_UNKNOWN if enable is None else enable
            self.t_ak[slot] = _C_UNKNOWN if ack is None else ack

    def begin_unknown(self, slots: Optional[Iterable[int]] = None) -> int:
        """Signals a timestep starts with UNKNOWN, over ``slots`` (default:
        every slot): three per slot less its stub constants.  Structural
        — parking does not change it."""
        consts = self.consts
        if slots is None:
            total, slots = 3 * len(self), consts
        else:
            slots = list(slots)
            total = 3 * len(slots)
        for slot in slots:
            data, _, enable, ack = consts.get(slot, _NO_CONSTS)
            total -= ((data is not None) + (enable is not None)
                      + (ack is not None))
        return total

    def transfer_slots(self) -> List[int]:
        """Slots that can ever observe a destination-side transfer.

        A stub whose absent side is held at a non-committing constant
        (data NOTHING, enable or ack DEASSERTED) can never satisfy
        :meth:`took_dst`, so the end-of-step scan skips it outright.
        """
        ends = self.ends
        never = set()
        for slot, (data, _, enable, ack) in self.consts.items():
            src, dst = ends[slot]
            if (src is None and (data is not _D_SOMETHING
                                 or enable is not _C_ASSERTED)) \
                    or (dst is None and ack is not _C_ASSERTED):
                never.add(slot)
        return [slot for slot in range(len(ends)) if slot not in never]

    # ------------------------------------------------------------------
    # Per-timestep lifecycle
    # ------------------------------------------------------------------
    def reset(self, unknown: int) -> None:
        """Start a timestep: every plane back to its template."""
        self.ds[:] = self.rds[:] = self.t_ds
        self.dv[:] = self.rdv[:] = self.t_dv
        self.en[:] = self.ren[:] = self.t_en
        self.ak[:] = self.rak[:] = self.t_ak
        self.unknown = unknown

    def reset_slot(self, slot: int) -> int:
        """:meth:`reset` for one slot; returns its UNKNOWN signals (0-3)."""
        ds = self.ds[slot] = self.rds[slot] = self.t_ds[slot]
        self.dv[slot] = self.rdv[slot] = self.t_dv[slot]
        en = self.en[slot] = self.ren[slot] = self.t_en[slot]
        ak = self.ak[slot] = self.rak[slot] = self.t_ak[slot]
        return (ds is _D_UNKNOWN) + (en is _C_UNKNOWN) + (ak is _C_UNKNOWN)

    def first_unresolved(self, slot: int) -> Optional[str]:
        """The first still-UNKNOWN committed signal, or ``None`` — in the
        data → enable → ack order the relax policy forces in."""
        if self.ds[slot] is _D_UNKNOWN:
            return SIG_DATA
        if self.en[slot] is _C_UNKNOWN:
            return SIG_ENABLE
        if self.ak[slot] is _C_UNKNOWN:
            return SIG_ACK
        return None

    def unresolved(self, slot: int) -> list:
        """Names of committed signals still UNKNOWN (diagnostics)."""
        out = []
        if self.ds[slot] is _D_UNKNOWN:
            out.append(SIG_DATA)
        if self.en[slot] is _C_UNKNOWN:
            out.append(SIG_ENABLE)
        if self.ak[slot] is _C_UNKNOWN:
            out.append(SIG_ACK)
        return out

    # ------------------------------------------------------------------
    # Monotone writes
    # ------------------------------------------------------------------
    def _resolved(self, slot: int, is_ack: bool) -> None:
        self.unknown -= 1
        if self.hook is not None:
            self.hook(slot, is_ack)

    def _forward(self, slot: int, control) -> None:
        """With a control function, commit once both raw signals exist."""
        raw_ds, raw_en = self.rds[slot], self.ren[slot]
        if raw_ds is _D_UNKNOWN or raw_en is _C_UNKNOWN:
            return
        ds, dv, en = control.transform_forward(raw_ds, self.rdv[slot], raw_en)
        if self.ds[slot] is _D_UNKNOWN:
            self.ds[slot] = ds
            self.dv[slot] = dv if ds is _D_SOMETHING else None
            self._resolved(slot, False)
        if self.en[slot] is _C_UNKNOWN:
            self.en[slot] = en
            self._resolved(slot, False)

    def drive_data(self, slot: int, status: DataStatus,
                   value: Any = None) -> None:
        if status is _D_UNKNOWN:
            raise MonotonicityError(
                f"wire {self.describe(slot)}: cannot drive data to UNKNOWN")
        cur = self.rds[slot]
        if cur is not _D_UNKNOWN:
            if cur is status and (status is not _D_SOMETHING
                                  or values_equal(self.rdv[slot], value)):
                return  # idempotent re-drive
            raise MonotonicityError(
                f"wire {self.describe(slot)}: data already {cur.name}"
                f"({self.rdv[slot]!r}), re-driven as "
                f"{status.name}({value!r})")
        if status is not _D_SOMETHING:
            value = None
        self.rds[slot] = status
        self.rdv[slot] = value
        control = self.control[slot]
        if control is None:
            self.ds[slot] = status
            self.dv[slot] = value
            self._resolved(slot, False)
        else:
            self._forward(slot, control)

    def drive_enable(self, slot: int, asserted: bool) -> None:
        want = _C_ASSERTED if asserted else _C_DEASSERTED
        cur = self.ren[slot]
        if cur is not _C_UNKNOWN:
            if cur is want:
                return
            raise MonotonicityError(
                f"wire {self.describe(slot)}: enable already {cur.name}, "
                f"re-driven {want.name}")
        self.ren[slot] = want
        control = self.control[slot]
        if control is None:
            self.en[slot] = want
            self._resolved(slot, False)
        else:
            self._forward(slot, control)

    def drive_ack(self, slot: int, asserted: bool) -> None:
        want = _C_ASSERTED if asserted else _C_DEASSERTED
        cur = self.rak[slot]
        if cur is not _C_UNKNOWN:
            if cur is want:
                return
            raise MonotonicityError(
                f"wire {self.describe(slot)}: ack already {cur.name}, "
                f"re-driven {want.name}")
        self.rak[slot] = want
        control = self.control[slot]
        self.ak[slot] = want if control is None \
            else control.transform_backward(want)
        self._resolved(slot, True)

    def force_default(self, slot: int, signal: str) -> None:
        """Resolve one UNKNOWN committed signal to its pessimistic default.

        Used by the ``'relax'`` cycle policy: ``data`` becomes NOTHING,
        ``enable`` and ``ack`` become DEASSERTED.  Commits directly
        (bypassing any control function) — forced signals can never
        produce a transfer, so relaxation stays conservative.
        """
        if signal == SIG_DATA and self.ds[slot] is _D_UNKNOWN:
            if self.rds[slot] is _D_UNKNOWN:
                self.rds[slot] = _D_NOTHING
            self.ds[slot] = _D_NOTHING
            self.dv[slot] = None
            self._resolved(slot, False)
        elif signal == SIG_ENABLE and self.en[slot] is _C_UNKNOWN:
            if self.ren[slot] is _C_UNKNOWN:
                self.ren[slot] = _C_DEASSERTED
            self.en[slot] = _C_DEASSERTED
            self._resolved(slot, False)
        elif signal == SIG_ACK and self.ak[slot] is _C_UNKNOWN:
            if self.rak[slot] is _C_UNKNOWN:
                self.rak[slot] = _C_DEASSERTED
            self.ak[slot] = _C_DEASSERTED
            self._resolved(slot, True)

    # ------------------------------------------------------------------
    # Transfer predicates
    # ------------------------------------------------------------------
    def took_src(self, slot: int) -> bool:
        """Source-relative transfer: my offer was accepted, I advance."""
        return (self.rds[slot] is _D_SOMETHING
                and self.ren[slot] is _C_ASSERTED
                and self.ak[slot] is _C_ASSERTED)

    def took_dst(self, slot: int) -> bool:
        """Destination-relative transfer: a datum I accepted arrived."""
        return (self.ds[slot] is _D_SOMETHING
                and self.en[slot] is _C_ASSERTED
                and self.rak[slot] is _C_ASSERTED)


def _plane(name: str, doc: str) -> property:
    """A :class:`Wire` attribute living at the wire's slot of plane ``name``."""
    plane = operator.attrgetter(name)

    def get(self):
        return plane(self.store)[self.wid]

    def set(self, value) -> None:
        plane(self.store)[self.wid] = value

    return property(get, set, doc=doc)


def _const(field: int, doc: str) -> property:
    """A :class:`Wire` stub constant (``None`` when the signal is driven)."""
    def get(self):
        return self.store.consts.get(self.wid, _NO_CONSTS)[field]

    def set(self, value) -> None:
        self.store.set_const(self.wid, field, value)

    return property(get, set, doc=doc)


class Wire:
    """A runtime connection between one source and one destination port.

    A wire is an identity (``wid``, endpoints, type) plus a view over
    its slot of a :class:`SignalStore`: every signal attribute below
    reads and writes ``store.<plane>[wid]``.  All wires of a design
    share the design's store (passed as ``store``; whoever passes one
    calls its ``allocate()`` when wiring is done); a wire built on its
    own owns a private one.  Module code only touches wires through the
    :class:`~repro.core.ports.InView` / :class:`~repro.core.ports.OutView`
    port views, which enforce direction rules and index the same planes
    directly.

    The committed (post-control) signal values are ``data_status`` /
    ``data_value`` / ``enable`` / ``ack``; the endpoints' raw drives
    (pre-control) are the ``raw_*`` attributes.  Without a control
    function raw and committed are identical.
    """

    __slots__ = ("wid", "src", "dst", "wtype", "store", "__weakref__")

    def __init__(self, wid: int, src: Optional[Endpoint],
                 dst: Optional[Endpoint], wtype=None, control=None,
                 store: Optional[SignalStore] = None):
        own = store is None
        if own:
            # A wire built on its own owns a private store (its slot is
            # still its wid; the slots below it stay unused).
            store = SignalStore()
            store.ends.extend([(None, None)] * wid)
            store.control.extend([None] * wid)
        ends = store.ends
        if len(ends) != wid:
            raise WiringError(
                f"wire id {wid} is not the next slot of its store "
                f"({len(ends)})")
        # Only the structural tables grow here; ``allocate`` sizes the
        # signal planes for every claimed slot in one shot.
        ends.append((src, dst))
        store.control.append(control)
        if own:
            store.allocate()
        self.wid = wid
        self.src = src
        self.dst = dst
        self.wtype = wtype
        self.store = store

    control = _plane("control", "The connection's control function, or None.")
    data_status = _plane("ds", "Committed data status.")
    data_value = _plane("dv", "Committed datum (None unless SOMETHING).")
    enable = _plane("en", "Committed enable.")
    ack = _plane("ak", "Committed ack.")
    raw_data_status = _plane("rds", "The source's raw data drive.")
    raw_data_value = _plane("rdv", "The source's raw datum.")
    raw_enable = _plane("ren", "The source's raw enable drive.")
    raw_ack = _plane("rak", "The destination's raw ack drive.")
    transfers = _plane("transfers", "Transfers observed so far.")
    watched = _plane("watched", "Whether a probe is attached.")
    # Constant pre-resolution for stub wires on unconnected ports.
    const_data = _const(0, "Stub constant of the data status.")
    const_value = _const(1, "Stub constant of the datum.")
    const_enable = _const(2, "Stub constant of enable.")
    const_ack = _const(3, "Stub constant of ack.")

    def begin_step(self) -> int:
        """Reset this wire's signals for a new timestep.

        Stub constants re-resolve immediately.  Returns the number of
        signals left UNKNOWN (0-3).
        """
        return self.store.reset_slot(self.wid)

    def unresolved(self) -> list:
        """Names of committed signals still UNKNOWN (diagnostics)."""
        return self.store.unresolved(self.wid)

    def fully_resolved(self) -> bool:
        return self.store.first_unresolved(self.wid) is None

    def drive_data(self, status: DataStatus, value: Any = None) -> None:
        self.store.drive_data(self.wid, status, value)

    def drive_enable(self, asserted: bool) -> None:
        self.store.drive_enable(self.wid, asserted)

    def drive_ack(self, asserted: bool) -> None:
        self.store.drive_ack(self.wid, asserted)

    def force_default(self, signal: str) -> None:
        self.store.force_default(self.wid, signal)

    def took_src(self) -> bool:
        return self.store.took_src(self.wid)

    def took_dst(self) -> bool:
        return self.store.took_dst(self.wid)

    def transfer_happened(self) -> bool:
        """Delivery actually observed at the destination (engine view)."""
        return self.store.took_dst(self.wid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.store.describe(self.wid)
