"""Flattened netlist representation produced by elaboration.

The simulator constructor lowers a hierarchical :class:`~repro.core.lss.LSS`
into a :class:`FlatDesign`: a set of leaf module instances plus a list
of point-to-point :class:`FlatConnection` records between leaf ports.
All hierarchy has been resolved (exports chased, paths joined with
``/``), all port indices are concrete, and types are ready for
inference.  The engine layers (worklist, levelized, generated code) all
consume the same :class:`Design` built from it.
"""

from __future__ import annotations

import copy as _copy
from typing import Any, Dict, List, Optional, Tuple

from .module import LeafModule
from .signals import SignalStore, Wire
from .typesys import WireType


class FlatConnection:
    """One fully-resolved connection between two leaf ports."""

    __slots__ = ("src_path", "src_port", "src_index",
                 "dst_path", "dst_port", "dst_index",
                 "control", "src_type", "dst_type", "wtype")

    def __init__(self, src_path: str, src_port: str, src_index: int,
                 dst_path: str, dst_port: str, dst_index: int,
                 control=None, src_type: Optional[WireType] = None,
                 dst_type: Optional[WireType] = None):
        self.src_path = src_path
        self.src_port = src_port
        self.src_index = src_index
        self.dst_path = dst_path
        self.dst_port = dst_port
        self.dst_index = dst_index
        self.control = control
        self.src_type = src_type
        self.dst_type = dst_type
        self.wtype: Optional[WireType] = None

    def __repr__(self) -> str:
        return (f"{self.src_path}.{self.src_port}[{self.src_index}] -> "
                f"{self.dst_path}.{self.dst_port}[{self.dst_index}]")


class FlatDesign:
    """Leaves + flat connections; the output of elaboration."""

    def __init__(self, name: str):
        self.name = name
        self.leaves: Dict[str, LeafModule] = {}
        self.connections: List[FlatConnection] = []

    def __repr__(self) -> str:
        return (f"<FlatDesign {self.name!r}: {len(self.leaves)} leaves, "
                f"{len(self.connections)} connections>")


class Design:
    """A fully wired design, ready to be animated by an engine.

    Attributes
    ----------
    name:
        System name from the LSS.
    leaves:
        ``path -> LeafModule`` of all behavioural instances.
    wires:
        All runtime :class:`~repro.core.signals.Wire` objects, including
        the constant *stub* wires padding unconnected port indices.
    stub_wires:
        The subset of ``wires`` that are default-driven stubs.
    port_wires:
        ``(path, port) -> [Wire, ...]`` indexed lists per leaf port.
    store:
        The :class:`~repro.core.signals.SignalStore` holding every
        wire's signals; wire ``w`` lives at slot ``w.wid``, which is
        also its position in ``wires``.

    A :class:`Design` is consumed by exactly one simulator at a time:
    the engine steps the design's store (and the worklist engine
    installs its signal-change hook into it).
    """

    def __init__(self, name: str):
        self.name = name
        self.leaves: Dict[str, LeafModule] = {}
        self.wires: List[Wire] = []
        self.store = SignalStore()
        self.stub_wires: List[Wire] = []
        self.port_wires: Dict[Tuple[str, str], List[Wire]] = {}
        self._owned = False

    @property
    def real_wires(self) -> List[Wire]:
        """Wires that connect two actual leaf endpoints (non-stubs)."""
        stub_ids = {id(w) for w in self.stub_wires}
        return [w for w in self.wires if id(w) not in stub_ids]

    def copy(self) -> "Design":
        """An independent, un-owned duplicate of this design.

        A :class:`Design` is consumed by exactly one simulator; to
        animate the same structure with a second engine, copy it
        instead of rebuilding from the specification.  The duplicate
        shares nothing with the original: leaves, wires, port views and
        parameter values are all deep-copied — the copy gets a signal
        store of its own — engine bindings (the store's hook,
        ``leaf.sim``, vec-parked reset templates) are cleared, profiler
        instrumentation is dropped, and runtime counters (per-wire
        transfer counts, probe marks) are reset.

        Copying an already-animated design forks its *current* instance
        state (module ``init()`` runs again when the new engine is
        constructed, so modules that reset in ``init`` start fresh —
        the shipped libraries all do).
        """
        memo: Dict[int, Any] = {}
        if self.store.hook is not None:
            memo[id(self.store.hook)] = None
        for leaf in self.leaves.values():
            sim = getattr(leaf, "sim", None)
            if sim is not None:
                memo[id(sim)] = None
        dup = _copy.deepcopy(self, memo)
        dup._owned = False
        dup.store.transfers[:] = [0] * len(dup.wires)
        dup.store.watched[:] = [False] * len(dup.wires)
        # A batched-vec plan parks the slots it vectorizes in the reset
        # templates; the copy's engine starts from the plain ones.
        dup.store.unpark(range(len(dup.wires)))
        for leaf in dup.leaves.values():
            leaf.sim = None
            # Rebind the react dispatch to the copy: the original's
            # entry may be a profiler wrapper closing over the original
            # instance, and deepcopy keeps function objects by reference.
            if "react" in leaf.__dict__:
                leaf.react = type(leaf).react.__get__(leaf)
        return dup

    def wire_between(self, src_path: str, src_port: str,
                     dst_path: str, dst_port: str,
                     nth: int = 0) -> Wire:
        """Find the ``nth`` wire from one named port to another.

        Convenience for tests and probes.
        """
        found = []
        for w in self.wires:
            if (w.src is not None and w.dst is not None
                    and w.src.instance.path == src_path
                    and w.src.port == src_port
                    and w.dst.instance.path == dst_path
                    and w.dst.port == dst_port):
                found.append(w)
        return found[nth]

    def __repr__(self) -> str:
        return (f"<Design {self.name!r}: {len(self.leaves)} leaves, "
                f"{len(self.wires)} wires ({len(self.stub_wires)} stubs)>")
