"""Content-addressed compilation cache for simulator construction.

The paper's core performance argument (§2.3, citing Penry & August's
DAC'03 static scheduling, ref [22]) is that a *fixed* reactive model of
computation lets the specification be analyzed and optimized **at
construction time**.  Everything the construction-time optimizer
produces — the signal-group dependency graph, its condensation, the
levelized schedule, the generated stepper source — is a pure function
of the design's *structure*:

* the set of leaf module templates (types, port declarations),
* each instance's combinational dependency map (``deps()``),
* the point-to-point port wiring topology (including implicit stubs),
* the control functions attached to connections.

This module derives a **canonical fingerprint** from exactly those
inputs (order-independent: the order in which instances were declared
or connections were made does not change it) and uses it as the key of
a two-layer cache:

* an **in-memory layer** (bounded, LRU) so repeated constructions in
  one process — differential tests, sweeps over non-structural
  parameters, engine A/B runs — compile once;
* an **on-disk layer** (``.repro-cache/``, versioned JSON, one file per
  fingerprint) so *separate processes* — campaign worker processes
  animating the same topology, repeated CLI invocations — share one
  compilation.  The disk layer is corruption-tolerant by construction:
  an unreadable, wrong-version or inapplicable entry is evicted and
  silently recompiled, never fatal.

Cached artifacts are stored in a *portable* form that references
instances by path and wires by endpoint keys (never by object or wire
id), so an entry written against one :class:`~repro.core.netlist.Design`
materializes onto any structurally identical design, including one
built in another process.

Environment knobs
-----------------
``REPRO_COMPILE_CACHE=0``
    Disable the cache entirely (constructions always recompile).
``REPRO_CACHE_DIR=PATH``
    On-disk layer location (default ``.repro-cache`` in the CWD).
``REPRO_CACHE_DISK=0``
    Keep the in-memory layer but never touch the disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from .ir import CompiledModel
from .netlist import Design
from .signals import Wire

#: Bump when the fingerprint inputs or the portable artifact format
#: change; old on-disk entries are then evicted on sight.  v2: entries
#: are full compiled-model IR payloads (signal graph, wire partition,
#: DEPS/control tables) instead of bare schedules.  v3: the base
#: schedule is the fused instance-affine one (see build_schedule).  v4:
#: the generated stepper reads the signal store's ``unknown`` counter
#: and hands clusters their slot lists.
CACHE_VERSION = 4

_DEFAULT_DIR = ".repro-cache"
_DEFAULT_MEMORY_LIMIT = 64


# ----------------------------------------------------------------------
# Canonical design fingerprint
# ----------------------------------------------------------------------
def _callable_identity(obj: Any, depth: int = 0) -> str:
    """A stable identity string for a (possibly closure-carrying) callable.

    Qualified name alone is not enough: two ``squash_when(pred)``
    controls share the same lambda qualname but close over different
    predicates.  The identity therefore folds in the bytecode, the
    non-code constants, and (recursively, to a bounded depth) the
    closure cell contents.  Exception-safe: anything unrenderable
    degrades to its type name rather than raising.
    """
    if depth > 3:
        return "<depth>"
    code = getattr(obj, "__code__", None)
    if code is None:
        try:
            return f"{type(obj).__module__}.{type(obj).__qualname__}={obj!r}"
        except Exception:
            return f"{type(obj).__module__}.{type(obj).__qualname__}"
    parts = [f"{getattr(obj, '__module__', '?')}."
             f"{getattr(obj, '__qualname__', '?')}",
             hashlib.sha256(code.co_code).hexdigest()[:16]]
    for const in code.co_consts:
        if hasattr(const, "co_code"):  # nested code object (inner lambda)
            parts.append(hashlib.sha256(const.co_code).hexdigest()[:16])
        else:
            try:
                parts.append(repr(const))
            except Exception:
                parts.append(type(const).__name__)
    for cell in getattr(obj, "__closure__", None) or ():
        try:
            value = cell.cell_contents
        except ValueError:  # empty cell
            parts.append("<empty>")
            continue
        if callable(value):
            parts.append(_callable_identity(value, depth + 1))
        else:
            try:
                parts.append(repr(value))
            except Exception:
                parts.append(type(value).__name__)
    return "|".join(parts)


def _control_identity(control: Any) -> str:
    """Identity of a :class:`~repro.core.control.ControlFunction`."""
    if control is None:
        return "-"
    return (f"{control.name}"
            f"/fwd:{_callable_identity(control.forward)}"
            f"/bwd:{_callable_identity(control.backward)}")


def _deps_signature(inst: Any) -> str:
    """Canonical rendering of one instance's ``deps()`` declaration."""
    deps = inst.deps()
    if deps is None:
        return "None"
    items = []
    for key in sorted(deps):
        values = ",".join(f"{k}:{p}" for k, p in sorted(deps[key]))
        items.append(f"{key[0]}:{key[1]}=>({values})")
    return ";".join(items)


def _ports_signature(cls: type) -> str:
    """Canonical rendering of a template's port declarations.

    Included so that editing a template's ``PORTS`` (min/max width,
    stub defaults) invalidates on-disk entries written before the edit.
    Memoized per template class.
    """
    sig = _PORTS_SIG_MEMO.get(cls)
    if sig is None:
        parts = []
        for decl in cls.PORTS:
            parts.append(
                f"{decl.name}/{decl.direction}/{decl.min_width}"
                f"/{decl.max_width}/{decl.default_data!r}"
                f"/{decl.default_value!r}/{decl.default_enable!r}"
                f"/{decl.default_ack!r}")
        sig = ";".join(parts)
        _PORTS_SIG_MEMO[cls] = sig
    return sig


_PORTS_SIG_MEMO: Dict[type, str] = {}


def wire_key(wire: Wire) -> Tuple:
    """Canonical, design-independent key of one runtime wire.

    Real wires are keyed by both endpoint triples; stubs (one absent
    endpoint) by their single endpoint plus the side it sits on.  Keys
    are unique within a design: index assignment guarantees each
    ``(path, port, index)`` slot is used by at most one wire per side.
    """
    if wire.src is not None and wire.dst is not None:
        return ("w", wire.src.path, wire.src.port, wire.src.index,
                wire.dst.path, wire.dst.port, wire.dst.index)
    if wire.src is not None:
        ep, side = wire.src, "src"
    else:
        ep, side = wire.dst, "dst"
    return ("s", ep.path, ep.port, ep.index, side)


def design_fingerprint(design: Design) -> str:
    """The canonical content fingerprint of a wired design.

    Covers the four schedule-relevant structural inputs (leaf template
    types + port declarations, per-instance ``deps()``, wiring
    topology, control-function identities) plus the design name and the
    cache format version.  Declaration order is canonicalized away:
    leaves are folded sorted by path, wires sorted by their canonical
    endpoint key.

    Memoized on the design instance: structure is frozen once
    :func:`~repro.core.constructor.build_design` returns, and
    :meth:`Design.copy` deep-copies the memo along, so re-animating the
    same topology (engine A/B runs, campaign retries) skips the walk.
    """
    cached = getattr(design, "_compile_fingerprint", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()

    def feed(text: str) -> None:
        hasher.update(text.encode("utf-8", "backslashreplace"))
        hasher.update(b"\x00")

    feed(f"v{CACHE_VERSION}")
    feed(design.name)
    for path in sorted(design.leaves):
        leaf = design.leaves[path]
        cls = type(leaf)
        feed(f"L|{path}|{cls.__module__}.{cls.__qualname__}"
             f"|{_deps_signature(leaf)}|{_ports_signature(cls)}")
    controls = design.store.control
    keyed = sorted(((wire_key(w), w) for w in design.wires),
                   key=lambda pair: pair[0])
    for key, wire in keyed:
        feed(f"W|{'|'.join(map(str, key))}"
             f"|{_control_identity(controls[wire.wid])}")
    digest = hasher.hexdigest()
    try:
        design._compile_fingerprint = digest
    except Exception:
        pass
    return digest


# ----------------------------------------------------------------------
# Portable schedule form
# ----------------------------------------------------------------------
def portable_schedule(schedule: List[Any], design: Design) \
        -> List[Dict[str, Any]]:
    """Lower a live schedule to a path/endpoint-keyed, JSON-able form."""
    by_wid = {w.wid: w for w in design.wires}
    out = []
    for entry in schedule:
        out.append({
            "p": [inst.path for inst in entry.instances],
            "c": 1 if entry.cluster else 0,
            "g": [[kind, list(wire_key(by_wid[wid]))]
                  for kind, wid in entry.groups],
        })
    return out


def materialize_schedule(portable: List[Dict[str, Any]], design: Design) \
        -> List[Any]:
    """Rebind a portable schedule onto a concrete design.

    Raises ``KeyError``/``TypeError`` when the entry does not apply to
    this design (the caller treats that as a corrupt entry and evicts).
    """
    from .optimize import ScheduleEntry
    key_to_wid = {wire_key(w): w.wid for w in design.wires}
    leaves = design.leaves
    entries = []
    for ent in portable:
        instances = [leaves[path] for path in ent["p"]]
        groups = [(kind, key_to_wid[tuple(key)]) for kind, key in ent["g"]]
        entries.append(ScheduleEntry(instances, bool(ent["c"]), groups))
    return entries


# ----------------------------------------------------------------------
# The cache proper
# ----------------------------------------------------------------------
#: Backward-compatible alias: cache entries *are* the compiled-model IR
#: (see :mod:`repro.core.ir`); the historical name is kept for callers
#: that constructed bare entries directly.
CompiledDesign = CompiledModel


class CompileCache:
    """Two-layer (memory + disk) cache of :class:`CompiledModel` entries."""

    def __init__(self, *, enabled: Optional[bool] = None,
                 disk_dir: Optional[str] = None,
                 disk_enabled: Optional[bool] = None,
                 memory_limit: int = _DEFAULT_MEMORY_LIMIT):
        if enabled is None:
            enabled = os.environ.get("REPRO_COMPILE_CACHE", "1") != "0"
        if disk_enabled is None:
            disk_enabled = os.environ.get("REPRO_CACHE_DISK", "1") != "0"
        if disk_dir is None:
            disk_dir = os.environ.get("REPRO_CACHE_DIR", _DEFAULT_DIR)
        self.enabled = enabled
        self.disk_enabled = disk_enabled and enabled
        self.disk_dir = disk_dir
        self.memory_limit = memory_limit
        self._memory: Dict[str, CompiledModel] = {}
        self.stats = {"memory_hits": 0, "disk_hits": 0, "misses": 0,
                      "stores": 0, "evictions": 0, "disk_errors": 0}

    # -- low-level layers ------------------------------------------------
    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.disk_dir, f"{fingerprint}.json")

    def _remember(self, entry: CompiledModel) -> None:
        memory = self._memory
        memory.pop(entry.fingerprint, None)
        memory[entry.fingerprint] = entry  # insertion order = LRU order
        while len(memory) > self.memory_limit:
            memory.pop(next(iter(memory)))
            self.stats["evictions"] += 1

    def _disk_read(self, fingerprint: str) -> Optional[CompiledModel]:
        if not self.disk_enabled:
            return None
        path = self._path(fingerprint)
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if (payload.get("version") != CACHE_VERSION
                    or payload.get("fingerprint") != fingerprint
                    or not isinstance(payload.get("schedule"), list)):
                raise ValueError("stale or malformed cache entry")
            return CompiledModel.from_payload(payload)
        except FileNotFoundError:
            return None
        except Exception:
            # Corrupt / stale / unreadable: evict, never fatal.
            self.evict(fingerprint)
            return None

    def _disk_write(self, entry: CompiledModel) -> None:
        if not self.disk_enabled:
            return
        payload = dict(entry.to_payload(), version=CACHE_VERSION)
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.disk_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    # dumps() + one write hits the C encoder; dump()
                    # streams through the pure-Python iterencode path
                    # and is ~5x slower on schedule-sized payloads.
                    handle.write(json.dumps(payload,
                                            separators=(",", ":")))
                os.replace(tmp, self._path(entry.fingerprint))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # Read-only filesystem, quota, races: the cache is an
            # optimization; construction must never fail because of it.
            self.stats["disk_errors"] += 1

    # -- public API ------------------------------------------------------
    def lookup(self, fingerprint: str) -> Optional[CompiledModel]:
        """The entry for ``fingerprint``, or ``None`` (counts a miss)."""
        if not self.enabled:
            return None
        entry = self._memory.get(fingerprint)
        if entry is not None:
            self.stats["memory_hits"] += 1
            self._remember(entry)  # refresh LRU position
            return entry
        entry = self._disk_read(fingerprint)
        if entry is not None:
            self.stats["disk_hits"] += 1
            self._remember(entry)
            return entry
        self.stats["misses"] += 1
        return None

    def store(self, entry: CompiledModel) -> None:
        """Insert/overwrite an entry in both layers."""
        if not self.enabled:
            return
        self.stats["stores"] += 1
        self._remember(entry)
        self._disk_write(entry)

    def evict(self, fingerprint: str) -> None:
        """Drop one entry from both layers (tolerates absence)."""
        if self._memory.pop(fingerprint, None) is not None:
            self.stats["evictions"] += 1
        if self.disk_enabled:
            try:
                os.unlink(self._path(fingerprint))
                self.stats["evictions"] += 1
            except OSError:
                pass

    def clear(self, *, disk: bool = True) -> None:
        """Empty the memory layer (and, by default, the disk layer)."""
        self._memory.clear()
        if disk and self.disk_enabled and os.path.isdir(self.disk_dir):
            for name in os.listdir(self.disk_dir):
                if name.endswith(".json"):
                    try:
                        os.unlink(os.path.join(self.disk_dir, name))
                    except OSError:
                        pass


# ----------------------------------------------------------------------
# Process-wide default cache
# ----------------------------------------------------------------------
_default_cache: Optional[CompileCache] = None


def get_cache() -> CompileCache:
    """The process-wide cache (created lazily from the environment)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = CompileCache()
    return _default_cache


def configure(**kwargs) -> CompileCache:
    """Replace the process-wide cache (tests, embedders).

    Keyword arguments are forwarded to :class:`CompileCache`; call with
    none to re-read the environment.
    """
    global _default_cache
    _default_cache = CompileCache(**kwargs)
    return _default_cache


def warm_design(design: Design, opt_level: int = 0, vec: bool = False) -> str:
    """Ensure ``design``'s compiled model is cached; returns the fingerprint.

    Used by the campaign orchestrator to compile each distinct topology
    once in the parent before worker processes fan out.  With
    ``opt_level > 0`` the optimized artifact is warmed too (under its
    composite ``fingerprint@opt{level}.{version}`` key), so workers
    skip the optimizer pass pipeline as well as compilation.  With
    ``vec=True`` the vec-planned artifact is also warmed (composite
    ``fingerprint@opt{level}+vec{class}`` key), so lockstep batch
    workers adopt the plan instead of rebuilding it per process.
    """
    fingerprint = design_fingerprint(design)
    cache = get_cache()
    if cache.enabled:
        from .ir import CompileOptions, compile_model
        compile_model(design)
        level = opt_level or 0
        if level > 0:
            compile_model(design, opt_level=level)
        if vec:
            compile_model(design, CompileOptions(opt_level=level, vec=True))
    return fingerprint


def warm_spec(spec, opt_level: int = 0, vec: bool = False) -> str:
    """Build ``spec``'s design and warm the cache for it."""
    from .constructor import build_design
    return warm_design(build_design(spec), opt_level=opt_level, vec=vec)
