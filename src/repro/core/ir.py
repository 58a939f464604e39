"""The compiled-model IR: one canonical artifact per design structure.

The paper's construction-time argument (§2.3) is that a fixed model of
computation lets the *system* derive the executable form of a
specification.  Historically each engine re-derived the pieces it
needed — the static engine built the signal graph and schedule, then
generated its stepper, the analysis passes rebuilt the graph again.
This module centralizes all of it in one **immutable compiled
artifact**, the :class:`CompiledModel`:

* the levelized schedule (portable, path/endpoint-keyed),
* the signal-group dependency graph (portable edge list),
* the wire partition summary (stub constants, transfer slots),
* the generated stepper source (and, in-memory, its code object),
* the DEPS and control-function tables the fingerprint covers.

``Design → CompiledModel → backend`` is the execution pipeline: the
:func:`compile_model` entry point fingerprints a design, consults the
compile cache (:mod:`repro.core.compile_cache`, whose entries *are*
``CompiledModel`` objects), compiles on a miss, and returns a
:class:`BoundModel` — the artifact rebound onto one concrete design's
live instances and wires.  Every backend in
:mod:`repro.core.backends` that uses static scheduling (levelized,
batched) executes over this binding, and the analysis layer
(:class:`repro.analysis.passes.AnalysisContext`) materializes its
signal graph from the same artifact instead of rebuilding it.

A ``CompiledModel`` is portable: it references instances by path and
wires by canonical endpoint keys, never by object or wire id, so an
artifact compiled against one :class:`~repro.core.netlist.Design`
binds onto any structurally identical design — including one built in
another process from the on-disk cache layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .engine import WirePartition, partition_wires
from .netlist import Design

#: A portable signal group: ``[kind, wire_key-as-list]``.
PortableGroup = List[Any]


@dataclass(frozen=True)
class CompileOptions:
    """What one staged compilation should produce.

    The staged driver (:func:`compile_model`) runs up to three stages —
    base (graph → schedule → partition), optimizer pipeline
    (``opt_level > 0``) and vec planning (``vec=True``) — each cached
    under its own composite key, so any warm prefix is skipped:

    * ``opt_level``: optimizer pipeline level (see
      :mod:`repro.core.opt`); the resulting artifact caches under
      ``fingerprint@opt{level}.{OPT_VERSION}``;
    * ``need_stepper``: attach the generated stepper source/code;
    * ``vec``: additionally run vec planning as a compile-time pass and
      store the portable plan payload on the artifact, cached under
      ``fingerprint@opt{level}+vec{lanes_class}.{OPT_VERSION}/{VEC_VERSION}``;
    * ``lanes_class``: the lane-shape class of the vec plan (``"any"``
      today — payloads are lane-count independent).
    """

    opt_level: int = 0
    need_stepper: bool = False
    vec: bool = False
    lanes_class: str = "any"


class CompiledModel:
    """Everything construction-time compilation yields, as one object.

    Fields are set once at compile time and never mutated afterwards,
    with one documented exception: the stepper pair
    (``stepper_source``/``code``) is attached lazily the first time a
    static engine steps, or a warm-up asks for it (:func:`attach_stepper`;
    ``code`` lives in the in-memory cache layer only — it is never
    serialized).

    ``schedule`` is the portable schedule; ``graph_edges`` the portable
    signal-graph edge list (``None`` for entries predating it, e.g.
    hand-built test entries); ``const_keys``/``transfer_keys``/
    ``begin_unknown`` summarize the wire partition; ``deps`` and
    ``controls`` are the per-path DEPS signatures and per-wire control
    identities the fingerprint covers, kept for introspection.
    """

    __slots__ = ("fingerprint", "schedule", "stepper_source", "code",
                 "design_name", "graph_edges", "const_keys",
                 "transfer_keys", "begin_unknown", "deps", "controls",
                 "opt", "vec")

    def __init__(self, fingerprint: str, schedule: List[Dict[str, Any]],
                 stepper_source: Optional[str] = None, code: Any = None, *,
                 design_name: str = "",
                 graph_edges: Optional[List[List[PortableGroup]]] = None,
                 const_keys: Optional[List[List[Any]]] = None,
                 transfer_keys: Optional[List[List[Any]]] = None,
                 begin_unknown: Optional[int] = None,
                 deps: Optional[Dict[str, str]] = None,
                 controls: Optional[Dict[str, str]] = None,
                 opt: Optional[Dict[str, Any]] = None,
                 vec: Optional[Dict[str, Any]] = None):
        self.fingerprint = fingerprint
        self.schedule = schedule
        self.stepper_source = stepper_source
        self.code = code
        self.design_name = design_name
        self.graph_edges = graph_edges
        self.const_keys = const_keys
        self.transfer_keys = transfer_keys
        self.begin_unknown = begin_unknown
        self.deps = deps
        self.controls = controls
        self.opt = opt
        self.vec = vec

    def __repr__(self) -> str:
        return (f"<CompiledModel {self.design_name!r} "
                f"fp={self.fingerprint[:12]} "
                f"entries={len(self.schedule)} "
                f"stepper={'yes' if self.stepper_source else 'no'}>")

    # -- serialization ---------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """The JSON-able on-disk form (``code`` deliberately excluded)."""
        return {"fingerprint": self.fingerprint,
                "schedule": self.schedule,
                "stepper_source": self.stepper_source,
                "design_name": self.design_name,
                "graph": self.graph_edges,
                "partition": None if self.const_keys is None else {
                    "const": self.const_keys,
                    "transfer": self.transfer_keys,
                    "begin_unknown": self.begin_unknown},
                "deps": self.deps,
                "controls": self.controls,
                "opt": self.opt,
                "vec": self.vec}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "CompiledModel":
        part = payload.get("partition") or {}
        return cls(payload["fingerprint"], payload["schedule"],
                   payload.get("stepper_source"),
                   design_name=payload.get("design_name", ""),
                   graph_edges=payload.get("graph"),
                   const_keys=part.get("const"),
                   transfer_keys=part.get("transfer"),
                   begin_unknown=part.get("begin_unknown"),
                   deps=payload.get("deps"),
                   controls=payload.get("controls"),
                   opt=payload.get("opt"),
                   vec=payload.get("vec"))

    # -- binding onto a concrete design ----------------------------------
    def bind(self, design: Design, *, from_cache: bool = True) \
            -> "BoundModel":
        """Rebind this artifact onto ``design``'s live objects.

        Raises (``KeyError``/``TypeError``/``ValueError``) when the
        artifact does not apply to this design — the caller treats that
        as a corrupt or colliding cache entry and evicts it.
        """
        from .compile_cache import materialize_schedule
        schedule = materialize_schedule(self.schedule, design)
        partition = partition_wires(design)
        if self.begin_unknown is not None:
            # Cross-check the design's slot tables against the compiled
            # summary: a mismatch means the entry describes a different
            # structure (collision or corruption) — refuse the binding.
            if (partition.begin_unknown != self.begin_unknown
                    or len(design.store.consts) != len(self.const_keys or ())
                    or len(partition.transfer)
                    != len(self.transfer_keys or ())):
                raise ValueError(
                    f"compiled partition does not match design "
                    f"{design.name!r}")
        return BoundModel(self, design, schedule,
                          _cluster_slot_lists(schedule),
                          partition, from_cache=from_cache)

    def signal_graph(self, design: Design):
        """Materialize the portable signal graph onto ``design``.

        Returns the same graph :func:`repro.core.optimize.
        build_signal_graph` would build — nodes per fwd/ack group with
        ``wire``/``driver``/``const`` attributes, edges from the stored
        portable list — without re-running dependency expansion.
        Returns ``None`` when this artifact predates graph storage.
        """
        if self.graph_edges is None:
            return None
        from .compile_cache import wire_key
        from .optimize import signal_graph_nodes
        key_to_wire = {wire_key(w): w for w in design.wires}
        graph = signal_graph_nodes(design)
        for (src_kind, src_key), (dst_kind, dst_key) in self.graph_edges:
            graph.add_edge(
                (src_kind, key_to_wire[tuple(src_key)].wid),
                (dst_kind, key_to_wire[tuple(dst_key)].wid))
        return graph


class BoundModel:
    """A :class:`CompiledModel` rebound onto one concrete design.

    Holds the live schedule (:class:`~repro.core.optimize.
    ScheduleEntry` objects over this design's instances), the per-entry
    cluster slot lists, and the wire partition — everything a static
    backend needs to execute, plus ``from_cache`` recording whether the
    artifact came from the compile cache or was compiled fresh.
    """

    __slots__ = ("model", "design", "schedule", "cluster_slots",
                 "partition", "from_cache")

    def __init__(self, model: CompiledModel, design: Design,
                 schedule: List[Any], cluster_slots: List[List[int]],
                 partition: WirePartition, *, from_cache: bool):
        self.model = model
        self.design = design
        self.schedule = schedule
        self.cluster_slots = cluster_slots
        self.partition = partition
        self.from_cache = from_cache


def _cluster_slot_lists(schedule: List[Any]) -> List[List[int]]:
    """Per-entry slot lists the cluster fixed-point iteration checks."""
    return [sorted({wid for _, wid in entry.groups}) if entry.cluster else []
            for entry in schedule]


def _portable_graph(graph, design: Design) -> List[List[PortableGroup]]:
    """Lower a live signal graph to the portable edge-list form."""
    from .compile_cache import wire_key
    key_by_wid = {w.wid: list(wire_key(w)) for w in design.wires}
    return [[[src[0], key_by_wid[src[1]]], [dst[0], key_by_wid[dst[1]]]]
            for src, dst in graph.edges()]


def _metadata_tables(design: Design) -> Tuple[Dict[str, str], Dict[str, str]]:
    """The (DEPS, control) tables recorded alongside the schedule."""
    from .compile_cache import (_control_identity, _deps_signature,
                                wire_key)
    deps = {path: _deps_signature(leaf)
            for path, leaf in sorted(design.leaves.items())}
    control = design.store.control
    controls = {"|".join(map(str, wire_key(w))): _control_identity(control[w.wid])
                for w in design.wires if control[w.wid] is not None}
    return deps, controls


def attach_stepper(model: CompiledModel, schedule: List[Any], *,
                   store: bool = True):
    """``model``'s stepper code object, generated and compiled on first
    use (idempotent).

    The source is a function of the schedule shape alone, so it rides
    the artifact: with ``store``, a freshly generated source re-stores a
    cache entry (``model.fingerprint`` set), so the next process reads
    it from disk.  The code object is shared through the in-memory
    layer only.
    """
    if model.code is None:
        from .codegen import generate_stepper_source
        if model.stepper_source is None:
            model.stepper_source = generate_stepper_source(
                schedule, model.design_name)
            if store and model.fingerprint:
                from .compile_cache import get_cache
                get_cache().store(model)
        model.code = compile(model.stepper_source,
                             f"<generated stepper {model.design_name!r}>",
                             "exec")
    return model.code


def compile_model(design: Design,
                  options: Optional[CompileOptions] = None, *,
                  need_stepper: bool = False,
                  opt_level: int = 0) -> BoundModel:
    """The staged Design → CompiledModel driver (cache-aware).

    Fingerprints ``design``, returns a cached artifact bound onto it on
    a hit, compiles on a miss and stores.  An entry that fails to bind —
    fingerprint collision, stale format drift — is evicted and
    recompiled, never fatal.  With the cache disabled the fingerprint
    walk is skipped entirely (``model.fingerprint`` is then ``""``) and
    every call compiles fresh, preserving the historical engine
    behavior.

    ``options`` (a :class:`CompileOptions`; the ``need_stepper``/
    ``opt_level`` keywords are back-compat shorthand) selects the
    stages, innermost first.  Every stage goes through the same
    lookup → bind → evict-on-failure → attach-stepper → store block
    under its own key, and on a miss builds from the stage below it:

    1. **base**: signal graph → schedule → partition, cached under the
       bare fingerprint;
    2. **opt** (``opt_level > 0``): the optimizer pipeline
       (:mod:`repro.core.opt`) — the schedule it leaves plus the ``opt``
       block the engine applies at construction — cached under the
       composite ``fingerprint@opt{level}.{OPT_VERSION}`` key, so warm
       runs bind it directly and skip the pass pipeline entirely.  The
       base artifact's partition summary is what the optimized entry
       carries, since the wire partition itself is untouched by
       optimization (dead wires are parked by the engine, not removed
       from the design);
    3. **vec** (``vec=True``): vec planning
       (:func:`repro.core.vec.plan_vec_structure`) over the
       (optimized) schedule and opt block, stored as the artifact's
       portable ``vec`` payload and cached under the composite
       ``fingerprint@opt{level}+vec{class}.{OPT_VERSION}/{VEC_VERSION}``
       key, so warm lockstep builds — and fabric workers receiving
       the artifact — skip both the pass pipeline *and* planning.
    """
    if options is None:
        options = CompileOptions(opt_level=opt_level or 0,
                                 need_stepper=need_stepper)
    from .compile_cache import design_fingerprint, get_cache
    cache = get_cache()
    level = options.opt_level or 0
    fingerprint = design_fingerprint(design) if cache.enabled else ""
    # (cache key, builder), innermost first.
    stages = [(fingerprint, _build_base)]
    if level > 0:
        from .opt import opt_cache_key
        stages.append((opt_cache_key(fingerprint, level), _build_opt))
    if options.vec:
        from .vec import vec_cache_key
        stages.append((vec_cache_key(fingerprint, level,
                                     options.lanes_class), _build_vec))

    def stage(depth: int, need_stepper: bool) -> BoundModel:
        key, build = stages[depth]
        if not cache.enabled:
            key = ""
        else:
            entry = cache.lookup(key)
            if entry is not None:
                try:
                    bound = entry.bind(design)
                except Exception:
                    cache.evict(key)
                    cache.stats["misses"] += 1
                else:
                    if need_stepper:
                        attach_stepper(entry, bound.schedule)
                    return bound
        model, schedule, partition = build(
            design, key, options,
            lambda inner_stepper: stage(depth - 1, inner_stepper))
        if need_stepper:
            attach_stepper(model, schedule, store=False)
        if cache.enabled:
            cache.store(model)
        return BoundModel(model, design, schedule,
                          _cluster_slot_lists(schedule),
                          partition, from_cache=False)

    try:
        return stage(len(stages) - 1, options.need_stepper)
    finally:
        # ``stage`` refers to itself through its own cell; left alone
        # the cycle would pin ``design`` until a gc pass.
        stage = None


def _derived_model(key: str, inner: BoundModel, schedule: List[Any],
                   **fields: Any) -> CompiledModel:
    """A stage's artifact: ``fields`` over what the stage below it
    already established (graph, partition summary, metadata tables)."""
    from .compile_cache import portable_schedule
    base = inner.model
    return CompiledModel(
        key, portable_schedule(schedule, inner.design),
        design_name=base.design_name, graph_edges=base.graph_edges,
        const_keys=base.const_keys, transfer_keys=base.transfer_keys,
        begin_unknown=base.begin_unknown, deps=base.deps,
        controls=base.controls, **fields)


def _build_base(design: Design, key: str, options: CompileOptions, inner):
    """Stage 1 on a miss: signal graph → schedule → partition."""
    from .compile_cache import portable_schedule, wire_key
    from .optimize import build_schedule, build_signal_graph
    graph = build_signal_graph(design)
    schedule = build_schedule(design, graph=graph)
    edges = _portable_graph(graph, design)
    partition = partition_wires(design)
    deps, controls = _metadata_tables(design)
    wires = design.wires
    model = CompiledModel(
        key, portable_schedule(schedule, design),
        design_name=design.name,
        graph_edges=edges,
        const_keys=[list(wire_key(wires[s]))
                    for s in sorted(design.store.consts)],
        transfer_keys=[list(wire_key(wires[s])) for s in partition.transfer],
        begin_unknown=partition.begin_unknown,
        deps=deps, controls=controls)
    return model, schedule, partition


def _build_opt(design: Design, key: str, options: CompileOptions, inner):
    """Stage 2 on a miss: the base artifact supplies the signal graph,
    schedule, partition summary and metadata tables; only the pass
    pipeline itself runs fresh."""
    from .opt.pipeline import optimize_model
    base = inner(False)
    graph = base.model.signal_graph(design)
    result = optimize_model(design, level=options.opt_level, graph=graph,
                            schedule=base.schedule)
    model = _derived_model(key, base, result.schedule, opt=result.block)
    return model, result.schedule, base.partition


def _build_vec(design: Design, key: str, options: CompileOptions, inner):
    """Stage 3 on a miss: the stage below supplies the schedule, opt
    block and stepper; only :func:`~repro.core.vec.plan_vec_structure`
    runs fresh, and the portable payload rides the stored artifact —
    the form fabric ships to workers so shards adopt the plan instead
    of replanning."""
    from .vec import plan_vec_structure
    base = inner(options.need_stepper)
    model = _derived_model(
        key, base, base.schedule, opt=base.model.opt,
        stepper_source=base.model.stepper_source, code=base.model.code,
        vec=plan_vec_structure(design, base.schedule, opt=base.model.opt))
    return model, base.schedule, base.partition
