"""The campaign orchestrator: sweep → executor → ledger → aggregate.

A :class:`Campaign` binds a parameter sweep to a run target and drives
every point through the executor while journaling each lifecycle event
to the JSONL ledger.  Interrupt it — Ctrl-C, SIGKILL, power loss — and
``run(resume=True)`` (or ``python -m repro campaign --resume``) replays
the ledger, verifies the sweep fingerprint, and executes only the
points without a recorded ``done`` event; completed points are fed into
the final table from the journal, not re-run.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, Optional, Sequence, Union

from ..core.backends import DEFAULT_ENGINE
from .aggregate import CampaignResult, RunRow
from .errors import CampaignError
from .executor import (InlineExecutor, ProcessExecutor, RunOutcome, RunTask,
                       _coerce_spec, resolve_target)
from .ledger import Ledger, LedgerState
from .sweep import Sweep, SweepPoint


def fingerprint_groups(kind: str, target, lss_text: Optional[str],
                       points: Sequence[Any], options=None):
    """Group sweep points by the structural fingerprint of their design.

    The shared shard-planning primitive: ``Campaign(batch=True)`` uses
    it to fold a sweep into lockstep groups, and the distributed fabric
    (:mod:`repro.fabric.shards`) uses the same grouping so a fabric
    shard is exactly one lockstep batch.  Each point's spec is built
    here, its design fingerprinted — which also warms the compile cache
    when it is enabled, so later constructions (worker processes,
    batch lanes) hit instead of recompiling.

    ``points`` may be :class:`~repro.campaign.sweep.SweepPoint` objects
    or plain mappings with ``"run_id"``/``"params"`` keys (the fabric's
    wire form).  ``options`` (a :class:`~repro.core.ir.CompileOptions`)
    names what to warm; with ``vec=True`` the compile-time vec plan is
    warmed too (the lockstep batch executors then adopt it instead of
    replanning per process/shard).  Returns ``(groups, failures)``:
    ``groups`` maps each fingerprint to its points in first-seen order;
    ``failures`` lists the points whose spec failed to build (left for
    a worker to report with full context).
    """
    from ..core.compile_cache import (design_fingerprint, get_cache,
                                      warm_design)
    from ..core.constructor import build_design
    from .executor import build_point_spec
    warm = get_cache().enabled
    groups: Dict[str, list] = {}
    failures: list = []
    for point in points:
        if isinstance(point, dict):
            run_id, params = point["run_id"], point["params"]
        else:
            run_id, params = point.run_id, point.params
        try:
            spec = build_point_spec(kind, target, lss_text, params, run_id)
            design = build_design(spec)
            fingerprint = (warm_design(design, options)
                           if warm else design_fingerprint(design))
        except Exception:
            failures.append(point)
            continue
        groups.setdefault(fingerprint, []).append(point)
    return groups, failures


class Campaign:
    """A managed family of runs over one sweep.

    Parameters
    ----------
    name:
        Campaign label (reports, checkpoint directory naming).
    sweep:
        The :class:`~repro.campaign.sweep.Sweep` to materialize.
    target:
        Run payload — a callable or ``"pkg.mod:attr"`` path.  Its
        meaning depends on ``kind`` (see
        :mod:`repro.campaign.executor`): ``"fn"`` returns metrics
        directly, ``"spec"`` returns an LSS the campaign simulates,
        ``"lss"`` takes the textual spec in ``lss_text`` instead.
    seed_key:
        For ``kind="fn"``: inject each point's seed into the params
        under this key (``None`` to disable).  Simulator kinds feed the
        seed to the engine instead.
    workers / timeout / retries / backoff:
        Executor envelope; ``workers=0`` selects the serial in-process
        :class:`InlineExecutor` (no kill-based timeout).
    checkpoint_every / checkpoint_dir:
        Simulator kinds snapshot engine state every N cycles, so a
        retried attempt resumes from the last snapshot.
    ledger_path:
        JSONL journal location; default ``<name>.campaign.jsonl``.
    batch / batch_max:
        ``batch=True`` enables the fingerprint-grouped fast path for
        simulator kinds: sweep points whose built designs share a
        structural fingerprint are dispatched as **one** task running a
        lockstep :class:`~repro.core.batched.BatchedSimulator` (at most
        ``batch_max`` lanes per task), amortizing process launch and
        schedule walking across the group.  Per-lane results and ledger
        rows are identical to per-point runs — a batched campaign can
        be resumed un-batched and vice versa.  Points whose specs fail
        to build (or that end up alone in a group) run per-point as
        usual.
    """

    def __init__(self, name: str, sweep: Sweep,
                 target: Union[str, Callable, None] = None, *,
                 kind: str = "fn", lss_text: Optional[str] = None,
                 engine: str = DEFAULT_ENGINE, opt: Optional[int] = None,
                 cycles: int = 1000,
                 seed_key: Optional[str] = "seed",
                 workers: int = 2, timeout: Optional[float] = None,
                 retries: int = 1, backoff: float = 0.25,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_dir: Optional[str] = None,
                 ledger_path: Optional[str] = None,
                 profile: bool = False, profile_sample: int = 4,
                 batch: bool = False, batch_max: int = 16):
        if kind not in ("fn", "spec", "lss"):
            raise CampaignError(
                f"kind must be 'fn', 'spec' or 'lss', got {kind!r}")
        if kind == "lss" and lss_text is None:
            raise CampaignError("kind='lss' requires lss_text")
        if kind != "lss" and target is None:
            raise CampaignError(f"kind={kind!r} requires a target")
        from ..core.backends import get_backend
        from ..core.errors import SpecificationError
        try:
            get_backend(engine)
        except SpecificationError as exc:
            raise CampaignError(str(exc)) from None
        if batch:
            if kind == "fn":
                raise CampaignError(
                    "batch=True requires a simulator kind ('spec' or 'lss')")
            if checkpoint_every is not None:
                raise CampaignError(
                    "batch=True is incompatible with checkpoint_every "
                    "(lockstep lanes do not checkpoint individually)")
            if batch_max < 1:
                raise CampaignError(
                    f"batch_max must be >= 1, got {batch_max}")
        self.batch = batch
        self.batch_max = batch_max
        self.name = name
        self.sweep = sweep
        self.target = target
        self.kind = kind
        self.lss_text = lss_text
        self.engine = engine
        from ..core.opt import resolve_opt_level
        try:
            resolve_opt_level(opt)  # validate eagerly, not per worker
        except SpecificationError as exc:
            raise CampaignError(str(exc)) from None
        self.opt = opt
        self.cycles = cycles
        self.seed_key = seed_key
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        self.profile = profile
        self.profile_sample = profile_sample
        if checkpoint_every is not None and checkpoint_dir is None:
            self.checkpoint_dir = f"{name}.checkpoints"
        self.ledger_path = ledger_path or f"{name}.campaign.jsonl"

    # ------------------------------------------------------------------
    def _task_for(self, point: SweepPoint) -> RunTask:
        params = dict(point.params)
        if self.kind == "fn" and self.seed_key is not None:
            params.setdefault(self.seed_key, point.seed)
        return RunTask(run_id=point.run_id, index=point.index, params=params,
                       seed=point.seed, target=self.target, kind=self.kind,
                       engine=self.engine, opt=self.opt, cycles=self.cycles,
                       lss_text=self.lss_text,
                       checkpoint_dir=self.checkpoint_dir,
                       checkpoint_every=self.checkpoint_every,
                       profile=self.profile,
                       profile_sample=self.profile_sample)

    def _executor(self):
        if self.workers == 0:
            return InlineExecutor(retries=self.retries, backoff=self.backoff)
        return ProcessExecutor(workers=self.workers, timeout=self.timeout,
                               retries=self.retries, backoff=self.backoff)

    def _batch_tasks(self, todo: Sequence[SweepPoint]):
        """Group ``todo`` by design fingerprint into batch tasks.

        Each point's spec is built in the parent, its design
        fingerprinted (which also warms the compile cache for the
        workers), and groups of structurally identical points become
        ``kind="batch"`` tasks of at most ``batch_max`` lanes.
        Singleton groups and points that fail to build fall back to
        ordinary per-point tasks (the worker then reports the build
        failure with full context).
        """
        from ..core.backends import compile_options_for
        groups, singles = fingerprint_groups(
            self.kind, self.target, self.lss_text, todo,
            compile_options_for("batched", opt=self.opt))
        tasks = []
        for fingerprint, members in groups.items():
            for k in range(0, len(members), self.batch_max):
                chunk = members[k:k + self.batch_max]
                if len(chunk) == 1:
                    singles.append(chunk[0])
                    continue
                tasks.append(RunTask(
                    run_id=f"batch:{fingerprint[:10]}:{k // self.batch_max}",
                    index=chunk[0].index, params={}, seed=chunk[0].seed,
                    target=self.target, kind="batch", batch_kind=self.kind,
                    engine=self.engine, opt=self.opt, cycles=self.cycles,
                    lss_text=self.lss_text, profile=self.profile,
                    profile_sample=self.profile_sample,
                    points=[{"run_id": p.run_id, "index": p.index,
                             "params": p.params, "seed": p.seed}
                            for p in chunk]))
        tasks.extend(self._task_for(p) for p in singles)
        return tasks

    def _prewarm(self, todo: Sequence[SweepPoint]) -> int:
        """Compile each distinct topology once before workers fan out.

        Simulator campaigns (``kind`` in ``spec``/``lss``) pay schedule
        construction — and, on the static engine, the stepper compile —
        per worker process otherwise.  Warming the compile cache in the
        parent with what :attr:`engine` executes
        (:func:`~repro.core.backends.compile_options_for`) means forked
        workers find every schedule and stepper code object in the
        inherited in-memory layer (and, with the disk layer on, the
        schedule and stepper source in ``.repro-cache/`` even under
        spawn).  Strictly best-effort: any
        failure here is left for the worker to report with full context.
        Returns the number of distinct fingerprints warmed.
        """
        if (not todo or self.batch or self.workers == 0
                or self.kind not in ("spec", "lss")
                or self.engine == "worklist"):
            return 0  # batch grouping warms the cache itself
        from ..core.backends import compile_options_for
        from ..core.compile_cache import get_cache, warm_spec
        if not get_cache().enabled:
            return 0
        options = compile_options_for(self.engine, opt=self.opt)
        fingerprints: set = set()
        try:
            build = (resolve_target(self.target) if self.kind == "spec"
                     else None)
        except Exception:
            return 0
        for point in todo:
            try:
                if self.kind == "spec":
                    spec = _coerce_spec(build(**point.params))
                else:
                    from .. import library_env, parse_lss
                    spec = parse_lss(self.lss_text, library_env())
                    for dotted, value in point.params.items():
                        inst_name, _, param = dotted.partition(".")
                        if param:
                            spec.get_instance(inst_name).bindings[param] = value
                fingerprints.add(warm_spec(spec, options))
            except Exception:
                continue
        return len(fingerprints)

    # ------------------------------------------------------------------
    def run(self, resume: bool = False,
            progress: Optional[Callable[[str], None]] = None) -> CampaignResult:
        """Execute the campaign (or its remainder) and aggregate results."""
        points = self.sweep.points()
        fingerprint = self.sweep.fingerprint()
        previous: Dict[str, RunOutcome] = {}

        if resume:
            state = Ledger.load(self.ledger_path)
            if state.truncated and progress:
                progress(f"  ledger {self.ledger_path} ends in a torn "
                         f"line (line {state.truncated_line}, crash "
                         f"mid-write); ignoring it and resuming")
            if state.fingerprint != fingerprint:
                raise CampaignError(
                    f"ledger {self.ledger_path!r} records a different "
                    f"campaign (fingerprint {state.fingerprint} != "
                    f"{fingerprint}); refusing to resume")
            for run in state.runs.values():
                if run.status == "done":
                    previous[run.run_id] = RunOutcome(
                        run.run_id, "done", result=run.result,
                        attempts=run.attempts,
                        duration=run.duration or 0.0)
        elif os.path.exists(self.ledger_path):
            existing = Ledger.load(self.ledger_path)
            if existing.runs and existing.fingerprint == fingerprint:
                raise CampaignError(
                    f"ledger {self.ledger_path!r} already holds this "
                    f"campaign ({existing.summary()}); pass resume=True to "
                    f"continue it or remove the file to restart")

        todo = [p for p in points if p.run_id not in previous]
        if progress:
            progress(f"{self.name}: {len(points)} points, "
                     f"{len(previous)} already done, {len(todo)} to run")
        warmed = self._prewarm(todo)
        if progress and warmed:
            progress(f"  compile cache warmed for {warmed} distinct "
                     f"topolog{'y' if warmed == 1 else 'ies'}")

        ledger = Ledger(self.ledger_path).open(append=resume)
        try:
            if not resume:
                ledger.record({"event": "campaign", "name": self.name,
                               "fingerprint": fingerprint,
                               "points": len(points),
                               "meta": {"kind": self.kind,
                                        "engine": self.engine,
                                        "opt": self.opt,
                                        "cycles": self.cycles,
                                        "target": _target_name(self.target),
                                        "workers": self.workers,
                                        "profile": self.profile,
                                        "batch": self.batch}})
                for point in points:
                    ledger.record({"event": "point", "run_id": point.run_id,
                                   "index": point.index,
                                   "params": point.params,
                                   "seed": point.seed})

            if self.batch and todo:
                tasks = self._batch_tasks(todo)
                batch_points = {t.run_id: t.points for t in tasks
                                if t.kind == "batch"}
                if progress and batch_points:
                    grouped = sum(len(p) for p in batch_points.values())
                    progress(f"  batched {grouped} points into "
                             f"{len(batch_points)} lockstep group(s)")
            else:
                tasks = [self._task_for(p) for p in todo]
                batch_points = {}

            def journal(event: Dict[str, Any]) -> None:
                # Batch-group events never hit the ledger raw: they are
                # translated into per-lane events so the journal stays
                # per-point (resumable batched or un-batched alike).
                for sub in _expand_batch_event(event, batch_points):
                    ledger.record(sub)
                    if progress and sub["event"] in ("done", "failed",
                                                     "gave_up"):
                        progress(f"  {sub['run_id']}: {sub['event']}"
                                 + (f" ({sub.get('error')})"
                                    if sub["event"] == "failed" else ""))

            outcomes = (self._executor().run(tasks, callback=journal)
                        if tasks else [])
        finally:
            ledger.close()

        by_id = dict(previous)
        for outcome in outcomes:
            for expanded in _expand_batch_outcome(outcome, batch_points):
                by_id[expanded.run_id] = expanded
        return self._result(points, by_id)

    def _result(self, points: Sequence[SweepPoint],
                by_id: Dict[str, RunOutcome]) -> CampaignResult:
        rows = []
        for point in points:
            outcome = by_id.get(point.run_id)
            if outcome is None:
                rows.append(RunRow(point.run_id, point.index, point.params,
                                   point.seed, "pending"))
            else:
                rows.append(RunRow(point.run_id, point.index, point.params,
                                   point.seed, outcome.status,
                                   result=outcome.result, error=outcome.error,
                                   attempts=outcome.attempts,
                                   duration=outcome.duration))
        return CampaignResult(self.name, rows)

    # ------------------------------------------------------------------
    def report(self) -> CampaignResult:
        """Aggregate from the ledger alone, without executing anything."""
        state = Ledger.load(self.ledger_path)
        return result_from_ledger(self.name, state)


def _expand_batch_event(event: Dict[str, Any],
                        batch_points: Dict[str, list]):
    """Translate a batch-group lifecycle event into per-lane events.

    Non-batch events pass through unchanged (as a one-element list).
    ``done`` events carry the whole group result; each lane's event
    gets its own slice of ``result["lanes"]``, so the ledger rows are
    indistinguishable from per-point runs.
    """
    points = batch_points.get(event.get("run_id"))
    if points is None:
        return [event]
    out = []
    for point in points:
        sub = dict(event, run_id=point["run_id"])
        if event["event"] == "done":
            lanes = (event.get("result") or {}).get("lanes") or {}
            sub["result"] = lanes.get(point["run_id"])
        out.append(sub)
    return out


def _expand_batch_outcome(outcome: RunOutcome,
                          batch_points: Dict[str, list]):
    """Fan a batch-group outcome out into one outcome per lane."""
    points = batch_points.get(outcome.run_id)
    if points is None:
        return [outcome]
    out = []
    for point in points:
        if outcome.status == "done":
            lanes = (outcome.result or {}).get("lanes") or {}
            out.append(RunOutcome(point["run_id"], "done",
                                  result=lanes.get(point["run_id"]),
                                  attempts=outcome.attempts,
                                  duration=outcome.duration))
        else:
            out.append(RunOutcome(point["run_id"], "failed",
                                  error=outcome.error,
                                  attempts=outcome.attempts,
                                  duration=outcome.duration))
    return out


def result_from_ledger(name: str, state: LedgerState) -> CampaignResult:
    """Build a :class:`CampaignResult` purely from a replayed journal."""
    rows = []
    for run in state.runs.values():
        rows.append(RunRow(run.run_id, run.index, run.params, run.seed,
                           "pending" if run.status == "running" else run.status,
                           result=run.result, error=run.error,
                           attempts=run.attempts, duration=run.duration))
    return CampaignResult(name, rows)


def _target_name(target: Union[str, Callable, None]) -> Optional[str]:
    if target is None or isinstance(target, str):
        return target
    mod = getattr(target, "__module__", "?")
    qual = getattr(target, "__qualname__", repr(target))
    return f"{mod}:{qual}"
