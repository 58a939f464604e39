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

import hashlib
import os
from dataclasses import replace
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..core.backends import DEFAULT_ENGINE
from .aggregate import CampaignResult, RunRow
from .errors import CampaignError
from .executor import (InlineExecutor, ProcessExecutor, RunOutcome, RunTask,
                       build_point_spec)
from .ledger import Ledger, LedgerState
from .sweep import Sweep, SweepPoint


def fingerprint_groups(kind: str, target, lss_text: Optional[str],
                       points: Sequence[Any]):
    """Group sweep points by the structural fingerprint of their design.

    Each point's spec is built here and its design fingerprinted.
    ``points`` may be :class:`~repro.campaign.sweep.SweepPoint` objects
    or plain mappings with ``"run_id"``/``"params"`` keys (the fabric's
    wire form).  Returns ``(groups, failures)``: ``groups`` maps each
    fingerprint to ``(design, members)`` — the first member's built
    design (what cache warming compiles) and the points in first-seen
    order; ``failures`` lists the points whose spec failed to build
    (left for a worker to report with full context).
    """
    from ..core.compile_cache import design_fingerprint
    from ..core.constructor import build_design
    groups: Dict[str, tuple] = {}
    failures: list = []
    for point in points:
        if isinstance(point, dict):
            run_id, params = point["run_id"], point["params"]
        else:
            run_id, params = point.run_id, point.params
        try:
            design = build_design(
                build_point_spec(kind, target, lss_text, params, run_id))
            fingerprint = design_fingerprint(design)
        except Exception:
            failures.append(point)
            continue
        groups.setdefault(fingerprint, (design, []))[1].append(point)
    return groups, failures


#: The engines whose points may run as lanes of one lockstep batch: a
#: batch lane is a static-engine simulator, bit-identical to a solo run
#: on either.  The worklist interpreter is the reference the others are
#: checked against, so its points always run alone.
LOCKSTEP_ENGINES = ("levelized", "batched")


def cut_sweep(kind: str, target, lss_text: Optional[str],
              points: Sequence[Any], *, engine: str, opt: Optional[int],
              batch_max: int) -> List[Tuple[Optional[str], list]]:
    """Cut sweep points into units of work — the one rule local
    campaigns and fabric shard planning share.

    Returns ``(fingerprint, members)`` cuts.  Simulator points of a
    :data:`LOCKSTEP_ENGINES` engine are grouped by design fingerprint
    (:func:`fingerprint_groups`) and each group is chunked to at most
    ``batch_max`` members; a chunk of two or more is one lockstep
    batch.  Every other cut holds a single point: a chunk of one, a
    point whose spec failed to build (``fingerprint`` None), and every
    ``fn`` point or run of another engine (``fingerprint`` None: nothing
    is built for them).  ``batch_max=1`` therefore cuts one task per
    point.

    With the compile cache enabled, each group is warmed with what its
    cuts execute (:func:`~repro.core.backends.compile_options_for`): the
    vec-planned artifact for batches, ``engine``'s own artifacts (the
    static stepper, on ``levelized``) for single points.  Forked workers
    inherit the in-memory layer, and the fabric coordinator exports the
    warmed entries as artifacts.
    """
    from ..core.backends import compile_options_for, get_backend
    if kind == "fn" or get_backend(engine).name not in LOCKSTEP_ENGINES:
        return [(None, [point]) for point in points]
    from ..core.compile_cache import warm_design
    groups, failures = fingerprint_groups(kind, target, lss_text, points)
    cuts: List[Tuple[Optional[str], list]] = []
    for fingerprint, (design, members) in groups.items():
        chunks = [members[k:k + batch_max]
                  for k in range(0, len(members), batch_max)]
        for name in {"batched" if len(chunk) > 1 else engine
                     for chunk in chunks}:
            try:
                warm_design(design, compile_options_for(name, opt=opt))
            except Exception:
                pass  # best-effort: the task compiles again and reports
        cuts.extend((fingerprint, chunk) for chunk in chunks)
    cuts.extend((None, [point]) for point in failures)
    return cuts


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
    batch_max:
        The most lanes one task runs.  Simulator points on the
        ``levelized`` or ``batched`` engine whose built designs share a
        structural fingerprint are dispatched as **one** task running a
        lockstep :class:`~repro.core.batched.BatchedSimulator`,
        amortizing process launch and schedule walking across the group
        (:func:`cut_sweep` is the cutting rule, shared with the fabric).
        Chunks of one, points whose specs fail to build, ``fn`` points
        and ``worklist`` runs are single-point tasks; ``batch_max=1``
        makes every point its own task.  Per-lane results and ledger
        rows are identical either way, so a campaign can be resumed
        under another ``batch_max``.  ``timeout`` stays a per-point
        budget: a batch attempt may run ``timeout`` × lanes.  A batch is
        one execution: a lane raising at run time fails the attempt for
        every lane (retried as a whole), while a build failure stays
        with its own point.
    batch:
        Accepted only as ``True`` (the default), which changes nothing;
        ``batch=False`` raises, pointing at ``batch_max=1``.
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
                 batch: bool = True, batch_max: int = 16):
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
        # ``batch`` survives only because perf/workloads.py passes
        # ``batch=True``; ROADMAP item 1(b)'s perf/ change deletes it.
        if not batch:
            raise CampaignError(
                "batch=False is gone: every campaign groups by fingerprint; "
                "pass batch_max=1 to run one point per task")
        if batch_max < 1:
            raise CampaignError(f"batch_max must be >= 1, got {batch_max}")
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

    def _tasks(self, todo: Sequence[SweepPoint]):
        """Cut ``todo`` (:func:`cut_sweep`) into executor tasks.

        Returns ``(tasks, batch_points)``; ``batch_points`` maps each
        batch task's id to its lanes.  The id is derived from the lanes'
        run ids, so a batch checkpoint is only ever loaded onto the same
        lanes — a resumed campaign with some points done cuts new ids.
        """
        tasks, batch_points = [], {}
        for _, members in cut_sweep(self.kind, self.target, self.lss_text,
                                    todo, engine=self.engine, opt=self.opt,
                                    batch_max=self.batch_max):
            task = self._task_for(members[0])
            if len(members) > 1:
                lanes = [{"run_id": p.run_id, "index": p.index,
                          "params": p.params, "seed": p.seed}
                         for p in members]
                digest = hashlib.sha1(" ".join(
                    p.run_id for p in members).encode()).hexdigest()[:16]
                task = replace(task, run_id=f"batch-{digest}", params={},
                               kind="batch", batch_kind=self.kind,
                               points=lanes)
                batch_points[task.run_id] = lanes
            tasks.append(task)
        return tasks, batch_points

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
                                        "profile": self.profile}})
                for point in points:
                    ledger.record({"event": "point", "run_id": point.run_id,
                                   "index": point.index,
                                   "params": point.params,
                                   "seed": point.seed})

            tasks, batch_points = self._tasks(todo)
            if progress and batch_points:
                grouped = sum(len(p) for p in batch_points.values())
                progress(f"  batched {grouped} points into "
                         f"{len(batch_points)} lockstep group(s)")

            def journal(event: Dict[str, Any]) -> None:
                # Batch-group events never hit the ledger raw: they are
                # translated into per-lane events so the journal stays
                # per-point (resumable under any batch_max).
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
    lanes = (outcome.result or {}).get("lanes") or {}
    return [replace(outcome, run_id=point["run_id"],
                    result=lanes.get(point["run_id"])) for point in points]


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
