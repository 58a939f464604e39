"""The campaign orchestrator: sweep → executor → ledger → aggregate.

A :class:`Campaign` is the local transport of a campaign: it holds the
sweep as a :class:`~repro.campaign.job.JobSpec` — the description a
fabric job ships — cuts it with :func:`cut_sweep` and
:func:`~repro.campaign.job.cut_task`, runs every task in its own forked
process (:class:`~repro.campaign.executor.ProcessExecutor`: kill-based
timeout, retry with backoff), and journals each lifecycle event to the
JSONL ledger opened by :func:`~repro.campaign.job.open_journal`.  The
fabric calls the same three, so both transports validate, cut and
journal a sweep alike.  Interrupt a campaign — Ctrl-C, SIGKILL, power
loss — and ``run(resume=True)`` (or ``python -m repro campaign
--resume``) replays the ledger, verifies the sweep fingerprint, and
executes only the points without a recorded ``done`` event; completed
points are fed into the final table from the journal, not re-run.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..core.backends import DEFAULT_ENGINE
from .aggregate import CampaignResult, RunRow
from .checkpoint import clear as clear_checkpoint
from .errors import CampaignError
from .executor import (InlineExecutor, ProcessExecutor, RunOutcome, RunTask,
                       build_point_spec)
from .job import Point, cut_task, job_from_sweep, open_journal
from .ledger import Ledger, LedgerState
from .sweep import Sweep


def fingerprint_groups(kind: str, target, lss_text: Optional[str],
                       points: Sequence[Any]):
    """Group sweep points by the structural fingerprint of their design.

    Each point's spec is built here and its design fingerprinted.
    ``points`` may be :class:`~repro.campaign.sweep.SweepPoint` objects
    or plain mappings with ``"run_id"``/``"params"`` keys (the wire form
    a :class:`~repro.campaign.job.JobSpec` holds).  Returns ``(groups, failures)``: ``groups`` maps each
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
    """A managed family of runs over one sweep, each task in its own
    forked worker process.

    The sweep and what each point runs are one
    :class:`~repro.campaign.job.JobSpec` (``self.job``), validated by
    :meth:`~repro.campaign.job.JobSpec.validate` — the description a
    fabric job ships — and cut into tasks by :func:`cut_sweep` and
    :func:`~repro.campaign.job.cut_task`, as the fabric cuts shards.

    The ledger rule (:func:`~repro.campaign.job.open_journal`, shared
    with the fabric coordinator): a fresh run refuses a ledger that
    holds runs, of this sweep or any other; ``run(resume=True)`` needs
    a ledger of this very sweep (same fingerprint) and runs only the
    points without a recorded ``done`` event.

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
        retried attempt resumes from the last snapshot.  A resumed run
        removes the snapshots of earlier tasks its cut does not reuse.
    ledger_path:
        JSONL journal location; default ``<name>.campaign.jsonl``.
    batch_max:
        The most lanes one task runs.  Simulator points on the
        ``levelized`` or ``batched`` engine whose built designs share a
        structural fingerprint are dispatched as **one** task running a
        lockstep :class:`~repro.core.batched.BatchedSimulator`,
        amortizing process launch and schedule walking across the group.
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
        # ``batch`` survives only because perf/workloads.py passes
        # ``batch=True``; ROADMAP item 1(b)'s perf/ change deletes it.
        if not batch:
            raise CampaignError(
                "batch=False is gone: every campaign groups by fingerprint; "
                "pass batch_max=1 to run one point per task")
        self.name = name
        self.sweep = sweep
        self.ledger_path = ledger_path or f"{name}.campaign.jsonl"
        self.job = job_from_sweep(
            name, sweep, kind=kind, target=target, lss_text=lss_text,
            engine=engine, opt=opt, cycles=cycles, seed_key=seed_key,
            batch_max=batch_max, retries=retries,
            ledger_path=self.ledger_path)
        self.workers = workers
        self.timeout = timeout
        self.backoff = backoff
        self.checkpoint_every = checkpoint_every
        self.checkpoint_dir = checkpoint_dir
        if checkpoint_every is not None and checkpoint_dir is None:
            self.checkpoint_dir = f"{name}.checkpoints"
        self.profile = profile
        self.profile_sample = profile_sample

    # ------------------------------------------------------------------
    def _executor(self):
        if self.workers == 0:
            return InlineExecutor(retries=self.job.retries,
                                  backoff=self.backoff)
        return ProcessExecutor(workers=self.workers, timeout=self.timeout,
                               retries=self.job.retries, backoff=self.backoff)

    def _tasks(self, todo: Sequence[Point]) -> List[RunTask]:
        """Cut ``todo`` (:func:`cut_sweep`) into executor tasks."""
        job = self.job
        return [cut_task(job, members, checkpoint_dir=self.checkpoint_dir,
                         checkpoint_every=self.checkpoint_every,
                         profile=self.profile,
                         profile_sample=self.profile_sample)
                for _, members in cut_sweep(
                    job.kind, job.target, job.lss_text, todo,
                    engine=job.engine, opt=job.opt,
                    batch_max=job.batch_max)]

    # ------------------------------------------------------------------
    def run(self, resume: bool = False,
            progress: Optional[Callable[[str], None]] = None) -> CampaignResult:
        """Execute the campaign (or its remainder) and aggregate results."""
        points = self.job.points
        ledger, state = open_journal(
            self.job, self.ledger_path, resume=resume,
            meta={"workers": self.workers, "profile": self.profile},
            progress=progress)
        previous: Dict[str, RunOutcome] = {
            run.run_id: RunOutcome(run.run_id, "done", result=run.result,
                                   attempts=run.attempts,
                                   duration=run.duration or 0.0)
            for run in state.runs.values() if run.status == "done"}
        todo = [p for p in points if p["run_id"] not in previous]
        if progress:
            progress(f"{self.name}: {len(points)} points, "
                     f"{len(previous)} already done, {len(todo)} to run")
        try:
            tasks = self._tasks(todo)
            batch_points = {task.run_id: task.points for task in tasks
                            if task.kind == "batch"}
            if self.checkpoint_dir is not None:
                # Snapshots of interrupted tasks this cut does not reuse
                # could never be loaded again.
                for task_id in ({run.task for run in state.runs.values()}
                                - {task.run_id for task in tasks} - {None}):
                    clear_checkpoint(os.path.join(self.checkpoint_dir,
                                                  f"{task_id}.ckpt"))
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

    def _result(self, points: Sequence[Point],
                by_id: Dict[str, RunOutcome]) -> CampaignResult:
        rows = []
        for point in points:
            row = RunRow(point["run_id"], point["index"], point["params"],
                         point["seed"], "pending")
            outcome = by_id.get(row.run_id)
            if outcome is not None:
                row = replace(row, status=outcome.status,
                              result=outcome.result, error=outcome.error,
                              attempts=outcome.attempts,
                              duration=outcome.duration)
            rows.append(row)
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
        if event["event"] == "start":
            sub["task"] = event["run_id"]  # where a resume finds snapshots
        elif event["event"] == "done":
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
