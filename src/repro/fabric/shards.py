"""Shards: the unit of work the fabric dispatches.

A *job* is one whole campaign in wire form: a
:class:`~repro.campaign.job.JobSpec`, the description a local
:class:`~repro.campaign.Campaign` holds too (re-exported here).  The
coordinator *plans* a job into *shards* with the cutting rule a local
campaign uses (:func:`repro.campaign.cut_sweep`): a cut of structurally
identical points (same design fingerprint, at most ``batch_max``)
becomes one ``batch`` shard, executed by one worker as a single
lockstep task.  A chunk of one becomes a *serial* shard that still
names its fingerprint, so the worker is shipped its compiled artifacts;
points that were not built — ``fn`` jobs, ``worklist`` runs, specs that
fail to build in the planner — are packed into serial shards of at most
``batch_max`` points, where each point runs (and fails) alone.

Shards are JSON-able end to end: they ride the wire protocol to a
worker, which turns them into tasks with the campaign's one task
builder (:func:`~repro.campaign.job.cut_task`) and runs them through
the campaign executor (:func:`execute_shard`), so per-lane results are
shaped — and valued — exactly like a local campaign's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..campaign.campaign import cut_sweep
from ..campaign.executor import execute_task
from ..campaign.job import JobSpec, Point, cut_task  # noqa: F401
from .protocol import FabricError


@dataclass
class Shard:
    """One dispatchable unit: a lockstep batch or a serial point list.

    ``mode="batch"`` runs every point in one lockstep batched
    simulator (all points share ``fingerprint``); ``mode="serial"``
    runs the points one by one through ordinary per-point tasks
    (chunks of one, points not built for a batch, retried points).
    ``attempts`` counts dispatches — the coordinator's bounded-retry
    state.
    """

    shard_id: str
    job_id: str
    mode: str                       # batch | serial
    points: List[Point]
    fingerprint: Optional[str] = None
    attempts: int = 0

    def point_ids(self) -> List[str]:
        return [p["run_id"] for p in self.points]

    def to_payload(self) -> Dict[str, Any]:
        return {"shard_id": self.shard_id, "job_id": self.job_id,
                "mode": self.mode, "points": self.points,
                "fingerprint": self.fingerprint, "attempts": self.attempts}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Shard":
        try:
            return cls(shard_id=payload["shard_id"],
                       job_id=payload["job_id"], mode=payload["mode"],
                       points=list(payload["points"]),
                       fingerprint=payload.get("fingerprint"),
                       attempts=int(payload.get("attempts", 0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed shard payload: {exc}") from None


@dataclass
class ShardPlan:
    """What planning a job yields: shards + the artifacts they need."""

    shards: List[Shard] = field(default_factory=list)
    #: Fingerprints whose compiled models the planner warmed (and the
    #: coordinator can therefore serve to workers as artifacts).
    fingerprints: List[str] = field(default_factory=list)


def plan_shards(job: JobSpec, job_id: str,
                skip_ids: Sequence[str] = ()) -> ShardPlan:
    """Shard a job's outstanding points by the campaign's cutting rule
    (:func:`repro.campaign.cut_sweep`).

    ``skip_ids`` holds the points a resumed ledger already completed.
    Every fingerprinted cut becomes one shard — ``batch`` for two or
    more lanes, ``serial`` for one — and lists the artifact keys the
    planner warmed for it (what the coordinator can serve to workers);
    the points cut without a fingerprint are packed into serial shards
    of at most ``job.batch_max``.
    """
    skip = set(skip_ids)
    todo = [p for p in job.points if p["run_id"] not in skip]
    plan = ShardPlan()
    if not todo:
        return plan
    from ..core.opt import resolve_opt_level
    from .artifacts import composite_artifact_keys
    level = resolve_opt_level(job.opt)
    loose: List[Point] = []
    for fingerprint, points in cut_sweep(
            job.kind, job.target, job.lss_text, todo, engine=job.engine,
            opt=job.opt, batch_max=job.batch_max):
        if fingerprint is None:
            loose.extend(points)
            continue
        batch = len(points) > 1
        index = sum(1 for s in plan.shards if s.fingerprint == fingerprint)
        plan.shards.append(Shard(
            f"{job_id}/s-{fingerprint[:10]}-{index}", job_id,
            "batch" if batch else "serial", points, fingerprint=fingerprint))
        for key in composite_artifact_keys(fingerprint, level, vec=batch):
            if key not in plan.fingerprints:
                plan.fingerprints.append(key)
    for k in range(0, len(loose), job.batch_max):
        plan.shards.append(Shard(f"{job_id}/serial-{k // job.batch_max}",
                                 job_id, "serial",
                                 loose[k:k + job.batch_max]))
    return plan


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def execute_shard(shard: Shard, job: JobSpec) -> Dict[str, Dict[str, Any]]:
    """Run one shard to completion in the current process.

    Returns per-point lane payloads keyed by run id, each
    ``{"ok": True, "result": ...}`` or ``{"ok": False, "error": ...}``.
    A ``batch`` shard that fails raises (the whole lockstep group is a
    single fate-shared execution — the coordinator's retry envelope
    handles it); within a ``serial`` shard each point fails alone.
    """
    if shard.mode == "batch":
        lanes = execute_task(cut_task(job, shard.points)).get("lanes") or {}
        out: Dict[str, Dict[str, Any]] = {}
        for point in shard.points:
            rid = point["run_id"]
            if rid in lanes:
                out[rid] = {"ok": True, "result": lanes[rid]}
            else:
                out[rid] = {"ok": False,
                            "error": f"batch result missing lane {rid!r}"}
        return out
    if shard.mode == "serial":
        out = {}
        for point in shard.points:
            try:
                result = execute_task(cut_task(job, [point]))
            except Exception as exc:
                out[point["run_id"]] = {
                    "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            else:
                out[point["run_id"]] = {"ok": True, "result": result}
        return out
    raise FabricError(f"unknown shard mode {shard.mode!r}")


def shard_fingerprints(shard: Shard,
                       job: Optional[JobSpec] = None) -> Tuple[str, ...]:
    """The artifact keys a worker needs before executing ``shard``.

    With ``job`` the composite staged keys are included — the optimized
    IR for the job's opt level and, for batch shards, the vec-planned
    artifact — so a worker installs the whole staged set and executes
    the shipped plan with zero local pass runs and zero plan builds.
    """
    if not shard.fingerprint:
        return ()
    if job is None:
        return (shard.fingerprint,)
    from ..core.opt import resolve_opt_level
    from .artifacts import composite_artifact_keys
    return composite_artifact_keys(shard.fingerprint,
                                   resolve_opt_level(job.opt),
                                   vec=shard.mode == "batch")
