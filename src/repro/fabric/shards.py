"""Jobs and shards: the unit of work the fabric dispatches.

A *job* is one whole campaign in wire form — the materialized sweep
points (run ids, params, seeds), the spec source (builder path or LSS
text), and the execution envelope.  The coordinator *plans* a job into
*shards*: groups of structurally identical points (same design
fingerprint, the ``Campaign(batch=True)`` grouping, shared via
:func:`repro.campaign.fingerprint_groups`) that one worker executes as
a single task on the lockstep ``batched`` engine (the routing lives in
the campaign executor's batch task path, so fabric shards and local
``Campaign(batch=True)`` runs always agree).
Points whose spec fails to build in the planner become singleton
*serial* shards, so a poisoned point never sinks its group and the
worker reports the build failure with full context.

Shards are JSON-able end to end: they ride the wire protocol to a
worker, which executes them through the campaign executor's task
machinery (:func:`execute_shard`), so per-lane results are shaped —
and valued — exactly like a local ``Campaign(batch=True)`` run's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..campaign.campaign import fingerprint_groups
from ..campaign.executor import RunTask, execute_task
from ..core.backends import DEFAULT_ENGINE
from .protocol import FabricError

#: A point in wire form: {"run_id", "index", "params", "seed"}.
Point = Dict[str, Any]


@dataclass
class JobSpec:
    """One submitted campaign, in wire form.

    ``kind`` is ``"spec"`` (dotted-path builder), ``"lss"`` (textual
    spec + dotted parameter overrides), or ``"fn"`` (arbitrary metric
    callable; points then run serially, never lockstep).  ``target``
    must be a dotted path — callables cannot cross hosts.
    """

    name: str
    kind: str
    points: List[Point]
    target: Optional[str] = None
    lss_text: Optional[str] = None
    engine: str = DEFAULT_ENGINE
    opt: Optional[int] = None
    cycles: int = 1000
    seed_key: Optional[str] = "seed"
    batch_max: int = 16
    retries: int = 2
    ledger_path: Optional[str] = None
    sweep_fingerprint: Optional[str] = None

    def validate(self) -> "JobSpec":
        if self.kind not in ("spec", "lss", "fn"):
            raise FabricError(
                f"job kind must be 'spec', 'lss' or 'fn', got {self.kind!r}")
        if self.kind == "lss" and not self.lss_text:
            raise FabricError("kind='lss' job requires lss_text")
        if self.kind != "lss" and not isinstance(self.target, str):
            raise FabricError(
                f"kind={self.kind!r} job requires a dotted-path target "
                f"(callables cannot cross hosts)")
        if not self.points:
            raise FabricError("job has no sweep points")
        if self.batch_max < 1:
            raise FabricError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.retries < 0:
            raise FabricError(f"retries must be >= 0, got {self.retries}")
        if self.opt is not None:
            from ..core.errors import SpecificationError
            from ..core.opt import resolve_opt_level
            try:
                resolve_opt_level(self.opt)
            except SpecificationError as exc:
                raise FabricError(str(exc)) from None
        seen: Set[str] = set()
        for point in self.points:
            rid = point.get("run_id")
            if not rid or rid in seen:
                raise FabricError(
                    f"job {self.name!r} has a missing or duplicate "
                    f"point id {rid!r}")
            seen.add(rid)
        return self

    def to_payload(self) -> Dict[str, Any]:
        return {"name": self.name, "kind": self.kind, "points": self.points,
                "target": self.target, "lss_text": self.lss_text,
                "engine": self.engine, "opt": self.opt,
                "cycles": self.cycles,
                "seed_key": self.seed_key, "batch_max": self.batch_max,
                "retries": self.retries, "ledger_path": self.ledger_path,
                "sweep_fingerprint": self.sweep_fingerprint}

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobSpec":
        try:
            return cls(
                name=payload["name"], kind=payload["kind"],
                points=list(payload["points"]),
                target=payload.get("target"),
                lss_text=payload.get("lss_text"),
                engine=payload.get("engine", DEFAULT_ENGINE),
                opt=(None if payload.get("opt") is None
                     else int(payload["opt"])),
                cycles=int(payload.get("cycles", 1000)),
                seed_key=payload.get("seed_key", "seed"),
                batch_max=int(payload.get("batch_max", 16)),
                retries=int(payload.get("retries", 2)),
                ledger_path=payload.get("ledger_path"),
                sweep_fingerprint=payload.get("sweep_fingerprint"),
            ).validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise FabricError(f"malformed job payload: {exc}") from None


@dataclass
class Shard:
    """One dispatchable unit: a lockstep batch or a serial point list.

    ``mode="batch"`` runs every point in one lockstep batched
    simulator (all points share ``fingerprint``); ``mode="serial"``
    runs the points one by one through ordinary per-point tasks (fn
    jobs, unbuildable points, retried singles).  ``attempts`` counts
    dispatches — the coordinator's bounded-retry state.
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
    """Shard a job's outstanding points by structural fingerprint.

    ``skip_ids`` holds the points a resumed ledger already completed.
    Simulator jobs group by design fingerprint (warming the planner's
    compile cache, which is what makes the groups exportable as
    artifacts) and chunk each group to at most ``job.batch_max``
    lockstep lanes; ``fn`` jobs chunk into serial shards without any
    structural analysis.
    """
    skip = set(skip_ids)
    todo = [p for p in job.points if p["run_id"] not in skip]
    plan = ShardPlan()
    serial = 0

    def add(mode: str, points: List[Point],
            fingerprint: Optional[str] = None) -> None:
        nonlocal serial
        if fingerprint:
            index = sum(1 for s in plan.shards
                        if s.fingerprint == fingerprint)
            shard_id = f"{job_id}/s-{fingerprint[:10]}-{index}"
        else:
            shard_id = f"{job_id}/serial-{serial}"
            serial += 1
        plan.shards.append(Shard(shard_id, job_id, mode, points,
                                 fingerprint=fingerprint))

    if not todo:
        return plan
    if job.kind == "fn":
        for k in range(0, len(todo), job.batch_max):
            add("serial", todo[k:k + job.batch_max])
        return plan

    from ..core.backends import compile_options_for
    from .artifacts import composite_artifact_keys
    options = compile_options_for("batched", opt=job.opt)
    groups, failures = fingerprint_groups(
        job.kind, job.target, job.lss_text, todo, options)
    for fingerprint, members in groups.items():
        # Base + optimized + vec-planned artifacts: the planner just
        # warmed all three, and the coordinator exports the full set so
        # workers adopt the shipped vec plan instead of replanning.
        plan.fingerprints.extend(
            composite_artifact_keys(fingerprint, options.opt_level,
                                    vec=True))
        for k in range(0, len(members), job.batch_max):
            add("batch", members[k:k + job.batch_max], fingerprint)
    for point in failures:
        add("serial", [point])
    return plan


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def _single_task(job: JobSpec, point: Point) -> RunTask:
    params = dict(point["params"])
    if job.kind == "fn" and job.seed_key is not None:
        params.setdefault(job.seed_key, point["seed"])
    return RunTask(run_id=point["run_id"], index=point.get("index", -1),
                   params=params, seed=point["seed"], target=job.target,
                   kind=job.kind, engine=job.engine, opt=job.opt,
                   cycles=job.cycles, lss_text=job.lss_text)


def execute_shard(shard: Shard, job: JobSpec) -> Dict[str, Dict[str, Any]]:
    """Run one shard to completion in the current process.

    Returns per-point lane payloads keyed by run id, each
    ``{"ok": True, "result": ...}`` or ``{"ok": False, "error": ...}``.
    A ``batch`` shard that fails raises (the whole lockstep group is a
    single fate-shared execution — the coordinator's retry envelope
    handles it); within a ``serial`` shard each point fails alone.
    """
    if shard.mode == "batch":
        task = RunTask(run_id=shard.shard_id, index=-1, params={},
                       seed=shard.points[0]["seed"], target=job.target,
                       kind="batch", batch_kind=job.kind, engine=job.engine,
                       opt=job.opt, cycles=job.cycles, lss_text=job.lss_text,
                       points=shard.points)
        lanes = execute_task(task).get("lanes") or {}
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
                result = execute_task(_single_task(job, point))
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
