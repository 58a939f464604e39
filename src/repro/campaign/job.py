"""One campaign description, shared by both transports.

A local :class:`~repro.campaign.Campaign` (fork per task) and a fabric
job (leases to remote workers) run the same sweep the same way, so the
parts that describe it live here once:

* :class:`JobSpec` — the materialized sweep plus what every point runs
  (kind, target, engine, opt level, cycles, lanes per task, retries)
  and its one validator;
* :func:`cut_task` — the one rule turning a cut of points into a
  :class:`~repro.campaign.executor.RunTask`;
* :func:`open_journal` — the one rule for opening a campaign's ledger.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..core.backends import DEFAULT_ENGINE
from .errors import CampaignError
from .executor import RunTask
from .ledger import Ledger, LedgerState
from .sweep import Sweep

#: A point in wire form: {"run_id", "index", "params", "seed"}.
Point = Dict[str, Any]


@dataclass
class JobSpec:
    """One campaign: its materialized points and what each one runs.

    ``kind`` is ``"spec"`` (builder returning an LSS), ``"lss"`` (textual
    spec + dotted parameter overrides), or ``"fn"`` (arbitrary metric
    callable; points then always run alone).  ``target`` is a callable
    or a ``"pkg.mod:attr"`` dotted path; only a dotted path can be
    serialized (:meth:`to_payload`), since callables cannot cross hosts.
    """

    name: str
    kind: str
    points: List[Point]
    target: Union[str, Callable, None] = None
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
            raise CampaignError(
                f"kind must be 'spec', 'lss' or 'fn', got {self.kind!r}")
        if self.kind == "lss" and not self.lss_text:
            raise CampaignError("kind='lss' requires lss_text")
        if self.kind != "lss" and not (isinstance(self.target, str)
                                       or callable(self.target)):
            raise CampaignError(
                f"kind={self.kind!r} requires a target (a callable or a "
                f"'pkg.mod:attr' dotted path)")
        if not self.points:
            raise CampaignError("job has no sweep points")
        if self.batch_max < 1:
            raise CampaignError(
                f"batch_max must be >= 1, got {self.batch_max}")
        if self.retries < 0:
            raise CampaignError(f"retries must be >= 0, got {self.retries}")
        from ..core.backends import get_backend
        from ..core.errors import SpecificationError
        from ..core.opt import resolve_opt_level
        try:
            get_backend(self.engine)
            resolve_opt_level(self.opt)
        except SpecificationError as exc:
            raise CampaignError(str(exc)) from None
        seen: Set[str] = set()
        for point in self.points:
            rid = point.get("run_id")
            if not rid or rid in seen:
                raise CampaignError(
                    f"job {self.name!r} has a missing or duplicate "
                    f"point id {rid!r}")
            seen.add(rid)
        return self

    def to_payload(self) -> Dict[str, Any]:
        if callable(self.target):
            raise CampaignError(
                f"job {self.name!r} needs a dotted-path target to be "
                f"serialized (callables cannot cross hosts)")
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
            raise CampaignError(f"malformed job payload: {exc}") from None


def job_from_sweep(name: str, sweep: Sweep, *, kind: str = "spec",
                   target: Union[str, Callable, None] = None,
                   lss_text: Optional[str] = None,
                   engine: str = DEFAULT_ENGINE, opt: Optional[int] = None,
                   cycles: int = 1000,
                   seed_key: Optional[str] = "seed", batch_max: int = 16,
                   retries: int = 2,
                   ledger_path: Optional[str] = None) -> JobSpec:
    """Materialize a sweep into a validated job: its points (run ids,
    params, per-point seeds) and its fingerprint."""
    points = [{"run_id": p.run_id, "index": p.index,
               "params": p.params, "seed": p.seed}
              for p in sweep.points()]
    return JobSpec(name=name, kind=kind, points=points, target=target,
                   lss_text=lss_text, engine=engine, opt=opt, cycles=cycles,
                   seed_key=seed_key, batch_max=batch_max, retries=retries,
                   ledger_path=ledger_path,
                   sweep_fingerprint=sweep.fingerprint()).validate()


def cut_task(job: JobSpec, points: Sequence[Point], **envelope) -> RunTask:
    """Turn one cut of ``job``'s points into the task that runs it.

    One point is a task of the job's own kind; an ``fn`` point gets its
    seed injected into its params under ``job.seed_key``.  Two or more
    points are one lockstep ``batch`` task whose id is derived from the
    lanes' run ids, so a batch snapshot is only ever loaded onto the
    same lanes.  ``envelope`` adds the transport's own task fields
    (checkpoints, profiling).
    """
    common = dict(target=job.target, engine=job.engine, opt=job.opt,
                  cycles=job.cycles, lss_text=job.lss_text, **envelope)
    if len(points) == 1:
        point = points[0]
        params = dict(point["params"])
        if job.kind == "fn" and job.seed_key is not None:
            params.setdefault(job.seed_key, point["seed"])
        return RunTask(run_id=point["run_id"], index=point.get("index", -1),
                       params=params, seed=point["seed"], kind=job.kind,
                       **common)
    digest = hashlib.sha1(" ".join(
        p["run_id"] for p in points).encode()).hexdigest()[:16]
    return RunTask(run_id=f"batch-{digest}", index=-1, params={},
                   seed=points[0]["seed"], kind="batch", batch_kind=job.kind,
                   points=list(points), **common)


def open_journal(job: JobSpec, path: str, *, resume: bool,
                 meta: Dict[str, Any], fsync: bool = False,
                 progress: Optional[Callable[[str], None]] = None
                 ) -> Tuple[Ledger, LedgerState]:
    """Open ``job``'s ledger at ``path`` — the one ledger rule.

    An existing ledger is replayed first (a torn final line is
    tolerated).  It is refused if it records a different sweep
    fingerprint, and — unless ``resume`` — if it holds any run.
    Resuming needs a ledger ("no ledger at ..."), and is refused if the
    header's shared keys (:func:`shared_meta`) differ from the job's; a
    key the header lacks is not compared.  The ledger's torn final line,
    if any, is cut off, so the events appended after it stay loadable,
    and its replayed state is returned.  A fresh run (over no ledger, or
    one without runs) writes the header — ``meta`` is added to the
    shared keys — and one record per point, and returns an empty state.
    """
    shared = shared_meta(job)
    state = LedgerState()
    if resume or os.path.exists(path):
        state = Ledger.load(path)
        if resume and state.truncated and progress:
            progress(f"  ledger {path} ends in a torn line (line "
                     f"{state.truncated_line}, crash mid-write); "
                     f"ignoring it and resuming")
        if ((resume or state.runs)
                and state.fingerprint != job.sweep_fingerprint):
            raise CampaignError(
                f"ledger {path!r} records a different campaign "
                f"(fingerprint {state.fingerprint} != "
                f"{job.sweep_fingerprint}); refusing")
        for key, value in shared.items() if resume else ():
            if state.meta.get(key, value) != value:
                raise CampaignError(
                    f"ledger {path!r} was run with {key}="
                    f"{state.meta[key]!r}, not {value!r}; refusing to "
                    f"resume it")
        if state.runs and not resume:
            raise CampaignError(
                f"ledger {path!r} already holds this campaign "
                f"({state.summary()}); resume it to continue, or remove "
                f"the file to restart")
    if resume and state.truncated:
        with open(path, "rb+") as handle:
            data = handle.read().rstrip(b"\n")
            handle.truncate(data.rfind(b"\n") + 1)
    ledger = Ledger(path, fsync=fsync).open(append=resume)
    if resume:
        return ledger, state
    ledger.record({"event": "campaign", "name": job.name,
                   "fingerprint": job.sweep_fingerprint,
                   "points": len(job.points),
                   "meta": {**shared, **meta}})
    for point in job.points:
        ledger.record({"event": "point", "run_id": point["run_id"],
                       "index": point.get("index", -1),
                       "params": point["params"], "seed": point["seed"]})
    return ledger, LedgerState()


def shared_meta(job: JobSpec) -> Dict[str, Any]:
    """The header keys every transport writes and a resume must match:
    kind, engine, opt, cycles, target, and ``spec`` (the sha256 of
    ``lss_text``) when the job has one."""
    meta = {"kind": job.kind, "engine": job.engine, "opt": job.opt,
            "cycles": job.cycles, "target": _target_name(job.target)}
    if job.lss_text is not None:
        meta["spec"] = hashlib.sha256(job.lss_text.encode()).hexdigest()
    return meta


def _target_name(target: Union[str, Callable, None]) -> Optional[str]:
    if target is None or isinstance(target, str):
        return target
    mod = getattr(target, "__module__", "?")
    qual = getattr(target, "__qualname__", repr(target))
    return f"{mod}:{qual}"
