"""The fabric coordinator: an asyncio job-submission and lease service.

One coordinator process owns the campaign state the fabric
distributes: submitted jobs, the shard queue, worker leases, the
artifact store, and every job's durable JSONL ledger.  Workers and
clients speak the same length-prefixed JSON protocol
(:mod:`repro.fabric.protocol`); the coordinator is single-threaded
(one asyncio loop), so message handling needs no locking — every state
transition happens between two protocol frames.

The coordinator/worker contract, made explicit:

* **Long polls.**  A lease request that carries ``wait`` (seconds)
  and finds the queue empty is parked, not answered: the first shard
  queued afterwards — a submission, a retry, an expiry requeue — is
  granted to it at once, and ``idle`` comes back only after ``wait``
  seconds without work.  Shutdown answers every parked request with
  ``idle, draining``.  A request without ``wait`` is answered at once.
* **Leases.**  A shard is dispatched to exactly one worker at a time
  under a *lease* with a deadline.  Workers renew by heartbeat; a
  lease whose deadline passes is *expired* — the coordinator assumes
  the worker died mid-shard and requeues the shard, where the next
  idle worker steals it.  Dispatches are bounded: a shard expired or
  failed more than ``job.retries`` times is recorded as failed and the
  job continues without it.
* **Merging.**  Completions merge per *point*, first-writer-wins: a
  worker that survived its own expiry (a network partition, a slow
  host) may complete a shard that was already re-dispatched, and both
  completions are accepted — but each point's result is journaled
  exactly once, and later duplicates are counted and dropped.  The
  ledger therefore converges to one ``done`` row per point no matter
  how leases interleave.
* **Ledgers.**  A submission opens its job's ledger with the campaign's
  one rule (:func:`repro.campaign.open_journal`), so a fabric job and a
  local :class:`~repro.campaign.Campaign` refuse and resume the same
  ledgers: a different sweep is refused, an existing ledger needs
  ``resume``, and a resume needs a ledger.
* **Artifacts.**  Planning a job compiles each distinct structure once
  (the campaign's fingerprint cut, :func:`repro.campaign.cut_sweep`)
  and exports the compiled models as content-addressed blobs; workers
  fetch them by fingerprint and verify the byte digest before
  installing, so a corrupt or stale transfer degrades to a local
  recompile.

Observability rides the :class:`~repro.obs.metrics.MetricsRegistry`:
queue depth and active leases (gauges), lease churn — granted, renewed,
expired — completions, duplicates and artifact transfers (counters),
and shard latency (timer).  ``status`` replies include a snapshot.
"""

from __future__ import annotations

import asyncio
import itertools
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from collections import deque

from ..campaign.errors import CampaignError
from ..campaign.job import JobSpec, open_journal
from ..campaign.ledger import Ledger
from ..obs.metrics import MetricsRegistry
from .artifacts import export_artifact
from .protocol import FabricError, read_message, send_message
from .shards import Shard, plan_shards, shard_fingerprints

_log = logging.getLogger(__name__)


@dataclass
class Lease:
    """One shard, checked out to one worker, until a deadline."""

    lease_id: str
    shard: Shard
    worker: str
    granted: float                    # monotonic
    deadline: float                   # monotonic

    def describe(self) -> Dict[str, Any]:
        return {"lease_id": self.lease_id, "shard_id": self.shard.shard_id,
                "job_id": self.shard.job_id, "worker": self.worker}


@dataclass
class JobState:
    """Everything the coordinator tracks for one submitted job."""

    job_id: str
    spec: JobSpec
    ledger: Ledger
    #: Outstanding shards by id (leased or queued).
    shards: Dict[str, Shard] = field(default_factory=dict)
    #: First-writer-wins per-point results (includes resumed points).
    results: Dict[str, Any] = field(default_factory=dict)
    #: Terminally failed points and their last error.
    failed: Dict[str, str] = field(default_factory=dict)
    #: Per-point dispatch/failure counts (retry budget accounting).
    attempts: Dict[str, int] = field(default_factory=dict)
    resumed: int = 0

    def total(self) -> int:
        return len(self.spec.points)

    def settled(self, run_id: str) -> bool:
        return run_id in self.results or run_id in self.failed

    def done(self) -> bool:
        return len(self.results) + len(self.failed) >= self.total()

    def describe(self) -> Dict[str, Any]:
        return {"job_id": self.job_id, "name": self.spec.name,
                "points": self.total(), "done": len(self.results),
                "failed": len(self.failed),
                "pending": self.total() - len(self.results)
                - len(self.failed),
                "outstanding_shards": len(self.shards),
                "resumed": self.resumed,
                "ledger_path": self.ledger.path,
                "state": "done" if self.done() else "running"}


class Coordinator:
    """The fabric's single point of coordination (one asyncio loop)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 lease_timeout: float = 10.0,
                 metrics: Optional[MetricsRegistry] = None,
                 ledger_dir: Optional[str] = None,
                 ledger_fsync: bool = False):
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.ledger_dir = ledger_dir
        self.ledger_fsync = ledger_fsync
        self.jobs: Dict[str, JobState] = {}
        self.queue: Deque[Shard] = deque()
        self.leases: Dict[str, Lease] = {}
        self.artifacts: Dict[str, Dict[str, Any]] = {}
        self._ids = itertools.count(1)
        #: Parked long-poll lease requests: (future, request), oldest first.
        self._parked: Deque[Tuple[asyncio.Future, Dict[str, Any]]] = deque()
        self._server: Optional[asyncio.AbstractServer] = None
        self._expiry_task: Optional[asyncio.Task] = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the server socket and start the lease-expiry sweeper."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        tick = min(max(self.lease_timeout / 4.0, 0.05), 1.0)
        self._expiry_task = asyncio.ensure_future(self._expiry_loop(tick))

    async def serve_forever(self) -> None:
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        self._stopping = True
        self._release_parked()
        if self._expiry_task is not None:
            self._expiry_task.cancel()
            try:
                await self._expiry_task
            except asyncio.CancelledError:
                pass
            self._expiry_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for job in self.jobs.values():
            job.ledger.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    message = await read_message(reader)
                except FabricError:
                    break  # torn frame: drop the connection
                except ConnectionError as exc:
                    # A worker terminated with its channel open resets
                    # the connection: a disconnect like any other (its
                    # leases expire and are stolen), not a traceback.
                    _log.info("peer %s disconnected (%s)",
                              writer.get_extra_info("peername"),
                              type(exc).__name__)
                    break
                if message is None:
                    break
                try:
                    reply = self._dispatch(message)
                except (FabricError, CampaignError) as exc:
                    reply = {"type": "error", "error": str(exc)}
                except Exception as exc:  # never kill the service
                    reply = {"type": "error",
                             "error": f"{type(exc).__name__}: {exc}"}
                self._wake_parked()
                if isinstance(reply, asyncio.Future):
                    reply = await reply  # a parked lease request
                try:
                    await send_message(writer, reply)
                except (ConnectionError, FabricError):
                    break
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _dispatch(self, message: Dict[str, Any]) \
            -> Union[Dict[str, Any], asyncio.Future]:
        kind = message.get("type")
        handler = getattr(self, f"_msg_{kind}", None)
        if handler is None:
            raise FabricError(f"unknown message type {kind!r}")
        return handler(message)

    # ------------------------------------------------------------------
    # Client messages
    # ------------------------------------------------------------------
    def _msg_ping(self, message) -> Dict[str, Any]:
        return {"type": "pong", "jobs": len(self.jobs),
                "queue_depth": len(self.queue),
                "active_leases": len(self.leases)}

    def _msg_submit(self, message) -> Dict[str, Any]:
        job = JobSpec.from_payload(message.get("job") or {})
        resume = bool(message.get("resume"))
        job_id = f"j{next(self._ids)}"
        ledger_path = job.ledger_path or f"{job.name}.campaign.jsonl"
        if self.ledger_dir is not None and not os.path.isabs(ledger_path):
            os.makedirs(self.ledger_dir, exist_ok=True)
            ledger_path = os.path.join(self.ledger_dir, ledger_path)

        ledger, resumed = open_journal(job, ledger_path, resume=resume,
                                       meta={"fabric": True},
                                       fsync=self.ledger_fsync)
        completed = {rid: run.result for rid, run in resumed.runs.items()
                     if run.status == "done"}

        state = JobState(job_id, job, ledger, resumed=len(completed))
        state.results.update(completed)
        plan = plan_shards(job, job_id, skip_ids=list(completed))
        for fingerprint in plan.fingerprints:
            if fingerprint not in self.artifacts:
                artifact = export_artifact(fingerprint)
                if artifact is not None:
                    self.artifacts[fingerprint] = artifact
        for shard in plan.shards:
            state.shards[shard.shard_id] = shard
            self.queue.append(shard)
        self.jobs[job_id] = state
        self._gauges()
        if state.done():
            self._finish_job(state)
        return {"type": "submitted", "job_id": job_id,
                "points": state.total(), "shards": len(plan.shards),
                "resumed": state.resumed,
                "artifacts": len(plan.fingerprints),
                "ledger_path": ledger_path}

    def _msg_status(self, message) -> Dict[str, Any]:
        job_id = message.get("job_id")
        reply: Dict[str, Any] = {
            "type": "status",
            "queue_depth": len(self.queue),
            "leases": [lease.describe() for lease in self.leases.values()],
            "metrics": self.metrics.to_dict()}
        if job_id is not None:
            reply["job"] = self._job(job_id).describe()
        else:
            reply["jobs"] = [job.describe() for job in self.jobs.values()]
        return reply

    def _msg_results(self, message) -> Dict[str, Any]:
        job = self._job(message.get("job_id"))
        rows = []
        for point in job.spec.points:
            rid = point["run_id"]
            if rid in job.results:
                status, result, error = "done", job.results[rid], None
            elif rid in job.failed:
                status, result, error = "failed", None, job.failed[rid]
            else:
                status, result, error = "pending", None, None
            rows.append({"run_id": rid, "index": point.get("index", -1),
                         "params": point["params"], "seed": point["seed"],
                         "status": status, "result": result, "error": error})
        return {"type": "results", "job_id": job.job_id,
                "state": "done" if job.done() else "running", "rows": rows}

    def _msg_shutdown(self, message) -> Dict[str, Any]:
        self._stopping = True
        self._release_parked()
        loop = asyncio.get_running_loop()
        loop.call_soon(lambda: asyncio.ensure_future(self.stop()))
        return {"type": "ok"}

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    def _msg_lease(self, message) -> Union[Dict[str, Any], asyncio.Future]:
        wait = float(message.get("wait") or 0.0)
        if wait > 0 and not self.queue and not self._stopping:
            return self._park(message, wait)
        return self._grant(message)

    def _grant(self, message) -> Dict[str, Any]:
        """Answer one lease request now: the next queued shard, or idle."""
        worker = str(message.get("worker", "?"))
        if self._stopping or not self.queue:
            return {"type": "idle", "draining": self._stopping}
        shard = self.queue.popleft()
        job = self.jobs[shard.job_id]
        shard.attempts += 1
        lease_id = f"L{next(self._ids)}"
        now = time.monotonic()
        lease = Lease(lease_id, shard, worker, now,
                      now + self.lease_timeout)
        self.leases[lease_id] = lease
        self.metrics.counter("fabric.leases_granted").inc()
        self._gauges()
        for rid in shard.point_ids():
            if not job.settled(rid):
                job.ledger.record({"event": "start", "run_id": rid,
                                   "attempt": shard.attempts,
                                   "worker": worker,
                                   "shard": shard.shard_id})
        envelope = dict(job.spec.to_payload())
        envelope.pop("points", None)
        return {"type": "lease", "lease_id": lease_id,
                "lease_timeout": self.lease_timeout,
                "shard": shard.to_payload(), "job": envelope,
                "artifacts": list(shard_fingerprints(shard, job.spec))}

    def _msg_artifact(self, message) -> Dict[str, Any]:
        fingerprint = message.get("fingerprint")
        artifact = self.artifacts.get(fingerprint)
        if artifact is None:
            artifact = export_artifact(fingerprint) if fingerprint else None
            if artifact is not None:
                self.artifacts[fingerprint] = artifact
        if artifact is None:
            return {"type": "missing", "fingerprint": fingerprint}
        self.metrics.counter("fabric.artifacts_served").inc()
        return dict(artifact, type="artifact")

    def _msg_heartbeat(self, message) -> Dict[str, Any]:
        lease = self.leases.get(message.get("lease_id"))
        self.metrics.counter("fabric.heartbeats").inc()
        if lease is None:
            # Expired (and possibly re-dispatched): the worker may keep
            # going — its completion will merge point-wise — or abandon.
            return {"type": "ok", "known": False}
        lease.deadline = time.monotonic() + self.lease_timeout
        return {"type": "ok", "known": True}

    def _msg_complete(self, message) -> Dict[str, Any]:
        lease = self.leases.pop(message.get("lease_id"), None)
        shard, job = self._resolve_shard(message, lease)
        if job is None:
            raise FabricError(
                f"completion for unknown job {message.get('job_id')!r}")
        if lease is not None:
            self.metrics.timer("fabric.shard_latency").add_ns(
                int((time.monotonic() - lease.granted) * 1e9))
        accepted = duplicates = 0
        lanes = message.get("lanes") or {}
        elapsed = float(message.get("elapsed") or 0.0)
        for rid, lane in lanes.items():
            if job.settled(rid):
                duplicates += 1
                continue
            attempt = job.attempts.get(rid, 0) + 1
            job.attempts[rid] = attempt
            if lane.get("ok"):
                job.results[rid] = lane.get("result")
                job.ledger.record({"event": "done", "run_id": rid,
                                   "attempt": attempt, "duration": elapsed,
                                   "result": lane.get("result")})
                accepted += 1
            else:
                error = str(lane.get("error", "worker reported failure"))
                job.ledger.record({"event": "failed", "run_id": rid,
                                   "attempt": attempt, "kind": "error",
                                   "error": error})
                self._retry_point(job, rid, error)
        if duplicates:
            self.metrics.counter("fabric.duplicate_completions").inc(
                duplicates)
        if shard is not None:
            self._retire_shard(job, shard)
        self.metrics.counter("fabric.shards_completed").inc()
        self._gauges()
        if job.done():
            self._finish_job(job)
        return {"type": "ok", "accepted": accepted,
                "duplicates": duplicates}

    def _msg_fail(self, message) -> Dict[str, Any]:
        lease = self.leases.pop(message.get("lease_id"), None)
        shard, job = self._resolve_shard(message, lease)
        error = str(message.get("error", "worker reported shard failure"))
        if job is None or shard is None:
            return {"type": "ok", "requeued": False}
        self.metrics.counter("fabric.shards_failed").inc()
        self._bounce_shard(job, shard, kind="error", error=error)
        self._gauges()
        if job.done():
            self._finish_job(job)
        return {"type": "ok",
                "requeued": shard.shard_id in job.shards}

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _job(self, job_id: Optional[str]) -> JobState:
        job = self.jobs.get(job_id or "")
        if job is None:
            raise FabricError(f"unknown job {job_id!r}")
        return job

    def _resolve_shard(self, message, lease: Optional[Lease]):
        """(shard, job) for a complete/fail message, lease-less tolerant."""
        if lease is not None:
            return (lease.shard,
                    self.jobs.get(lease.shard.job_id))
        job = self.jobs.get(message.get("job_id") or "")
        if job is None:
            return None, None
        shard = job.shards.get(message.get("shard_id") or "")
        return shard, job

    def _park(self, message, wait: float) -> asyncio.Future:
        """Hold a lease request until a shard is queued or ``wait``
        seconds pass, whichever comes first."""
        loop = asyncio.get_running_loop()
        entry = (loop.create_future(), message)
        self._parked.append(entry)
        timer = loop.call_later(wait, self._answer_parked, entry,
                                {"type": "idle", "draining": False})
        entry[0].add_done_callback(lambda _: timer.cancel())
        return entry[0]

    def _answer_parked(self, entry, reply: Optional[Dict[str, Any]] = None) \
            -> None:
        """Answer one parked request: ``reply``, or a grant when None."""
        if entry in self._parked:
            self._parked.remove(entry)
        future, message = entry
        if not future.done():  # its connection may have been cancelled
            future.set_result(reply or self._grant(message))

    def _wake_parked(self) -> None:
        """Grant queued shards to parked requests, oldest first."""
        while self._parked and self.queue and not self._stopping:
            self._answer_parked(self._parked[0])

    def _release_parked(self) -> None:
        """Answer every parked request at once: the service is stopping."""
        while self._parked:
            self._answer_parked(self._parked[0],
                                {"type": "idle", "draining": True})

    def _gauges(self) -> None:
        self.metrics.gauge("fabric.queue_depth").set(len(self.queue))
        self.metrics.gauge("fabric.active_leases").set(len(self.leases))

    def _retire_shard(self, job: JobState, shard: Shard) -> None:
        """Drop a finished shard from the job and the queue/leases."""
        job.shards.pop(shard.shard_id, None)
        try:
            self.queue.remove(shard)   # was requeued after an expiry
        except ValueError:
            pass
        for lease_id, lease in list(self.leases.items()):
            if lease.shard is shard:   # re-dispatched and still running
                del self.leases[lease_id]

    def _retry_point(self, job: JobState, rid: str, error: str) -> None:
        """Requeue one cleanly-failed point, within the retry budget."""
        if job.attempts.get(rid, 0) <= job.spec.retries:
            point = next(p for p in job.spec.points if p["run_id"] == rid)
            retry = Shard(f"{job.job_id}/retry-{rid}-{next(self._ids)}",
                          job.job_id, "serial", [point],
                          attempts=job.attempts.get(rid, 0))
            job.shards[retry.shard_id] = retry
            self.queue.append(retry)
        else:
            job.failed[rid] = error
            job.ledger.record({"event": "gave_up", "run_id": rid,
                               "attempts": job.attempts.get(rid, 0)})

    def _bounce_shard(self, job: JobState, shard: Shard, *, kind: str,
                      error: str) -> None:
        """One dispatch of ``shard`` failed whole; requeue or give up."""
        unfinished = [rid for rid in shard.point_ids()
                      if not job.settled(rid)]
        for rid in unfinished:
            job.ledger.record({"event": "failed", "run_id": rid,
                               "attempt": shard.attempts, "kind": kind,
                               "error": error})
        if shard.attempts <= job.spec.retries:
            if shard.shard_id in job.shards and shard not in self.queue:
                self.queue.append(shard)
            return
        job.shards.pop(shard.shard_id, None)
        for rid in unfinished:
            job.attempts[rid] = max(job.attempts.get(rid, 0),
                                    shard.attempts)
            job.failed[rid] = error
            job.ledger.record({"event": "gave_up", "run_id": rid,
                               "attempts": shard.attempts})

    def _finish_job(self, job: JobState) -> None:
        job.ledger.close()

    async def _expiry_loop(self, tick: float) -> None:
        while True:
            await asyncio.sleep(tick)
            now = time.monotonic()
            for lease_id, lease in list(self.leases.items()):
                if lease.deadline > now:
                    continue
                del self.leases[lease_id]
                self.metrics.counter("fabric.leases_expired").inc()
                job = self.jobs.get(lease.shard.job_id)
                if job is None:
                    continue
                self._bounce_shard(
                    job, lease.shard, kind="lease_expired",
                    error=f"lease {lease_id} ({lease.worker}) expired "
                          f"after {self.lease_timeout:g}s without a "
                          f"heartbeat")
                self._gauges()
                if job.done():
                    self._finish_job(job)
            self._wake_parked()


# ----------------------------------------------------------------------
# Thread-hosted coordinator (tests, embedders)
# ----------------------------------------------------------------------
class CoordinatorThread:
    """Run a :class:`Coordinator` on a daemon thread's event loop.

    The test harness and in-process embedders use this to stand up a
    loopback fabric without blocking the caller: ``start()`` returns
    once the port is bound, ``stop()`` shuts the service down and joins
    the thread.  The coordinator object stays reachable (fault-
    injection tests reach in to corrupt artifacts or inspect leases) —
    mutating simple dict entries from the caller is safe because the
    loop thread only reads them between frames.
    """

    def __init__(self, coordinator: Optional[Coordinator] = None, **kw):
        self.coordinator = coordinator or Coordinator(**kw)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.coordinator.host

    @property
    def port(self) -> int:
        return self.coordinator.port

    def start(self) -> "CoordinatorThread":
        self._loop = asyncio.new_event_loop()
        bound = threading.Event()
        failure: List[BaseException] = []

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.coordinator.start())
            except BaseException as exc:  # surface bind errors to caller
                failure.append(exc)
                bound.set()
                return
            bound.set()
            self._loop.run_forever()

        self._thread = threading.Thread(target=_run, daemon=True,
                                        name="fabric-coordinator")
        self._thread.start()
        if not bound.wait(timeout=10) or failure:
            raise FabricError(
                f"coordinator failed to start: "
                f"{failure[0] if failure else 'timeout'}")
        return self

    def stop(self) -> None:
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.coordinator.stop(),
                                                  self._loop)
        try:
            future.result(timeout=10)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        self._loop = None

    def __enter__(self) -> "CoordinatorThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
