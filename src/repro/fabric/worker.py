"""The fabric worker: lease, fetch, execute, complete, repeat.

A worker is a plain synchronous loop in its own process — all the
concurrency lives in the coordinator.  Each iteration asks for a
lease — the shard the coordinator planned, whole: ``JobSpec.batch_max``
is the one setting for lanes per task.  The request is a long poll:
the coordinator holds it for up to ``poll`` seconds and answers the
moment a shard is queued, so an ``idle`` reply already stands for one
``poll`` period and the worker asks again at once.  On a lease it

1. fetches the shard's compiled-model artifacts it does not already
   hold (content-addressed by design fingerprint, byte-verified on
   install — a corrupt or stale blob is *discarded* and the worker
   compiles locally, trading speed for correctness, never the
   reverse);
2. starts a heartbeat thread that renews the lease on short one-shot
   connections (the main connection stays strictly request/response);
3. executes the shard through the campaign's task builder and
   executor (lockstep batch or serial points — identical code paths,
   and therefore identical results, to a local ``Campaign`` run);
4. reports ``complete`` with per-point lane payloads, or ``fail`` with
   the error.

If the worker dies mid-shard — SIGKILL, OOM, power — the heartbeat
simply stops, the coordinator expires the lease, and another worker
steals the shard.  Nothing worker-side is durable; the coordinator's
ledger is the only record that matters.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Dict, List, Optional

from ..campaign.job import JobSpec
from .artifacts import ArtifactError, have_artifact, install_artifact
from .protocol import Channel, FabricError, one_shot
from .shards import Shard, execute_shard


class _Heartbeat:
    """Renew one lease on a background thread until stopped."""

    def __init__(self, host: str, port: int, lease_id: str,
                 interval: float):
        self._host = host
        self._port = port
        self._lease_id = lease_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=f"heartbeat-{lease_id}")
        self.sent = 0

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                one_shot(self._host, self._port,
                         {"type": "heartbeat", "lease_id": self._lease_id},
                         timeout=max(self._interval, 1.0))
                self.sent += 1
            except FabricError:
                # Coordinator briefly unreachable: keep trying — an
                # expired lease is recoverable, a dead thread is not.
                continue

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


class Worker:
    """One fabric worker loop bound to a coordinator address."""

    def __init__(self, host: str, port: int, *,
                 worker_id: Optional[str] = None,
                 poll: float = 0.2,
                 heartbeat_interval: Optional[float] = None):
        self.host = host
        self.port = port
        self.worker_id = worker_id or f"{socket.gethostname()}:{os.getpid()}"
        self.poll = poll
        self.heartbeat_interval = heartbeat_interval
        self.stats = {"shards_done": 0, "shards_failed": 0, "points": 0,
                      "artifacts_installed": 0, "artifact_fallbacks": 0,
                      "idle_polls": 0}

    # ------------------------------------------------------------------
    def _fetch_artifacts(self, channel: Channel,
                         fingerprints: List[str]) -> None:
        """Ensure the local compile cache holds every listed artifact.

        Failure here is never fatal: a missing, corrupt, or stale blob
        means the worker compiles the structure itself — slower, but
        the verification in :func:`install_artifact` guarantees a bad
        transfer can never produce a wrong simulator.
        """
        for fingerprint in fingerprints:
            if not fingerprint or have_artifact(fingerprint):
                continue
            reply = channel.request({"type": "artifact",
                                     "fingerprint": fingerprint})
            if reply.get("type") != "artifact":
                self.stats["artifact_fallbacks"] += 1
                continue
            try:
                install_artifact(reply)
                self.stats["artifacts_installed"] += 1
            except ArtifactError:
                self.stats["artifact_fallbacks"] += 1

    def _execute_lease(self, channel: Channel,
                       lease: Dict[str, Any]) -> None:
        shard = Shard.from_payload(lease["shard"])
        job = JobSpec.from_payload(dict(lease["job"], points=shard.points))
        lease_id = lease["lease_id"]
        interval = self.heartbeat_interval
        if interval is None:
            interval = max(float(lease.get("lease_timeout", 10.0)) / 3.0,
                           0.05)
        self._fetch_artifacts(channel, lease.get("artifacts") or [])
        t0 = time.monotonic()
        try:
            with _Heartbeat(self.host, self.port, lease_id, interval):
                lanes = execute_shard(shard, job)
        except Exception as exc:
            self.stats["shards_failed"] += 1
            channel.request({"type": "fail", "lease_id": lease_id,
                             "shard_id": shard.shard_id,
                             "job_id": shard.job_id,
                             "error": f"{type(exc).__name__}: {exc}"})
            return
        self.stats["shards_done"] += 1
        self.stats["points"] += len(lanes)
        channel.request({"type": "complete", "lease_id": lease_id,
                         "shard_id": shard.shard_id,
                         "job_id": shard.job_id, "lanes": lanes,
                         "elapsed": time.monotonic() - t0})

    # ------------------------------------------------------------------
    def run(self, *, max_shards: Optional[int] = None,
            idle_exit_after: Optional[int] = None) -> Dict[str, int]:
        """Work until drained/idle-limited; returns the stats dict.

        ``max_shards`` bounds how many leases this call executes;
        ``idle_exit_after`` exits after that many *consecutive* idle
        polls, each one ``poll`` seconds long (``None`` polls forever).
        The worker exits when the coordinator reports it is shutting
        down.
        """
        executed = 0
        idle_streak = 0
        # The socket timeout must outlast a parked lease request.
        with Channel(self.host, self.port,
                     timeout=30.0 + self.poll) as channel:
            while max_shards is None or executed < max_shards:
                reply = channel.request({"type": "lease",
                                         "worker": self.worker_id,
                                         "wait": self.poll})
                if reply.get("type") == "idle":
                    if reply.get("draining"):
                        break
                    idle_streak += 1
                    self.stats["idle_polls"] += 1
                    if (idle_exit_after is not None
                            and idle_streak >= idle_exit_after):
                        break
                    continue
                if reply.get("type") != "lease":
                    raise FabricError(
                        f"unexpected lease reply {reply.get('type')!r}")
                idle_streak = 0
                executed += 1
                self._execute_lease(channel, reply)
        return dict(self.stats)


def worker_main(host: str, port: int, *,
                worker_id: Optional[str] = None,
                cache_dir: Optional[str] = None,
                poll: float = 0.2,
                heartbeat_interval: Optional[float] = None,
                max_shards: Optional[int] = None,
                idle_exit_after: Optional[int] = None) -> Dict[str, int]:
    """Process entry point for a worker (CLI and spawned subprocesses).

    ``cache_dir`` points the worker's on-disk compile-cache layer
    somewhere private — how tests prove artifacts really crossed the
    wire rather than being found in a shared ``.repro-cache/``.
    """
    if cache_dir is not None:
        from ..core.compile_cache import configure
        configure(disk_dir=cache_dir)
    worker = Worker(host, port, worker_id=worker_id, poll=poll,
                    heartbeat_interval=heartbeat_interval)
    try:
        return worker.run(max_shards=max_shards,
                          idle_exit_after=idle_exit_after)
    except KeyboardInterrupt:
        # Ctrl-C on `repro serve --workers N` reaches the whole process
        # group; exit quietly — any leased shard's heartbeat stops and
        # the coordinator (if it survives) re-dispatches it.
        return dict(worker.stats)
