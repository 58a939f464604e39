"""The fabric client: submit campaigns to a coordinator and collect results.

The thin synchronous counterpart of the coordinator's service API.  A
:class:`FabricClient` is how many concurrent clients queue work against
one coordinator: each call is one request/response on a blocking
channel, so clients need no asyncio and can live inside tests, the
CLI, or other orchestrators.

:func:`job_from_sweep` (re-exported from :mod:`repro.campaign.job`)
materializes a :class:`~repro.campaign.sweep.Sweep` into the
:class:`~repro.campaign.job.JobSpec` a local
:class:`~repro.campaign.Campaign` holds too (points, seeds, sweep
fingerprint), so a fabric job is *the same sweep* a local campaign
would run — same run ids, same per-point seeds, and therefore bitwise
the same per-point results.
:func:`result_from_rows` turns a ``results`` reply back into the
campaign's :class:`~repro.campaign.aggregate.CampaignResult`, so
reporting (tables, group-bys) is shared too.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Union

from ..campaign.aggregate import CampaignResult, RunRow
from ..campaign.job import JobSpec, job_from_sweep  # noqa: F401
from .protocol import Channel, FabricError


def result_from_rows(name: str, rows: List[Dict[str, Any]]) \
        -> CampaignResult:
    """A ``results`` reply as the campaign layer's aggregate object."""
    return CampaignResult(name, [
        RunRow(row["run_id"], row.get("index", -1), row.get("params", {}),
               row.get("seed", 0), row.get("status", "pending"),
               result=row.get("result"), error=row.get("error"))
        for row in rows])


class FabricClient:
    """A blocking client for one coordinator address."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        with Channel(self.host, self.port, timeout=self.timeout) as channel:
            return channel.request(message)

    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self._request({"type": "ping"})

    def submit(self, job: Union[JobSpec, Dict[str, Any]], *,
               resume: bool = False) -> Dict[str, Any]:
        """Queue one job; returns the ``submitted`` reply (job_id etc.)."""
        payload = job.to_payload() if isinstance(job, JobSpec) else job
        return self._request({"type": "submit", "job": payload,
                              "resume": resume})

    def status(self, job_id: Optional[str] = None) -> Dict[str, Any]:
        message: Dict[str, Any] = {"type": "status"}
        if job_id is not None:
            message["job_id"] = job_id
        return self._request(message)

    def results(self, job_id: str) -> Dict[str, Any]:
        return self._request({"type": "results", "job_id": job_id})

    def result(self, job_id: str, name: str = "fabric") -> CampaignResult:
        """The job's rows as a :class:`CampaignResult` (any state)."""
        return result_from_rows(name, self.results(job_id)["rows"])

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll: float = 0.2) -> Dict[str, Any]:
        """Block until the job settles; returns the final results reply.

        Polls the job's ``status`` (constant size) and fetches the rows
        once, when it is done: a ``results`` reply encodes every row,
        on the coordinator loop that also grants leases.
        """
        deadline = time.monotonic() + timeout
        while True:
            if self.status(job_id)["job"]["state"] == "done":
                return self.results(job_id)
            if time.monotonic() > deadline:
                raise FabricError(
                    f"job {job_id} still running after {timeout:g}s")
            time.sleep(poll)

    def shutdown(self) -> None:
        """Ask the coordinator to drain and stop."""
        try:
            self._request({"type": "shutdown"})
        except FabricError:
            pass  # it may close the socket before replying
