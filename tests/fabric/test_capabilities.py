"""Whole-shard leases and the client's wait loop.

A lease is the shard the planner made — at most ``JobSpec.batch_max``
lanes, the one setting for lanes per task — so a worker drains a whole
batch group in one lease, on any host.
"""

import json
import os
import threading

import pytest

from repro.campaign import Campaign
from repro.campaign.sweep import GridSweep
from repro.core import compile_cache as cc
from repro.fabric import (Coordinator, CoordinatorThread, FabricClient,
                          Worker, job_from_sweep)
from repro.fabric.shards import JobSpec

PIPE = "tests.campaign._targets:build_pipe"
SLEEPY = "tests.campaign._targets:sleepy"


def _norm(value):
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path):
    cc.configure(enabled=True, disk_enabled=True,
                 disk_dir=str(tmp_path / "cache"))
    yield
    cc.configure()


def _sweep(n):
    # depth is pinned, rate varies: one structure, n stochastic lanes.
    return GridSweep({"depth": [2],
                      "rate": [0.1 * (i + 1) for i in range(n)]},
                     base_seed=7)


def _job(tmp_path, n_points, batch_max=16):
    # rate is a stochastic axis, not a structural one: all points share
    # one fingerprint and plan into a single batch group.
    return job_from_sweep("caps", _sweep(n_points), kind="spec",
                          target=PIPE, cycles=40, batch_max=batch_max,
                          ledger_path=str(tmp_path / "caps.jsonl"))


class TestWholeShardLeases:
    """Default workers lease the planned shard whole, on any host."""

    def test_default_workers_lease_the_planned_shard_whole(self, tmp_path):
        # More lanes than CPUs: a CPU-derived cap would split this shard.
        n_points = (os.cpu_count() or 1) + 3
        solo = Campaign("solo", _sweep(n_points), target=PIPE, kind="spec",
                        cycles=40, batch_max=n_points,
                        ledger_path=str(tmp_path / "solo.jsonl")).run()
        assert not solo.failed
        expected = {row.run_id: _norm(row.result) for row in solo.rows}

        coordinator = Coordinator(lease_timeout=30.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(_job(tmp_path, n_points,
                                       batch_max=n_points))
            assert reply["shards"] == 1
            workers = [Worker(coordinator.host, coordinator.port,
                              worker_id=f"w{i}", poll=0.05)
                       for i in range(2)]
            stats = [None, None]

            def work(i):
                stats[i] = workers[i].run(idle_exit_after=5)

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            final = client.wait(reply["job_id"], timeout=60)
        assert sorted(s["shards_done"] for s in stats) == [0, 1]
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters["fabric.leases_granted"] == 1
        assert counters.get("fabric.shards_split", 0) == 0
        got = {row["run_id"]: _norm(row["result"]) for row in final["rows"]}
        assert got == expected


class _CountingClient(FabricClient):
    """A client that records the type of every request it makes."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.sent = []

    def _request(self, message):
        self.sent.append(message["type"])
        return super()._request(message)


class TestWait:
    def test_wait_polls_status_and_fetches_results_once(self, tmp_path):
        points = [{"run_id": f"p{i}", "index": i,
                   "params": {"duration": 0.3}, "seed": i} for i in range(2)]
        job = JobSpec(name="slow", kind="fn", points=points, target=SLEEPY,
                      batch_max=1,
                      ledger_path=str(tmp_path / "slow.jsonl")).validate()
        coordinator = Coordinator(lease_timeout=30.0)
        with CoordinatorThread(coordinator):
            client = _CountingClient(coordinator.host, coordinator.port)
            job_id = client.submit(job)["job_id"]
            worker = Worker(coordinator.host, coordinator.port, poll=0.05)
            thread = threading.Thread(
                target=worker.run, kwargs={"idle_exit_after": 5})
            thread.start()
            final = client.wait(job_id, timeout=60, poll=0.02)
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert client.sent.count("results") == 1
        assert client.sent.count("status") >= 2  # it really polled
        assert client.sent[-1] == "results"
        # The reply shape every caller reads is the results reply's.
        assert final["type"] == "results"
        assert final["job_id"] == job_id and final["state"] == "done"
        assert [row["status"] for row in final["rows"]] == ["done", "done"]
