"""Worker capability tags, whole-shard leases and explicit lane caps.

Workers report host shape (CPU count, numpy availability) with every
lease request.  A lease is the shard the planner made — at most
``JobSpec.batch_max`` lanes — so a default worker drains a whole batch
group in one lease.  A worker started with an explicit lane cap (a
memory ceiling) gets batch shards trimmed to it at lease time, the
remainder going back on the queue for the next worker.
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
from repro.fabric.worker import worker_capabilities

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


class TestWorkerCapabilities:
    def test_reports_host_shape(self):
        # No lane cap unless one is set: leases are the planned shards.
        caps = worker_capabilities()
        assert caps["cpus"] >= 1
        assert isinstance(caps["numpy"], bool)
        assert "lane_cap" not in caps
        assert "lane_cap" not in Worker("127.0.0.1", 1).caps

    def test_explicit_lane_cap_wins(self):
        assert worker_capabilities(lane_cap=3)["lane_cap"] == 3

    def test_worker_sends_caps_with_leases(self):
        worker = Worker("127.0.0.1", 1, lane_cap=2)
        assert worker.caps["lane_cap"] == 2
        assert worker.caps["cpus"] >= 1


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


class TestLaneCapSplitting:
    """Coordinator-side shard fitting, exercised frame by frame."""

    def _submit(self, coordinator, tmp_path, n_points, batch_max=16):
        reply = coordinator._msg_submit(
            {"type": "submit",
             "job": _job(tmp_path, n_points, batch_max).to_payload()})
        assert reply["type"] == "submitted"
        return reply["job_id"]

    def test_oversized_batch_shard_splits_at_cap(self, tmp_path):
        coordinator = Coordinator()
        job_id = self._submit(coordinator, tmp_path, 5)
        job = coordinator.jobs[job_id]
        assert len(job.shards) == 1  # one 5-lane batch shard
        seen = []
        # The last split leaves one lane: it runs serial, never as a
        # 1-lane lockstep batch.
        for expect, mode in ((2, "batch"), (2, "batch"), (1, "serial")):
            reply = coordinator._msg_lease(
                {"type": "lease", "worker": "small",
                 "caps": {"cpus": 2, "numpy": True, "lane_cap": 2}})
            assert reply["type"] == "lease"
            shard = reply["shard"]
            assert shard["mode"] == mode
            assert len(shard["points"]) == expect
            seen.extend(p["run_id"] for p in shard["points"])
        # Every derived shard is registered; nothing references the
        # retired parent; the queue is drained.
        assert not coordinator.queue
        assert len(seen) == len(set(seen)) == 5
        assert {p["run_id"] for point_list in
                (s.points for s in job.shards.values())
                for p in point_list} == set(seen)
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters["fabric.shards_split"] == 2

    def test_cap_of_one_splits_into_serial_halves(self, tmp_path):
        coordinator = Coordinator()
        self._submit(coordinator, tmp_path, 2)
        modes = []
        for _ in range(2):
            reply = coordinator._msg_lease(
                {"type": "lease", "worker": "tiny",
                 "caps": {"cpus": 1, "numpy": True, "lane_cap": 1}})
            modes.append((reply["shard"]["mode"],
                          len(reply["shard"]["points"])))
            # A serial half still names its structure, so the worker
            # is shipped the compiled artifacts.
            assert reply["shard"]["fingerprint"] and reply["artifacts"]
        assert modes == [("serial", 1), ("serial", 1)]

    def test_fitting_shard_passes_through_whole(self, tmp_path):
        coordinator = Coordinator()
        self._submit(coordinator, tmp_path, 3)
        reply = coordinator._msg_lease(
            {"type": "lease", "worker": "big",
             "caps": {"cpus": 64, "numpy": True, "lane_cap": 64}})
        assert len(reply["shard"]["points"]) == 3

    def test_capless_worker_gets_whole_shard(self, tmp_path):
        # Older workers send no caps; the coordinator must not split.
        coordinator = Coordinator()
        self._submit(coordinator, tmp_path, 4)
        reply = coordinator._msg_lease({"type": "lease", "worker": "old"})
        assert len(reply["shard"]["points"]) == 4

    def test_split_results_match_solo_campaign(self, tmp_path):
        """A lane-capped fabric run stays bit-identical to solo."""
        import json

        def norm(value):
            return json.loads(json.dumps(value, sort_keys=True,
                                         default=repr))

        sweep = _sweep(5)
        solo = Campaign("solo", sweep, target=PIPE, kind="spec", cycles=40,
                        ledger_path=str(tmp_path / "solo.jsonl")).run()
        assert not solo.failed
        expected = {row.run_id: norm(row.result) for row in solo.rows}

        coordinator = Coordinator(lease_timeout=30.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(_job(tmp_path, 5))
            # In-process worker with a 2-lane cap: every shard it leases
            # arrives pre-trimmed, and the split halves re-chunk until
            # the whole group drains through the narrow worker.
            worker = Worker(coordinator.host, coordinator.port,
                            worker_id="narrow", lane_cap=2, poll=0.05)
            stats = worker.run(idle_exit_after=5)
            assert stats["shards_done"] >= 3  # 5 lanes / cap 2
            final = client.wait(reply["job_id"], timeout=60)
        got = {row["run_id"]: norm(row["result"]) for row in final["rows"]}
        assert got == expected
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters["fabric.shards_split"] >= 1


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
