"""Lease requests are long polls: a request that carries ``wait`` is
parked until a shard is queued, the wait runs out, or the coordinator
shuts down."""

import threading
import time

from repro.campaign.sweep import GridSweep
from repro.fabric import (Coordinator, CoordinatorThread, FabricClient,
                          Worker, job_from_sweep)
from repro.fabric.protocol import Channel

DOUBLE = "tests.campaign._targets:double"


def _until_parked(coordinator, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not coordinator._parked:
        assert time.monotonic() < deadline, "lease request never parked"
        time.sleep(0.005)


def test_parked_worker_receives_a_job_submitted_mid_wait(tmp_path):
    coordinator = Coordinator(lease_timeout=10.0)
    with CoordinatorThread(coordinator):
        worker = Worker(coordinator.host, coordinator.port, poll=2.0)
        leases = []
        worker._execute_lease = \
            lambda channel, lease: leases.append((time.monotonic(), lease))
        thread = threading.Thread(target=worker.run,
                                  kwargs={"max_shards": 1})
        thread.start()
        _until_parked(coordinator)
        time.sleep(0.05)
        submitted = time.monotonic()
        FabricClient(coordinator.host, coordinator.port).submit(
            job_from_sweep("late", GridSweep({"x": [1]}), kind="fn",
                           target=DOUBLE,
                           ledger_path=str(tmp_path / "late.jsonl")))
        thread.join(timeout=5)
        assert not thread.is_alive()
    assert len(leases) == 1
    received, lease = leases[0]
    assert lease["type"] == "lease"
    assert received - submitted < 1.0
    assert worker.stats["idle_polls"] == 0


def test_shutdown_releases_a_parked_worker_at_once():
    coordinator = Coordinator(lease_timeout=10.0)
    with CoordinatorThread(coordinator):
        worker = Worker(coordinator.host, coordinator.port, poll=30.0)
        thread = threading.Thread(target=worker.run)
        thread.start()
        _until_parked(coordinator)
        asked = time.monotonic()
        FabricClient(coordinator.host, coordinator.port).shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert time.monotonic() - asked < 1.0
        assert not coordinator._parked


def test_request_without_wait_is_answered_at_once():
    coordinator = Coordinator(lease_timeout=10.0)
    with CoordinatorThread(coordinator):
        with Channel(coordinator.host, coordinator.port) as channel:
            asked = time.monotonic()
            reply = channel.request({"type": "lease", "worker": "w"})
            assert time.monotonic() - asked < 0.5
            assert reply == {"type": "idle", "draining": False}
            # With ``wait`` and still no work, idle comes after the wait.
            asked = time.monotonic()
            reply = channel.request({"type": "lease", "worker": "w",
                                     "wait": 0.2})
            assert time.monotonic() - asked >= 0.2
            assert reply == {"type": "idle", "draining": False}
        assert not coordinator._parked
