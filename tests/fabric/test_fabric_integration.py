"""End-to-end fabric integration and fault-injection tests.

The acceptance bar for the distributed fabric: under injected faults —
a worker SIGKILLed mid-shard, a corrupt artifact served to a worker, a
lease completed twice — every campaign must still converge to a
*complete* ledger whose per-point results are bit-identical to a solo
local ``Campaign`` run of the same sweep.  Determinism is
structural (same materialized sweep, same fingerprint grouping, same
executor code paths), so equality here is exact, not approximate.

Worker processes run under real ``fork``; the coordinator runs on an
in-process thread so tests can inject faults (corrupt the artifact
store, watch the lease table) between protocol frames.
"""

import json
import multiprocessing
import time

import pytest

from repro.campaign import Campaign, Ledger
from repro.campaign.sweep import GridSweep
from repro.core import compile_cache as cc
from repro.core.errors import LibertyError
from repro.core.opt import resolve_opt_level
from repro.fabric.artifacts import composite_artifact_keys
from repro.fabric import (Coordinator, CoordinatorThread, FabricClient,
                          Worker, job_from_sweep, worker_main)
from repro.fabric.protocol import Channel
from repro.fabric.shards import JobSpec, Shard, execute_shard

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fabric integration tests need fork workers")

_CTX = (multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods() else None)

CHAIN = "tests.campaign._targets:build_chain"
DOUBLE = "tests.campaign._targets:double"
SLEEPY = "tests.campaign._targets:sleepy"
CYCLES = 120


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path):
    """Keep the test process's compile cache off the repo directory."""
    cc.configure(enabled=True, disk_enabled=True,
                 disk_dir=str(tmp_path / "coordinator-cache"))
    yield
    cc.configure()


def _sweep():
    # Two topologies (stages) x two rates: exercises both structural
    # grouping and per-lane parameter variation inside one batch.
    return GridSweep({"stages": [1, 2], "rate": [0.2, 0.5]}, base_seed=11)


def _norm(value):
    """JSON-normalize a result for cross-transport comparison."""
    return json.loads(json.dumps(value, sort_keys=True, default=repr))


def _solo_results(tmp_path, sweep):
    """The ground truth: the same sweep via a local campaign."""
    campaign = Campaign("solo", sweep, target=CHAIN, kind="spec",
                        cycles=CYCLES, batch_max=4,
                        ledger_path=str(tmp_path / "solo.jsonl"))
    result = campaign.run()
    assert not result.failed
    return {row.run_id: _norm(row.result) for row in result.rows}


def _fabric_job(tmp_path, sweep, **kw):
    kw.setdefault("kind", "spec")
    kw.setdefault("target", CHAIN)
    kw.setdefault("cycles", CYCLES)
    kw.setdefault("batch_max", 4)
    kw.setdefault("ledger_path", str(tmp_path / "fabric.jsonl"))
    return job_from_sweep("fabric", sweep, **kw)


def _spawn_worker(host, port, name, cache_dir=None, **kw):
    kw.setdefault("poll", 0.05)
    kw.setdefault("idle_exit_after", 40)
    proc = _CTX.Process(
        target=worker_main, args=(host, port),
        kwargs=dict(worker_id=name, cache_dir=cache_dir, **kw),
        name=name, daemon=True)
    proc.start()
    return proc


def _assert_ledger_matches(ledger_path, expected):
    """The durable ledger holds exactly one identical result per point."""
    state = Ledger.load(str(ledger_path))
    assert set(state.runs) == set(expected)
    for rid, want in expected.items():
        run = state.runs[rid]
        assert run.status == "done", f"{rid}: {run.status} ({run.error})"
        assert _norm(run.result) == want, f"{rid} diverged"
    # Exactly one journaled 'done' event per point — the dedup invariant.
    with open(ledger_path, encoding="utf-8") as handle:
        events = [json.loads(line) for line in handle if line.strip()]
    done_ids = [e["run_id"] for e in events if e.get("event") == "done"]
    assert sorted(done_ids) == sorted(expected)


class TestOneCut:
    def test_mixed_sweep_rows_equal_local_campaign(self, tmp_path):
        """Two fingerprints, a singleton and a build failure: the
        fabric's rows equal the local campaign's, failure included."""
        from tests.campaign import _targets
        from tests.campaign.test_batched_campaign import mixed_sweep
        local = Campaign("local", mixed_sweep(), target=_targets.build_chain,
                         kind="spec", cycles=CYCLES, retries=0,
                         ledger_path=str(tmp_path / "local.jsonl")).run()
        expected = {row.run_id: (row.status, _norm(row.result))
                    for row in local.rows}
        job = _fabric_job(tmp_path, mixed_sweep(), batch_max=16, retries=0)
        coordinator = Coordinator(lease_timeout=30.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(job)
            # One batch shard per multi-point group, one serial shard
            # each for the singleton and the unbuildable point.
            assert reply["shards"] == 4
            Worker(coordinator.host, coordinator.port, worker_id="solo",
                   poll=0.05).run(idle_exit_after=5)
            final = client.wait(reply["job_id"], timeout=60)
        got = {row["run_id"]: (row["status"], _norm(row["result"]))
               for row in final["rows"]}
        assert got == expected
        assert sorted(status for status, _ in got.values()) \
            == ["done"] * 6 + ["failed"]
        # The two ledgers agree too: the shared header keys, and the
        # result of every point's done event.
        local_state = Ledger.load(str(tmp_path / "local.jsonl"))
        fabric_state = Ledger.load(str(tmp_path / "fabric.jsonl"))
        shared = ("kind", "engine", "opt", "cycles", "target")
        assert ({k: local_state.meta[k] for k in shared}
                == {k: fabric_state.meta[k] for k in shared})
        assert local_state.fingerprint == fabric_state.fingerprint

        def done_results(state):
            return {rid: _norm(run.result) for rid, run in state.runs.items()
                    if run.status == "done"}
        assert len(done_results(local_state)) == 6
        assert done_results(local_state) == done_results(fabric_state)


class TestLoopbackFabric:
    def test_two_workers_match_solo_batched_campaign(self, tmp_path):
        """Acceptance: a 2-worker fabric run is bit-identical to solo."""
        sweep = _sweep()
        expected = _solo_results(tmp_path, sweep)
        job = _fabric_job(tmp_path, sweep)
        coordinator = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(job)
            assert reply["points"] == 4
            # Per topology: base model + vec plan, plus an optimized-IR
            # blob when REPRO_OPT raises the ambient level above 0.
            per_topology = len(composite_artifact_keys(
                "f" * 16, resolve_opt_level(None), vec=True))
            assert reply["artifacts"] == 2 * per_topology
            # Private cache dirs force the compiled models over the wire.
            workers = [
                _spawn_worker(coordinator.host, coordinator.port,
                              f"w{i}", cache_dir=str(tmp_path / f"wc{i}"))
                for i in range(2)]
            final = client.wait(reply["job_id"], timeout=120)
            for proc in workers:
                proc.join(timeout=60)
                assert proc.exitcode == 0
        got = {row["run_id"]: _norm(row["result"]) for row in final["rows"]}
        assert got == expected
        _assert_ledger_matches(tmp_path / "fabric.jsonl", expected)
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters.get("fabric.artifacts_served", 0) >= 1

    def test_sigkilled_worker_mid_shard_is_stolen_and_converges(
            self, tmp_path):
        """Fault injection: SIGKILL a worker mid-shard.

        The heartbeat stops, the lease expires, the shard is requeued,
        and a second worker steals it — the ledger still converges to
        one complete 'done' row per point.
        """
        points = [{"run_id": f"p{i}", "index": i,
                   "params": {"duration": 1.2}, "seed": i} for i in range(2)]
        job = JobSpec(name="kill", kind="fn", points=points, target=SLEEPY,
                      batch_max=1, retries=2,
                      ledger_path=str(tmp_path / "kill.jsonl")).validate()
        coordinator = Coordinator(lease_timeout=0.8)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(job)
            victim = _spawn_worker(coordinator.host, coordinator.port,
                                   "victim", idle_exit_after=None)
            deadline = time.monotonic() + 20
            while not coordinator.leases:
                assert time.monotonic() < deadline, "victim never leased"
                time.sleep(0.02)
            time.sleep(0.2)          # let it get properly mid-shard
            victim.kill()            # SIGKILL: no cleanup, no goodbye
            victim.join(timeout=10)

            rescuer = Worker(coordinator.host, coordinator.port,
                             worker_id="rescuer", poll=0.05)
            rescuer.run(max_shards=2)
            final = client.wait(reply["job_id"], timeout=60)
        assert final["state"] == "done"
        expected = {p["run_id"]: _norm({"slept": 1.2}) for p in points}
        got = {row["run_id"]: _norm(row["result"]) for row in final["rows"]}
        assert got == expected
        _assert_ledger_matches(tmp_path / "kill.jsonl", expected)
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters.get("fabric.leases_expired", 0) >= 1
        # The journal records the injected death as a lease expiry.
        with open(tmp_path / "kill.jsonl", encoding="utf-8") as handle:
            kinds = [json.loads(line).get("kind")
                     for line in handle if line.strip()]
        assert "lease_expired" in kinds

    def test_corrupt_artifact_degrades_to_local_recompile(self, tmp_path):
        """Fault injection: serve a corrupt/stale artifact blob.

        The worker's byte-digest verification must reject it, count a
        fallback, compile locally, and still produce identical results.
        """
        sweep = _sweep()
        expected = _solo_results(tmp_path, sweep)
        job = _fabric_job(tmp_path, sweep)
        coordinator = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(job)
            assert coordinator.artifacts, "planner exported no artifacts"
            for artifact in coordinator.artifacts.values():
                artifact["blob"] = artifact["blob"][:-40] + "x" * 40
            # An in-process worker on a pristine cache: it must fetch,
            # reject, and recompile — its stats prove the path taken.
            cc.configure(enabled=True, disk_enabled=True,
                         disk_dir=str(tmp_path / "worker-cache"))
            worker = Worker(coordinator.host, coordinator.port,
                            worker_id="skeptic", poll=0.05)
            stats = worker.run(idle_exit_after=20)
            final = client.wait(reply["job_id"], timeout=120)
        assert stats["artifact_fallbacks"] >= 1
        assert stats["artifacts_installed"] == 0
        got = {row["run_id"]: _norm(row["result"]) for row in final["rows"]}
        assert got == expected
        _assert_ledger_matches(tmp_path / "fabric.jsonl", expected)

    def test_double_completed_lease_is_deduplicated(self, tmp_path):
        """Fault injection: complete the same lease twice.

        Models a worker that survived its own lease expiry (slow host,
        partition) and reports results the coordinator already merged:
        duplicates are counted and dropped, the ledger keeps exactly
        one 'done' per point.
        """
        sweep = _sweep()
        expected = _solo_results(tmp_path, sweep)
        job = _fabric_job(tmp_path, sweep, batch_max=16)
        coordinator = Coordinator(lease_timeout=30.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            job_id = client.submit(job)["job_id"]
            with Channel(coordinator.host, coordinator.port) as channel:
                results = {}
                completions = []
                while True:
                    lease = channel.request({"type": "lease",
                                             "worker": "dup"})
                    if lease.get("type") == "idle":
                        break
                    shard = Shard.from_payload(lease["shard"])
                    spec = JobSpec.from_payload(
                        dict(lease["job"], points=shard.points))
                    lanes = execute_shard(shard, spec)
                    completion = {"type": "complete",
                                  "lease_id": lease["lease_id"],
                                  "shard_id": shard.shard_id,
                                  "job_id": shard.job_id, "lanes": lanes,
                                  "elapsed": 0.1}
                    first = channel.request(completion)
                    assert first["duplicates"] == 0
                    results[shard.shard_id] = first
                    completions.append(completion)
                # Replay every completion: all lanes must dedup.
                for completion in completions:
                    again = channel.request(completion)
                    assert again["accepted"] == 0
                    assert again["duplicates"] == len(completion["lanes"])
            final = client.wait(job_id, timeout=60)
        assert final["state"] == "done"
        got = {row["run_id"]: _norm(row["result"]) for row in final["rows"]}
        assert got == expected
        _assert_ledger_matches(tmp_path / "fabric.jsonl", expected)
        counters = coordinator.metrics.to_dict()["counters"]
        assert counters.get("fabric.duplicate_completions", 0) == 4


class TestResume:
    def test_resume_across_coordinators(self, tmp_path):
        """The ledger carries a campaign across coordinator restarts."""
        sweep = _sweep()
        expected = _solo_results(tmp_path, sweep)
        ledger_path = str(tmp_path / "fabric.jsonl")

        job = _fabric_job(tmp_path, sweep, ledger_path=ledger_path)
        first = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(first):
            client = FabricClient(first.host, first.port)
            reply = client.submit(job)
            Worker(first.host, first.port, poll=0.05).run(idle_exit_after=20)
            client.wait(reply["job_id"], timeout=120)

        # A brand-new coordinator ("another host") resumes the ledger:
        # everything is already done, so zero shards are planned.
        second = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(second):
            client = FabricClient(second.host, second.port)
            reply = client.submit(job, resume=True)
            assert reply["resumed"] == 4
            assert reply["shards"] == 0
            final = client.wait(reply["job_id"], timeout=10)
        got = {row["run_id"]: _norm(row["result"]) for row in final["rows"]}
        assert got == expected
        _assert_ledger_matches(tmp_path / "fabric.jsonl", expected)

    def test_resume_tolerates_torn_ledger_tail(self, tmp_path):
        """A coordinator crash mid-write must not poison the resume."""
        sweep = _sweep()
        ledger_path = str(tmp_path / "fabric.jsonl")
        job = _fabric_job(tmp_path, sweep, ledger_path=ledger_path)
        first = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(first):
            client = FabricClient(first.host, first.port)
            reply = client.submit(job)
            Worker(first.host, first.port, poll=0.05).run(idle_exit_after=20)
            client.wait(reply["job_id"], timeout=120)
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "run_id": "p9", "resu')  # crash

        second = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(second):
            client = FabricClient(second.host, second.port)
            reply = client.submit(job, resume=True)
            assert reply["resumed"] == 4
            assert reply["shards"] == 0

    def test_unresumed_existing_ledger_is_refused(self, tmp_path):
        from repro.fabric import FabricError
        sweep = _sweep()
        ledger_path = str(tmp_path / "fabric.jsonl")
        job = _fabric_job(tmp_path, sweep, ledger_path=ledger_path)
        coordinator = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            client.submit(job)
            with pytest.raises(FabricError, match="resume"):
                client.submit(job)

    def test_resume_refuses_a_different_sweep(self, tmp_path):
        from repro.fabric import FabricError
        ledger_path = str(tmp_path / "fabric.jsonl")
        job = _fabric_job(tmp_path, _sweep(), ledger_path=ledger_path)
        other = _fabric_job(
            tmp_path, GridSweep({"stages": [1], "rate": [0.9]}),
            ledger_path=ledger_path)
        coordinator = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(coordinator):
            client = FabricClient(coordinator.host, coordinator.port)
            reply = client.submit(job)
            Worker(coordinator.host, coordinator.port,
                   poll=0.05).run(idle_exit_after=20)
            client.wait(reply["job_id"], timeout=120)
            with pytest.raises(FabricError, match="different campaign"):
                client.submit(other, resume=True)


class TestOneLedgerRule:
    """A local campaign and a loopback fabric job open ledgers by one
    rule (``repro.campaign.open_journal``): each refuses, and leaves
    untouched, the same ledgers."""

    SWEEP = {"x": [1, 2]}
    OTHER = {"x": [1, 3]}

    @pytest.fixture
    def client(self):
        coordinator = Coordinator(lease_timeout=10.0)
        with CoordinatorThread(coordinator):
            yield FabricClient(coordinator.host, coordinator.port)

    @staticmethod
    def _run(transport, client, grid, ledger, resume):
        sweep = GridSweep(grid)
        if transport == "local":
            Campaign("rule", sweep, target=DOUBLE, workers=0,
                     ledger_path=ledger).run(resume=resume)
        else:
            client.submit(job_from_sweep("rule", sweep, kind="fn",
                                         target=DOUBLE, ledger_path=ledger),
                          resume=resume)

    @pytest.mark.parametrize("transport", ["local", "fabric"])
    @pytest.mark.parametrize("grid, resume, refusal", [
        (OTHER, False, "different campaign"),
        (SWEEP, False, "already holds"),
        (OTHER, True, "different campaign"),
    ], ids=["fresh-other-sweep", "fresh-same-sweep", "resume-other-sweep"])
    def test_existing_ledger_is_refused(self, tmp_path, client, transport,
                                        grid, resume, refusal):
        ledger = tmp_path / "rule.jsonl"
        Campaign("rule", GridSweep(self.SWEEP), target=DOUBLE, workers=0,
                 ledger_path=str(ledger)).run()
        before = ledger.read_text()
        with pytest.raises(LibertyError, match=refusal):
            self._run(transport, client, grid, str(ledger), resume)
        assert ledger.read_text() == before

    @pytest.mark.parametrize("transport", ["local", "fabric"])
    def test_resume_needs_a_ledger(self, tmp_path, client, transport):
        ledger = tmp_path / "absent.jsonl"
        with pytest.raises(LibertyError, match="no ledger"):
            self._run(transport, client, self.SWEEP, str(ledger), True)
        assert not ledger.exists()


class TestCommandLine:
    LSS = ('system t;\n'
           'instance src : Source(pattern="bernoulli", rate=0.3, seed=1);\n'
           'instance q : Queue(depth=4);\n'
           'instance snk : Sink();\n'
           'connect src.out -> q.in;\n'
           'connect q.out -> snk.in;\n')

    def test_submit_work_status_results_round_trip(self, tmp_path, capsys):
        """The CLI front half: submit an .lss sweep, run a worker loop,
        inspect status, fetch results — all against a live coordinator."""
        from repro.__main__ import main
        spec_path = tmp_path / "pipe.lss"
        spec_path.write_text(self.LSS)
        coordinator = Coordinator(
            lease_timeout=10.0, ledger_dir=str(tmp_path / "ledgers"))
        with CoordinatorThread(coordinator):
            connect = f"{coordinator.host}:{coordinator.port}"
            assert main(["submit", str(spec_path),
                         "--grid", "q.depth=2,6", "--cycles", "80",
                         "--connect", connect]) == 0
            submitted = capsys.readouterr().out
            assert "# submitted j1: 2 point(s)" in submitted

            assert main(["work", "--connect", connect,
                         "--idle-exit", "10", "--poll", "0.05"]) == 0
            worker_out = capsys.readouterr().out
            assert "2 point(s)" in worker_out

            assert main(["status", "--connect", connect]) == 0
            status_out = capsys.readouterr().out
            assert "2/2 done" in status_out

            assert main(["results", "j1", "--connect", connect,
                         "--metrics", "snk:consumed"]) == 0
            results_out = capsys.readouterr().out
            assert "2 done" in results_out
            assert "snk:consumed" in results_out
        ledger = Ledger.load(
            str(tmp_path / "ledgers" / "pipe.campaign.jsonl"))
        assert len(ledger.completed_ids()) == 2


class TestAbruptDisconnect:
    def test_reset_connection_is_a_normal_disconnect(self, caplog):
        """A worker terminated with its channel open resets the TCP
        connection.  The coordinator used to let the
        ``ConnectionResetError`` escape its connection handler (asyncio
        logged a traceback); it is one INFO line and the service lives."""
        import logging
        import socket
        import struct
        coordinator = Coordinator(lease_timeout=10.0)
        with caplog.at_level(logging.INFO):
            with CoordinatorThread(coordinator):
                sock = socket.create_connection(
                    (coordinator.host, coordinator.port))
                channel = Channel(coordinator.host, coordinator.port)
                assert channel.request({"type": "ping"})["type"] == "pong"
                # SO_LINGER 0: close() sends RST instead of FIN, with an
                # unanswered frame prefix still in flight.
                sock.sendall(struct.pack(">I", 64)[:2])
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                sock.close()
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline and not any(
                        "disconnected" in r.getMessage()
                        for r in caplog.records):
                    time.sleep(0.02)
                # The service is still answering.
                assert channel.request({"type": "ping"})["type"] == "pong"
                channel.close()
        lines = [r for r in caplog.records
                 if r.name == "repro.fabric.coordinator"]
        assert len(lines) == 1
        assert "ConnectionResetError" in lines[0].getMessage()
        assert lines[0].levelno == logging.INFO and not lines[0].exc_info
        assert not [r for r in caplog.records if r.name == "asyncio"
                    and r.levelno >= logging.ERROR]
