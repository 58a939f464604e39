"""Tests for the fault-tolerant executor (repro.campaign.executor).

The process-pool tests exercise the real failure modes the subsystem
exists for: a worker killed by SIGKILL mid-run, an attempt past its
timeout, and a poisoned point that must not sink the rest of the sweep.
"""

import os

import pytest

from repro.campaign import (CampaignError, InlineExecutor, ProcessExecutor,
                            RunTask, execute_task, resolve_target)

from . import _targets


def _task(run_id, target, params, **kw):
    defaults = dict(index=0, seed=1, kind="fn")
    defaults.update(kw)
    return RunTask(run_id=run_id, target=target, params=params, **defaults)


class TestResolveTarget:
    def test_callable_passthrough(self):
        assert resolve_target(_targets.double) is _targets.double

    def test_dotted_path(self):
        fn = resolve_target("tests.campaign._targets:double")
        assert fn(3)["value"] == 6

    def test_nested_attribute(self):
        assert resolve_target("os.path:join") is os.path.join

    def test_bad_targets(self):
        with pytest.raises(CampaignError):
            resolve_target("no.such.module:fn")
        with pytest.raises(CampaignError):
            resolve_target("os.path:no_such_fn")
        with pytest.raises(CampaignError):
            resolve_target("os.path:sep")     # not callable
        with pytest.raises(CampaignError):
            resolve_target(42)


class TestExecuteTask:
    def test_fn_kind(self):
        result = execute_task(_task("r", _targets.double, {"x": 5}))
        assert result["value"] == 10

    def test_fn_kind_coerces_non_dict(self):
        result = execute_task(_task("r", lambda: 7, {}))
        assert result == {"value": 7}

    def test_spec_kind_runs_simulator(self):
        task = _task("r", _targets.build_pipe, {"depth": 4, "rate": 0.5},
                     kind="spec", cycles=100, engine="levelized")
        result = execute_task(task)
        assert result["cycles"] == 100
        assert result["stats"]["snk:consumed"] > 0

    def test_lss_kind_with_overrides(self):
        text = ('system t;\n'
                'instance src : Source(pattern="counter");\n'
                'instance snk : Sink();\n'
                'connect src.out -> snk.in;\n')
        task = _task("r", None, {"src.pattern": "periodic", "src.period": 2},
                     kind="lss", cycles=40, lss_text=text)
        result = execute_task(task)
        assert result["stats"]["snk:consumed"] == pytest.approx(20, abs=2)

    def test_lss_bad_override(self):
        task = _task("r", None, {"nodotshere": 1}, kind="lss",
                     lss_text="system t;\ninstance snk : Sink();\n")
        with pytest.raises(CampaignError, match="instance.parameter"):
            execute_task(task)

    def test_unknown_kind(self):
        with pytest.raises(CampaignError, match="unknown task kind"):
            execute_task(_task("r", _targets.double, {}, kind="wat"))


class TestInlineExecutor:
    def test_runs_in_order(self):
        tasks = [_task(f"r{i}", _targets.double, {"x": i}) for i in range(4)]
        outcomes = InlineExecutor().run(tasks)
        assert [o.run_id for o in outcomes] == ["r0", "r1", "r2", "r3"]
        assert all(o.status == "done" for o in outcomes)
        assert outcomes[3].result["value"] == 6

    def test_retry_until_marker(self, tmp_path):
        marker = str(tmp_path / "go")
        events = []
        executor = InlineExecutor(retries=2, backoff=0.0)

        def unlock(event):
            events.append(event["event"])
            # The first failure "repairs" the environment for the retry.
            if event["event"] == "failed":
                open(marker, "w").close()

        outcomes = executor.run(
            [_task("r", _targets.fail_unless_marker, {"marker": marker})],
            callback=unlock)
        assert outcomes[0].status == "done"
        assert outcomes[0].attempts == 2
        assert events == ["start", "failed", "start", "done"]

    def test_gave_up_records_error(self):
        outcomes = InlineExecutor(retries=1).run(
            [_task("r", _targets.boom, {})])
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 2
        assert "poisoned" in outcomes[0].error


class TestProcessExecutor:
    def test_runs_in_separate_processes(self):
        tasks = [_task(f"r{i}", _targets.double, {"x": i}) for i in range(3)]
        outcomes = ProcessExecutor(workers=2, retries=0).run(tasks)
        assert all(o.status == "done" for o in outcomes)
        pids = {o.result["pid"] for o in outcomes}
        assert os.getpid() not in pids

    def test_sigkilled_worker_is_retried_successfully(self, tmp_path):
        """Acceptance: a worker killed mid-run records the failure and the
        retry of that point succeeds."""
        marker = str(tmp_path / "died-once")
        events = []
        outcomes = ProcessExecutor(workers=1, retries=1, backoff=0.01).run(
            [_task("victim", _targets.kill_unless_marker, {"marker": marker})],
            callback=events.append)
        assert outcomes[0].status == "done"
        assert outcomes[0].attempts == 2
        assert outcomes[0].result["survived"] is True
        kinds = [(e["event"], e.get("kind")) for e in events]
        assert ("failed", "crash") in kinds
        failed = next(e for e in events if e["event"] == "failed")
        assert "exitcode" in failed["error"]

    def test_worker_exiting_right_after_send_is_not_a_crash(self):
        """A worker that sends its result and exits between the
        executor's two samples (pipe, liveness) finished; it did not
        die without a result (exitcode 0)."""
        from repro.campaign.executor import _Active

        class Worker:
            """Both ends of one worker: it sends and exits immediately
            after the executor's first sample of either kind."""

            exitcode = None

            def __init__(self):
                self.sent = self.received = False

            def _finish(self):
                self.sent, self.exitcode = True, 0

            def poll(self):
                ready = self.sent and not self.received
                self._finish()
                return ready

            def is_alive(self):
                alive = not self.sent
                self._finish()
                return alive

            def recv(self):
                self.received = True
                return ("ok", {"value": 6})

            def join(self, timeout=None):
                pass

            def close(self):
                pass

        worker = Worker()
        active = _Active(worker, worker, _task("p0", _targets.double,
                                               {"x": 3}), None, 0.0)
        executor = ProcessExecutor(workers=1, retries=0)
        settled = None
        for _ in range(3):
            settled = executor._reap(active)
            if settled is not None:
                break
        assert settled == ("ok", {"value": 6})

    def test_timeout_kills_hung_worker(self):
        outcomes = ProcessExecutor(workers=1, timeout=0.5, retries=0).run(
            [_task("hung", _targets.sleepy, {"duration": 60.0})])
        assert outcomes[0].status == "failed"
        assert "timeout" in outcomes[0].error

    def test_timeout_is_a_per_point_budget(self):
        executor = ProcessExecutor(workers=1, timeout=0.5)
        lanes = [{"run_id": f"l{i}", "index": i, "params": {}, "seed": i}
                 for i in range(4)]
        assert executor._budget(_task("one", None, {})) == 0.5
        assert executor._budget(_task("batch", None, {}, kind="batch",
                                      points=lanes)) == 2.0

    def test_poisoned_point_does_not_sink_the_sweep(self):
        tasks = [_task("good0", _targets.double, {"x": 1}),
                 _task("bad", _targets.boom, {}),
                 _task("good1", _targets.double, {"x": 2})]
        outcomes = ProcessExecutor(workers=2, retries=1, backoff=0.01).run(tasks)
        by_id = {o.run_id: o for o in outcomes}
        assert by_id["bad"].status == "failed"
        assert by_id["bad"].attempts == 2
        assert "ValueError" in by_id["bad"].error
        assert by_id["good0"].status == "done"
        assert by_id["good1"].status == "done"

    def test_outcomes_preserve_input_order(self):
        tasks = [_task(f"r{i}", _targets.double, {"x": i}) for i in range(5)]
        outcomes = ProcessExecutor(workers=3, retries=0).run(tasks)
        assert [o.run_id for o in outcomes] == [t.run_id for t in tasks]

    @pytest.mark.parametrize("interruption", [KeyboardInterrupt, RuntimeError])
    def test_abnormal_exit_leaves_no_orphan_processes(
            self, tmp_path, monkeypatch, interruption):
        """Ctrl-C (or an orchestrator bug) mid-campaign must terminate and
        join every in-flight worker process, not strand it."""
        import time as _time

        from repro.campaign import executor as executor_mod
        pid_dir = tmp_path / "pids"

        class InterruptingTime:
            """``time`` facade for the *orchestrator only*: its polling
            sleep fires the interruption once both workers have proven
            they are alive (PID files written), so there is something
            to orphan.  Rebinding the module-level ``time`` name (not
            ``time.sleep`` itself) keeps the forked workers' real
            ``time.sleep(60)`` hang intact."""

            def sleep(self, seconds):
                if pid_dir.exists() and len(list(pid_dir.iterdir())) == 2:
                    raise interruption("operator hit Ctrl-C")
                _time.sleep(0.01)

            def __getattr__(self, name):
                return getattr(_time, name)

        monkeypatch.setattr(executor_mod, "time", InterruptingTime())
        tasks = [_task(f"r{i}", _targets.record_pid_and_sleep,
                       {"pid_dir": str(pid_dir)}) for i in range(2)]
        with pytest.raises(interruption):
            ProcessExecutor(workers=2, retries=0).run(tasks)
        pids = [int(p.name) for p in pid_dir.iterdir()]
        assert len(pids) == 2
        for pid in pids:  # terminated AND reaped: kill(pid, 0) must fail
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_invalid_configuration(self):
        with pytest.raises(CampaignError):
            ProcessExecutor(workers=0)
        with pytest.raises(CampaignError):
            ProcessExecutor(timeout=-1)
        with pytest.raises(CampaignError):
            ProcessExecutor(retries=-1)
