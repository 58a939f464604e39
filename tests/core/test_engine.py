"""Unit tests for the reactive engines (repro.core.engine)."""

import pytest

from repro import LSS, LeafModule, PortDecl, INPUT, OUTPUT, build_simulator
from repro.core.errors import (CombinationalCycleError, MonotonicityError,
                               SimulationError)
from repro.pcl import Monitor, Queue, Sink, Source

from ..conftest import simple_pipe_spec


class TestBasics:
    def test_time_advances(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        assert sim.now == 0
        sim.run(7)
        assert sim.now == 7

    def test_step_is_run_one(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.step()
        assert sim.now == 1

    def test_pipeline_throughput(self, engine):
        sim = build_simulator(simple_pipe_spec(depth=4), engine=engine)
        sim.run(50)
        consumed = sim.stats.counter("snk", "consumed")
        # Full-rate source through a queue: one item/cycle after warmup.
        assert consumed == 49

    def test_instance_lookup(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        assert sim.instance("q").p["depth"] == 4
        with pytest.raises(SimulationError):
            sim.instance("nope")

    def test_init_called_once(self):
        calls = []

        class Initer(LeafModule):
            PORTS = (PortDecl("out", OUTPUT, min_width=1),)
            DEPS = {}

            def init(self):
                calls.append(self.path)

            def react(self):
                self.port("out").send_nothing(0)

        spec = LSS("init")
        spec.instance("i", Initer)
        sim = build_simulator(spec)
        sim.run(3)
        assert calls == ["i"]

    def test_fifo_order_preserved(self, engine):
        spec = simple_pipe_spec()
        sim = build_simulator(spec, engine=engine)
        probe = sim.probe_between("q", "out", "snk", "in")
        sim.run(20)
        values = probe.values()
        assert values == sorted(values)
        assert values[0] == 0


class TestTransfersAndProbes:
    def test_transfer_counting(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.run(10)
        # Two wires, each transferring ~once/cycle after warmup.
        assert sim.transfers_total == 10 + 9

    def test_probe_records_time_and_value(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        probe = sim.probe_between("src", "out", "q", "in")
        sim.run(5)
        assert probe.count == 5
        times = [t for t, _ in probe.log]
        assert times == [0, 1, 2, 3, 4]

    def test_probe_limit(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        probe = sim.probe_between("src", "out", "q", "in", limit=3)
        sim.run(10)
        assert probe.count == 3

    def test_two_probes_on_one_wire_both_record(self, engine):
        """Regression: a second probe used to silently replace the first."""
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        first = sim.probe_between("src", "out", "q", "in", label="first")
        second = sim.probe_between("src", "out", "q", "in", label="second")
        assert first is not second
        sim.run(5)
        assert first.count == 5
        assert second.count == 5
        assert first.log == second.log

    def test_probes_with_distinct_limits_coexist(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        capped = sim.probe_between("src", "out", "q", "in", limit=2)
        open_ended = sim.probe_between("src", "out", "q", "in")
        sim.run(6)
        assert capped.count == 2
        assert open_ended.count == 6


class _AckNeverDriver(LeafModule):
    """Pathological module: never resolves its input ack."""

    PORTS = (PortDecl("in", INPUT),)

    def react(self):
        pass  # leaves ack UNKNOWN forever


class TestCyclePolicies:
    def _stuck_spec(self):
        spec = LSS("stuck")
        src = spec.instance("src", Source, pattern="counter")
        bad = spec.instance("bad", _AckNeverDriver)
        spec.connect(src.port("out"), bad.port("in"))
        return spec

    def test_relax_policy_makes_progress(self):
        sim = build_simulator(self._stuck_spec(), cycle_policy="relax")
        sim.run(5)
        assert sim.now == 5
        assert sim.relaxations_total >= 5  # one forced ack per cycle
        # Forced acks are pessimistic: no transfers happened.
        assert sim.stats.counter("src", "emitted") == 0

    def test_error_policy_raises_with_diagnostic(self):
        sim = build_simulator(self._stuck_spec(), cycle_policy="error")
        with pytest.raises(CombinationalCycleError, match="bad"):
            sim.run(1)

    def test_bad_policy_name_rejected(self):
        with pytest.raises(SimulationError):
            build_simulator(self._stuck_spec(), cycle_policy="whatever")


class _DoubleDriver(LeafModule):
    PORTS = (PortDecl("out", OUTPUT),)
    DEPS = {}

    def react(self):
        self.port("out").send(0, self.now)  # value changes per call? no:
        # self.now is stable within a timestep, so this is idempotent.


class _ConflictingDriver(LeafModule):
    PORTS = (PortDecl("out", OUTPUT),)

    def init(self):
        self._calls = 0

    def react(self):
        self._calls += 1
        self.port("out").send(0, self._calls)  # different value per call!


class TestMonotonicityEnforcement:
    def test_idempotent_redrive_allowed(self, engine):
        spec = LSS("ok")
        d = spec.instance("d", _DoubleDriver)
        snk = spec.instance("snk", Sink)
        spec.connect(d.port("out"), snk.port("in"))
        sim = build_simulator(spec, engine=engine)
        sim.run(5)
        assert sim.stats.counter("snk", "consumed") == 5

    def test_conflicting_redrive_raises(self):
        spec = LSS("bad")
        d = spec.instance("d", _ConflictingDriver)
        q = spec.instance("q", Queue, depth=1)
        m = spec.instance("m", Monitor)
        snk = spec.instance("snk", Sink)
        spec.connect(d.port("out"), q.port("in"))
        spec.connect(q.port("out"), m.port("in"))
        spec.connect(m.port("out"), snk.port("in"))
        # Worklist-specific: the driver is re-invoked when its ack
        # resolves; its second send() carries a different value -> a
        # monotonicity violation. Levelized schedules avoid the redrive.
        sim = build_simulator(spec, engine="worklist")
        with pytest.raises(MonotonicityError):
            sim.run(3)


class TestDeterminism:
    def test_same_seed_same_results(self, engine):
        def run():
            sim = build_simulator(simple_pipe_spec(rate=0.5, seed=7),
                                  engine=engine)
            sim.run(100)
            return (sim.stats.counter("snk", "consumed"),
                    sim.transfers_total)

        assert run() == run()

    def test_engines_agree_exactly(self):
        results = []
        for engine in ("worklist", "levelized", "batched"):
            sim = build_simulator(simple_pipe_spec(rate=0.5, seed=3),
                                  engine=engine)
            sim.run(200)
            results.append((sim.stats.counter("snk", "consumed"),
                            sim.stats.counter("src", "emitted"),
                            sim.transfers_total))
        assert results[0] == results[1] == results[2]
