"""Runtime contract monitor: catches a misbehaving module live.

The Liar module declares ``DEPS = {}`` (Moore) but reads its input
during react — exactly the defect class the static pass flags; here the
*runtime* monitor must catch the actual read on every engine, in both
``raise`` and ``record`` modes, and cost nothing once detached.
"""

from collections import Counter

import pytest

from repro import build_design, build_simulator
from repro.analysis import ContractMonitor, Severity
from repro.core import INPUT, LeafModule, PortDecl
from repro.core.errors import ContractViolationError, SimulationError
from repro.pcl import Sink, Source

from ..conftest import simple_pipe_spec
from .conftest import liar_spec, pipe_spec


class TestLiarCaught:
    def test_raise_mode_aborts_on_every_engine(self, engine):
        sim = build_simulator(liar_spec(), engine=engine)
        ContractMonitor(sim)
        with pytest.raises(ContractViolationError,
                           match=r"contract-monitor\.undeclared-read"):
            sim.run(5)

    def test_record_mode_collects_deduplicated(self, engine):
        sim = build_simulator(liar_spec(), engine=engine)
        mon = ContractMonitor(sim, mode="record")
        sim.run(20)
        assert len(mon.violations) == 1  # deduplicated by (rule, path, port)
        diag = mon.violations[0]
        assert diag.rule == "contract-monitor.undeclared-read"
        assert diag.severity is Severity.ERROR
        assert diag.path == "bad"
        assert diag.data["count"] == 20  # one read per timestep
        assert diag.data["template"] == "Liar"

    def test_report_renders_like_a_pass(self):
        sim = build_simulator(liar_spec())
        mon = ContractMonitor(sim, mode="record")
        sim.run(3)
        report = mon.report()
        assert report.design_name == "liar"
        assert report.passes_run == ["contract-monitor"]
        assert "contract-monitor.undeclared-read" in report.to_text()


class TestInheritedReactEscapesContract:
    """A stock template's react reads its views through the attributes
    ``bind_port`` sets, so the monitor must swap *those* — at every opt
    level, on every engine.  The subclass declares ``DEPS = {}`` but
    inherits ``PipelineReg.react``, which reads the output's ack."""

    @staticmethod
    def _spec():
        from repro import LSS
        from repro.pcl import PipelineReg

        class MooreReg(PipelineReg):
            DEPS = {}

        spec = LSS("moore_reg")
        src = spec.instance("src", Source, pattern="counter")
        reg = spec.instance("reg", MooreReg)
        snk = spec.instance("snk", Sink)
        spec.connect(src.port("out"), reg.port("in"))
        spec.connect(reg.port("out"), snk.port("in"))
        return spec

    @pytest.mark.parametrize("opt", [0, 1, 2])
    @pytest.mark.parametrize("name", ["worklist", "levelized", "batched"])
    def test_undeclared_read_found_at_every_opt_level(self, name, opt):
        sim = build_simulator(self._spec(), engine=name, opt=opt)
        raw = {path: dict(inst._views)
               for path, inst in sim.design.leaves.items()}
        mon = ContractMonitor(sim, mode="record")
        sim.run(10)
        assert [(d.rule, d.path) for d in mon.violations] \
            == [("contract-monitor.undeclared-read", "reg")]
        mon.detach()
        for path, inst in sim.design.leaves.items():
            for port, view in raw[path].items():
                assert inst._views[port] is view
                assert getattr(inst, "io_" + port) is view


class _CountingMonitor(ContractMonitor):
    """Counts, per instance path, the reacts that ran under the monitor."""

    def __init__(self, *args, **kw):
        self.reacts = Counter()
        super().__init__(*args, **kw)

    @property
    def _current(self):
        return self.__dict__.get("_reacting")

    @_current.setter
    def _current(self, inst):
        if inst is not None:
            self.reacts[inst.path] += 1
        self.__dict__["_reacting"] = inst


class TestBatchEngines:
    """A vectorized instance never runs its template's ``react`` or
    reads through its views, so a monitored lane keeps the whole batch
    off the vec plan — each lane runs its own static stepper, and
    monitored reacts and findings match solo runs — and the plan comes
    back on detach."""

    @staticmethod
    def _monitored(sim, cycles):
        mon = _CountingMonitor(sim, mode="record")
        sim.run(cycles)
        return (dict(mon.reacts),
                [(d.rule, d.path, d.data["count"]) for d in mon.violations])

    @pytest.mark.parametrize("monitored", [(0, 1), (1,)],
                             ids=("every-lane", "lane-1"))
    @pytest.mark.parametrize("make", [
        pipe_spec, TestInheritedReactEscapesContract._spec],
        ids=("pipe", "inherited-react"))
    def test_same_reacts_and_violations_as_solo_runs(self, make, monitored):
        from repro.core.batched import BatchedSimulator
        from repro.core.optimize import LevelizedSimulator

        batch = BatchedSimulator([build_design(make()) for _ in range(2)],
                                 seeds=[1, 2])
        monitors = [_CountingMonitor(batch.lane(i), mode="record")
                    for i in monitored]
        batch.run(50)
        assert batch.vec_plan is None
        seen = [(dict(mon.reacts),
                 [(d.rule, d.path, d.data["count"]) for d in mon.violations])
                for mon in monitors]
        for mon in monitors:
            mon.detach()
        batch.run(5)
        if make is pipe_spec:
            assert batch.vec_plan is not None
        batch.close()
        for i, (reacts, violations) in zip(monitored, seen):
            solo = LevelizedSimulator(build_design(make()), seed=1 + i)
            assert (reacts, violations) == self._monitored(solo, 50)
            solo.close()
            assert reacts and all(n >= 50 for n in reacts.values())
        expected = [] if make is pipe_spec \
            else [("contract-monitor.undeclared-read", "reg")]
        assert [[(rule, path) for rule, path, _ in violations]
                for _, violations in seen] == [expected] * len(monitored)

    def test_raise_mode_stops_every_lane_at_the_failing_step(self):
        # The plan-less batch steps its lanes in turn: lanes before the
        # raising one finished the step, the rest did not start it.
        from repro.core.batched import BatchedSimulator
        batch = BatchedSimulator([build_design(liar_spec())
                                  for _ in range(3)], seeds=[1, 2, 3])
        batch.run(4)
        ContractMonitor(batch.lane(1))
        with pytest.raises(ContractViolationError,
                           match=r"timestep 4: bad\."):
            batch.run(10)
        assert [lane.now for lane in batch.lanes] == [5, 4, 4]
        batch.close()

    def test_monitor_on_the_batch_itself(self):
        from repro.core.batched import BatchedSimulator
        batch = BatchedSimulator(build_design(pipe_spec()))
        mon = _CountingMonitor(batch, mode="record")
        batch.run(10)
        assert batch.vec_plan is None
        assert dict(mon.reacts) == {"src": 10, "q": 10, "snk": 10}
        mon.detach()
        batch.run(10)
        assert batch.vec_plan is not None
        assert sum(mon.reacts.values()) == 30
        batch.close()


class TestCleanModels:
    def test_no_false_positives_on_shipped_pipe(self, engine):
        sim = build_simulator(pipe_spec(), engine=engine)
        mon = ContractMonitor(sim, mode="record")
        sim.run(50)
        assert mon.violations == []

    def test_results_unchanged_under_monitor(self, engine):
        plain = build_simulator(simple_pipe_spec(), engine=engine)
        plain.run(60)
        watched = build_simulator(simple_pipe_spec(), engine=engine)
        ContractMonitor(watched, mode="record")
        watched.run(60)
        assert watched.stats.report() == plain.stats.report()
        assert watched.transfers_total == plain.transfers_total


class TestOtherRules:
    def test_unknown_value_read(self):
        class Greedy(LeafModule):
            PORTS = (PortDecl("in", INPUT, min_width=1),)
            DEPS = None  # reads sanctioned; the *value* probe is not

            def react(self):
                self.port("in").value(0)  # without checking known()
                self.port("in").set_ack(0, True)

            def update(self):
                pass

        from repro import LSS
        spec = LSS("greedy")
        # DEPS=None + declared first: the worklist engine reacts the
        # greedy instance before the source has resolved its input.
        bad = spec.instance("bad", Greedy)
        src = spec.instance("src", Source, pattern="counter")
        spec.connect(src.port("out"), bad.port("in"))
        sim = build_simulator(spec, engine="worklist")
        mon = ContractMonitor(sim, mode="record")
        sim.run(5)
        rules = {d.rule for d in mon.violations}
        assert "contract-monitor.unknown-value-read" in rules

    def test_premature_took(self):
        class Impatient(LeafModule):
            PORTS = (PortDecl("in", INPUT, min_width=1),)
            DEPS = None

            def react(self):
                self.port("in").took(0)  # handshake not resolved yet
                self.port("in").set_ack(0, True)

            def update(self):
                pass

        from repro import LSS
        spec = LSS("hasty")
        bad = spec.instance("bad", Impatient)
        src = spec.instance("src", Source, pattern="counter")
        spec.connect(src.port("out"), bad.port("in"))
        sim = build_simulator(spec, engine="worklist")
        mon = ContractMonitor(sim, mode="record")
        sim.run(5)
        rules = {d.rule for d in mon.violations}
        assert "contract-monitor.premature-took" in rules

    def test_took_on_a_bad_index_is_a_contract_violation(self):
        class OffByOne(LeafModule):
            PORTS = (PortDecl("in", INPUT, min_width=1),)
            DEPS = None

            def react(self):
                self.port("in").took(1)  # width 1: index 1 does not exist

        from repro import LSS
        spec = LSS("off_by_one")
        bad = spec.instance("bad", OffByOne)
        src = spec.instance("src", Source, pattern="counter")
        spec.connect(src.port("out"), bad.port("in"))
        sim = build_simulator(spec, engine="worklist")
        ContractMonitor(sim, mode="record")
        with pytest.raises(ContractViolationError, match="out of range"):
            sim.run(1)


class TestLifecycle:
    def test_detach_restores_views_and_react(self, engine):
        sim = build_simulator(liar_spec(), engine=engine)
        before_views = {path: dict(inst._views)
                        for path, inst in sim.design.leaves.items()}
        mon = ContractMonitor(sim, mode="record")
        mon.detach()
        for path, inst in sim.design.leaves.items():
            assert dict(inst._views) == before_views[path]
            assert not hasattr(inst.react, "_contract_original")
        # After detach the liar runs unchecked (monitor truly gone).
        sim.run(10)
        assert mon.violations == []

    def test_double_attach_rejected(self):
        sim = build_simulator(pipe_spec())
        mon = ContractMonitor(sim)
        with pytest.raises(SimulationError, match="already has a"):
            ContractMonitor(sim)
        with pytest.raises(SimulationError, match="already attached"):
            mon.attach(sim)
        mon.detach()
        ContractMonitor(sim).detach()  # re-attachable after detach

    def test_context_manager_detaches(self):
        sim = build_simulator(pipe_spec())
        with ContractMonitor(sim, mode="record"):
            sim.run(5)
        assert sim.contract_monitor is None
        sim.run(5)

    def test_bad_mode_rejected(self):
        with pytest.raises(SimulationError, match="mode"):
            ContractMonitor(mode="explode")
