"""Unit tests for the static engine's generated stepper
(repro.core.codegen)."""

import re

from repro import build_simulator
from repro.core.codegen import generate_stepper_source, stepper_instances
from repro.core.optimize import LevelizedSimulator, build_schedule
from repro.core.constructor import build_design
from repro.obs import Profiler

from ..conftest import simple_pipe_spec


class TestSourceGeneration:
    def test_source_is_valid_python(self):
        design = build_design(simple_pipe_spec())
        schedule = build_schedule(design)
        source = generate_stepper_source(schedule, design.name)
        compile(source, "<test>", "exec")  # no SyntaxError

    def test_source_mentions_every_entry(self):
        design = build_design(simple_pipe_spec())
        schedule = build_schedule(design)
        source = generate_stepper_source(schedule, design.name)
        acyclic = sum(1 for e in schedule if not e.cluster)
        assert len(re.findall(r"^ +r\d+\(\)$", source, re.M)) == acyclic

    def test_reacts_hoisted_in_one_unpack(self):
        design = build_design(simple_pipe_spec())
        schedule = build_schedule(design)
        source = generate_stepper_source(schedule, design.name)
        n = len(stepper_instances(schedule))
        hoist = ", ".join(f"r{k}" for k in range(n))
        assert f"    {hoist} = reacts\n" in source
        assert source.count("= reacts") == 1

    def test_generated_source_attached_to_simulator(self):
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        assert isinstance(sim, LevelizedSimulator)
        assert "def make_stepper" in sim.generated_source
        assert "def step():" in sim.generated_source


class TestExecution:
    def test_codegen_runs_and_matches_worklist(self):
        base = build_simulator(simple_pipe_spec(rate=0.6, seed=11))
        base.run(150)
        gen = build_simulator(simple_pipe_spec(rate=0.6, seed=11),
                              engine="levelized")
        gen.run(150)
        assert gen.stats.counter("snk", "consumed") \
            == base.stats.counter("snk", "consumed")
        assert gen.transfers_total == base.transfers_total

    def test_codegen_supports_probes(self):
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        probe = sim.probe_between("src", "out", "q", "in")
        sim.run(5)
        assert probe.count == 5

    def test_codegen_no_fallbacks_for_declared_deps(self):
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        sim.run(50)
        assert sim.fallback_steps == 0


class TestStepperLifecycle:
    """The stepper is built on the first run, never at construction, and
    rebuilt after every instrumentation change."""

    def test_construction_builds_no_stepper(self, monkeypatch):
        def refuse(model, schedule):
            raise AssertionError("construction built a stepper")
        monkeypatch.setattr("repro.core.ir.attach_stepper", refuse)
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        assert sim._stepper is None
        sim.close()

    def test_profiler_attached_after_run_rebuilds_stepper(self):
        sim = build_simulator(simple_pipe_spec(rate=0.6, seed=3),
                              engine="levelized", seed=1)
        sim.run(10)
        first = sim._stepper
        assert first is not None
        prof = Profiler(sim, sample_every=1)
        assert sim._stepper is None
        sim.run(10)
        assert sim._stepper is not None and sim._stepper is not first
        assert prof.steps == 10
        assert all(rec.calls == 10 for rec in prof.instances)
        prof.detach()
        assert sim._stepper is None
        sim.run(5)
        assert prof.steps == 10 and sim.now == 25
        sim.close()
        assert sim._stepper is None
