"""Tests for the attachable engine profiler (repro.obs.profiler)."""

from __future__ import annotations

import pytest

from repro import build_simulator
from repro.core.errors import SimulationError
from repro.obs import Profiler

from ..conftest import simple_pipe_spec


class TestLifecycle:
    def test_attach_and_detach_restore_clean_state(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        # A leaf's react is pre-bound into its instance dict at every
        # opt level; detach must restore whatever attach saw.
        before = {path: leaf.react
                  for path, leaf in sim.design.leaves.items()}
        prof = Profiler(sim)
        assert sim.profiler is prof
        sim.run(12)
        prof.detach()
        assert sim.profiler is None
        # Dispatch restored: the pre-attach callable, not a wrapper.
        for path, leaf in sim.design.leaves.items():
            assert not hasattr(leaf.react, "_obs_original")
            assert leaf.react == before[path]
        # Simulation continues fine; collected data stays frozen.
        steps = prof.steps
        sim.run(12)
        assert sim.now == 24
        assert prof.steps == steps

    def test_double_attach_rejected(self):
        sim = build_simulator(simple_pipe_spec())
        Profiler(sim)
        with pytest.raises(SimulationError, match="already has a profiler"):
            Profiler(sim)

    def test_context_manager_detaches(self):
        sim = build_simulator(simple_pipe_spec())
        with Profiler(sim) as prof:
            sim.run(4)
        assert sim.profiler is None
        assert prof.steps == 4

    def test_invalid_sample_every_rejected(self):
        with pytest.raises(SimulationError):
            Profiler(sample_every=0)


class TestCollection:
    def test_steps_and_sampling_counts(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        prof = Profiler(sim, sample_every=4)
        sim.run(40)
        assert prof.steps == 40
        assert prof.sampled_steps == 10
        assert prof.step_ns.count == 10

    def test_sample_every_1_times_every_step(self):
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim, sample_every=1)
        sim.run(10)
        assert prof.sampled_steps == 10

    def test_react_counts_are_exact(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        prof = Profiler(sim, sample_every=3)
        sim.run(30)
        # Every instance reacted at least once per step.
        for rec in prof.instances:
            assert rec.calls >= 30, rec.path
        assert prof.reacts_total == sum(r.calls for r in prof.instances)

    def test_profiled_run_matches_unprofiled(self, engine):
        plain = build_simulator(simple_pipe_spec(rate=0.6, seed=9),
                                engine=engine, seed=1)
        plain.run(50)
        profiled = build_simulator(simple_pipe_spec(rate=0.6, seed=9),
                                   engine=engine, seed=1)
        Profiler(profiled, sample_every=2)
        profiled.run(50)
        assert profiled.stats.summary_dict() == plain.stats.summary_dict()
        assert profiled.transfers_total == plain.transfers_total

    def test_hotspots_ranked_and_limited(self):
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim, sample_every=1)
        sim.run(20)
        ranked = prof.hotspots()
        assert len(ranked) == len(sim.design.leaves)
        assert all(a.ns >= b.ns for a, b in zip(ranked, ranked[1:]))
        assert len(prof.hotspots(top=2)) == 2

    def test_wire_activity_needs_live_sim(self):
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim)
        sim.run(10)
        assert prof.wire_activity()
        prof.detach()
        assert prof.wire_activity() == []

    def test_relaxation_attribution(self):
        from repro.core import INPUT, LeafModule, PortDecl

        class Echo(LeafModule):
            PORTS = (PortDecl("in", INPUT),)
            DEPS = None  # conservative: forces worklist iteration to relax

        from repro import LSS
        from repro.pcl import Source
        spec = LSS("loopy")
        src = spec.instance("src", Source, pattern="counter")
        echo = spec.instance("echo", Echo)
        spec.connect(src.port("out"), echo.port("in"))
        sim = build_simulator(spec, engine="worklist")
        prof = Profiler(sim)
        sim.run(5)
        assert prof.relaxations == sim.relaxations_total - 0
        if prof.relaxations:
            assert sum(prof.relaxed_wires().values()) == prof.relaxations


class TestResults:
    def test_metrics_registry_contents(self):
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim, sample_every=2)
        sim.run(20)
        reg = prof.metrics()
        d = reg.to_dict()
        assert d["counters"]["engine.steps"] == 20
        assert d["counters"]["engine.sampled_steps"] == 10
        assert d["counters"]["engine.reacts"] == prof.reacts_total
        assert d["gauges"]["engine.sample_every"] == 2
        assert "instance.src.reacts" in d["counters"]

    def test_summary_dict_is_json_friendly_and_bounded(self):
        import json
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim)
        sim.run(16)
        summary = prof.summary_dict(top=2)
        json.dumps(summary)  # no TypeError
        assert summary["steps"] == 16
        assert len(summary["instances"]) == 2
        assert summary["engine"] == type(sim).__name__

    def test_elapsed_freezes_on_detach(self):
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim)
        sim.run(5)
        prof.detach()
        frozen = prof.elapsed_ns
        assert frozen > 0
        assert prof.elapsed_ns == frozen


class TestCheckpointInteraction:
    def test_state_dict_excludes_profiler_wrapper(self):
        sim = build_simulator(simple_pipe_spec())
        Profiler(sim)
        sim.run(6)
        snap = sim.state_dict()
        text = repr(snap)
        assert "profiled_react" not in text
        assert "_obs_original" not in text
