"""Tests for the scheduler and the IR optimizer pipeline (repro.core.opt).

Four layers of assurance:

* **scheduler invariants** — on generated designs, the one schedule
  :func:`repro.core.optimize.build_schedule` emits is a deterministic
  topological order of the signal graph with every live group exactly
  once and clusters whole, and its react-call counts on the shipped
  systems are pinned as a ceiling;
* **golden snapshots** — before/after schedule signatures on small
  hand-built designs, plus headline numbers on the Figure 2(d)
  system of systems;
* **cross-engine differentials** — every shipped system builder must
  simulate bit-identically at ``--opt 0/1/2`` under all five engines
  (the acceptance bar: optimization is observationally invisible);
* **cache keying** — optimized IR is cached under the composite
  ``(fingerprint, opt_level, OPT_VERSION)`` key and warm constructions
  skip the pass pipeline entirely.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro import LSS, SpecificationError, build_design, build_simulator
from repro.core import compile_cache as cc
from repro.core.opt import (MAX_OPT_LEVEL, OPT_VERSION, opt_cache_key,
                            resolve_opt_level)
from repro.core.opt import pipeline as opt_pipeline
from repro.core.opt.pipeline import (eliminable_instances, explain_report,
                                     optimize_model, react_calls,
                                     schedule_signature)
from repro.core.optimize import build_schedule, build_signal_graph
from repro.pcl import Queue, Sink, Source

from ..conftest import PLANLESS, ooo_spec, simple_pipe_spec, to_networkx
from .test_comb_cycles import _ring_spec
from .test_hierarchy_properties import _STAGE_KINDS, _spec as _nested_spec
from .test_properties import _chain_spec


@pytest.fixture(autouse=True)
def private_cache(tmp_path):
    """Keep optimized-IR cache writes off the repo directory."""
    cache = cc.configure(disk_dir=str(tmp_path / "cache"))
    yield cache
    cc.configure()


def _cut_spec():
    """src -> q with the queue's output cut and a floating sink.

    The floating sink is an *isolated* instance (the analysis layer's
    ``connectivity.dead-instance``); the cut queue output leaves const
    signal groups in the wire partition.
    """
    spec = LSS("cut")
    src = spec.instance("src", Source, pattern="counter")
    q = spec.instance("q", Queue, depth=4)
    spec.instance("snk", Sink)  # never connected: isolated
    spec.connect(src.port("out"), q.port("in"))
    return spec


def _fig2d_design(backend="detailed"):
    from repro.systems.fig2d import build_fig2d
    spec, _info = build_fig2d(n_sensors=2, backend=backend)
    return build_design(spec)


class TestResolveOptLevel:
    def test_default_is_unoptimized(self, monkeypatch):
        monkeypatch.delenv("REPRO_OPT", raising=False)
        assert resolve_opt_level(None) == 0

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "2")
        assert resolve_opt_level(None) == 2

    def test_explicit_level_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "2")
        assert resolve_opt_level(0) == 0
        assert resolve_opt_level("1") == 1

    def test_out_of_range_raises(self):
        with pytest.raises(SpecificationError, match="0..2"):
            resolve_opt_level(MAX_OPT_LEVEL + 1)
        with pytest.raises(SpecificationError, match="integer"):
            resolve_opt_level("fast")

    def test_cache_key_is_composite(self):
        key = opt_cache_key("abc123", 2)
        assert "abc123" in key and "2" in key and str(OPT_VERSION) in key
        assert opt_cache_key("abc123", 1) != key


# ----------------------------------------------------------------------
# The one scheduler: invariants on generated designs, pinned react counts
# ----------------------------------------------------------------------
_chains = st.builds(
    _chain_spec,
    st.lists(st.sampled_from(["queue", "reg", "monitor"]), max_size=5),
    st.just(0.5), st.just(0.5), st.integers(0, 2**16))
_nested = st.builds(
    _nested_spec,
    st.lists(st.sampled_from(_STAGE_KINDS), min_size=1, max_size=4),
    st.integers(1, 4), st.booleans())
_rings = st.builds(_ring_spec, st.integers(1, 4), st.booleans())
_cut = st.builds(lambda: _cut_spec())
SPECS = st.one_of(_chains, _nested, _rings, _cut)


class TestScheduler:
    """``build_schedule`` is the only place a schedule is ordered."""

    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS)
    def test_schedule_is_a_topological_order(self, spec):
        design = build_design(spec)
        graph = build_signal_graph(design)
        entries = build_schedule(design, graph=graph)
        node = graph.nodes
        reference = to_networkx(graph)
        pos = {}
        for idx, entry in enumerate(entries):
            for group in entry.groups:
                # Every scheduled group exactly once, never a constant.
                assert group not in pos
                assert not node[group]["const"]
                pos[group] = idx
        assert set(pos) == {g for g in graph if not node[g]["const"]}
        for group, idx in pos.items():
            for dep in reference.predecessors(group):
                if node[dep]["const"]:
                    continue  # resolved by the step's reset
                assert pos[dep] <= idx, f"{group} before its input {dep}"
                if pos[dep] == idx:
                    # Only a cluster's fixed point (or one instance
                    # feeding itself) may resolve both in one entry.
                    assert entries[idx].cluster \
                        or node[dep]["driver"] is node[group]["driver"]

    @settings(max_examples=60, deadline=None)
    @given(spec=SPECS)
    def test_clusters_stay_whole_and_runs_are_collapsed(self, spec):
        design = build_design(spec)
        graph = build_signal_graph(design)
        entries = build_schedule(design, graph=graph)
        sccs = [frozenset(c) for c in
                nx.strongly_connected_components(to_networkx(graph))
                if len(c) > 1]
        assert sorted(sorted(e.groups) for e in entries if e.cluster) \
            == sorted(sorted(c) for c in sccs)
        for before, entry in zip([None] + entries, entries):
            drivers = {id(graph.nodes[g]["driver"]) for g in entry.groups}
            assert drivers == {id(i) for i in entry.instances}
            if not entry.cluster:
                assert len(entry.instances) == 1
                if before is not None and not before.cluster:
                    assert before.instances[0] is not entry.instances[0]

    @settings(max_examples=40, deadline=None)
    @given(spec=SPECS)
    def test_schedule_is_deterministic_across_builds_and_copies(self, spec):
        design = build_design(spec)
        signature = schedule_signature(build_schedule(design))
        assert schedule_signature(build_schedule(design)) == signature
        assert schedule_signature(build_schedule(design.copy())) == signature

    #: react() calls per schedule walk at opt 0/1 and at opt 2.  A
    #: ceiling: a scheduler edit may lower these, never raise them.
    REACT_CEILINGS = {
        "fig2d-detailed-4": (76, 75),
        "fig2a-2x2": (112, 112),
        "fig2d-statistical-8": (46, 46),
        "ooo": (11, 11),
    }

    @staticmethod
    def _pinned_spec(name):
        from repro.systems import build_fig2a_cmp
        from repro.systems.fig2d import build_fig2d
        if name == "fig2d-detailed-4":
            return build_fig2d(4, backend="detailed", field="detailed")[0]
        if name == "fig2a-2x2":
            return build_fig2a_cmp(2, 2)[0]
        if name == "fig2d-statistical-8":
            return build_fig2d(8, field="statistical")[0]
        return ooo_spec()

    @pytest.mark.parametrize("name", sorted(REACT_CEILINGS))
    def test_react_calls_do_not_exceed_the_pinned_counts(self, name):
        low, high = self.REACT_CEILINGS[name]
        design = build_design(self._pinned_spec(name))
        graph = build_signal_graph(design)
        base = build_schedule(design, graph=graph)
        assert react_calls(base) <= low
        for level, ceiling in ((1, low), (2, high)):
            result = optimize_model(design, level=level, graph=graph,
                                    schedule=base)
            assert react_calls(result.schedule) <= ceiling


class TestGoldenPassSnapshots:
    """Before/after IR snapshots on a hand-built design."""

    def test_cut_spec_dead_code(self):
        design = build_design(_cut_spec())
        graph = build_signal_graph(design)
        handed_in = build_schedule(design, graph=graph)
        # One occurrence per instance, the queue's two groups in one
        # react: the schedule arrives fused.
        assert schedule_signature(handed_in) \
            == ["q(2g)", "snk(1g)", "src(1g)"]

        result = optimize_model(design, level=2, graph=graph,
                                schedule=handed_in)
        assert result.block["dead_instances"] == ["snk"]
        assert len(result.block["dead_wires"]) == 1
        # dead-code drops the dead sink's entry itself and leaves the
        # caller's list alone.
        assert schedule_signature(result.schedule) == ["q(2g)", "src(1g)"]
        assert schedule_signature(handed_in) \
            == ["q(2g)", "snk(1g)", "src(1g)"]

    def test_pipe_fusion_collapses_queue_levels(self):
        design = build_design(simple_pipe_spec())
        entries = build_schedule(design)
        assert schedule_signature(entries) \
            == ["q(2g)", "snk(1g)", "src(1g)"]
        assert react_calls(entries) == 3

    def test_level_1_skips_dead_code(self):
        design = build_design(_cut_spec())
        base = build_schedule(design)
        # Level 1 is the same staged path with an empty pass list.
        result = optimize_model(design, level=1, schedule=base)
        assert result.block["dead_instances"] == []
        assert result.block["dead_wires"] == []
        assert result.block["passes"] == []
        assert result.schedule == base
        result2 = optimize_model(design, level=2, schedule=base)
        assert result2.block["dead_instances"] == ["snk"]
        assert result2.block["passes"] == ["dead-code"]

    def test_fig2d_headline_numbers(self):
        """The measured wins the README cites, pinned as goldens."""
        design = _fig2d_design("detailed")
        graph = build_signal_graph(design)
        base = build_schedule(design, graph=graph)
        assert react_calls(base) == 46
        result = optimize_model(design, level=2, graph=graph, schedule=base)
        assert react_calls(result.schedule) == 45
        assert result.block["dead_instances"] == ["gateway/txstub"]
        assert len(result.block["dead_wires"]) == 2

        stat = _fig2d_design("statistical")
        g2 = build_signal_graph(stat)
        b2 = build_schedule(stat, graph=g2)
        assert react_calls(b2) == 34
        r2 = optimize_model(stat, level=2, graph=g2, schedule=b2)
        assert react_calls(r2.schedule) == 34
        assert r2.block["dead_instances"] == []

    def test_block_is_json_portable(self):
        import json
        design = _fig2d_design("detailed")
        block = optimize_model(design, level=2).block
        clone = json.loads(json.dumps(block))
        assert clone == block
        assert clone["version"] == OPT_VERSION
        assert clone["level"] == 2
        assert sorted(clone) == ["dead_instances", "dead_wires", "level",
                                 "passes", "version"]


class TestEliminationMatchesAnalysis:
    """Satellite: the rewriter eliminates exactly what the analysis
    layer diagnoses — on Figure 2(d), the detached transmitter stub."""

    def test_fig2d_eliminated_set_equals_analysis_findings(self):
        from repro.analysis.connectivity import dead_instance_paths
        design = _fig2d_design("detailed")
        isolated, unreachable = dead_instance_paths(design)
        analysis = sorted(set(isolated) | set(unreachable))
        assert analysis == ["gateway/txstub"]
        removable, _wids = eliminable_instances(design)
        assert sorted(removable) == analysis
        result = optimize_model(design, level=2)
        assert result.block["dead_instances"] == analysis

    def test_cut_spec_isolated_sink(self):
        from repro.analysis.connectivity import dead_instance_paths
        design = build_design(_cut_spec())
        isolated, unreachable = dead_instance_paths(design)
        assert sorted(set(isolated) | set(unreachable)) == ["snk"]
        assert optimize_model(design, level=2).block["dead_instances"] \
            == ["snk"]


# ----------------------------------------------------------------------
# Cross-engine differentials: optimization is observationally invisible
# ----------------------------------------------------------------------
ALL_ENGINES = ("worklist", "levelized", "batched")


def _fig2a_spec():
    from repro.systems.fig2a import build_fig2a_cmp
    return build_fig2a_cmp(2, 2)[0]


def _fig2b_spec():
    from repro.systems.fig2b import build_fig2b_sensors
    return build_fig2b_sensors(n_nodes=3, loss=0.1, seed=2)[0]


def _fig2c_spec():
    from repro.systems.fig2c import build_fig2c_grid
    return build_fig2c_grid(n_nodes=4, k_words=2)[0]


def _fig2d_spec():
    from repro.systems.fig2d import build_fig2d
    return build_fig2d(n_sensors=2, backend="detailed")[0]


def _refinement_spec():
    from repro.systems.refinement import build_stage
    return build_stage(3)[0]


SYSTEMS = {"fig2a": _fig2a_spec, "fig2b": _fig2b_spec,
           "fig2c": _fig2c_spec, "fig2d": _fig2d_spec,
           "refinement": _refinement_spec}


def _observe(sim):
    return {"now": sim.now, "transfers": sim.transfers_total,
            "relaxations": sim.relaxations_total,
            "report": sim.stats.report(),
            "wires": list(sim.design.store.transfers)}


class TestCrossEngineDifferential:
    """Every engine x every shipped system: opt 0/1/2 bit-identity."""

    CYCLES = 60

    @pytest.mark.parametrize("system", sorted(SYSTEMS), ids=sorted(SYSTEMS))
    def test_opt_levels_are_bit_identical(self, engine, system):
        build = SYSTEMS[system]
        baseline = None
        for level in (0, 1, 2):
            sim = build_simulator(build(), engine=engine, seed=7, opt=level)
            sim.run(self.CYCLES)
            assert sim.opt_level == level
            observed = _observe(sim)
            sim.close()
            if baseline is None:
                baseline = observed
            else:
                assert observed == baseline, (
                    f"{system} under {engine} diverged at --opt {level}")

    def test_dead_instance_never_reacts_at_opt_2(self):
        sim = build_simulator(_fig2d_spec(), engine="levelized", seed=7,
                              opt=2)
        try:
            assert "gateway/txstub" in {i.path for i in sim._instances}
            assert "gateway/txstub" not in {i.path
                                            for i in sim._react_instances}
            assert "gateway/txstub" not in {i.path for i in sim._updaters}
            sim.run(30)
        finally:
            sim.close()

    @pytest.mark.parametrize("engine", ("levelized", "batched", PLANLESS),
                             indirect=True)
    def test_nothing_is_unknown_at_end_of_step_at_opt_2(self, engine):
        # Parking the dead wires must subtract exactly their budget: a
        # schedule that dropped an entry it still needed would leave
        # signals unknown (and lean on the fallback) instead.
        from repro.systems.fig2d import build_fig2d
        spec = build_fig2d(4, backend="detailed", field="detailed")[0]
        sim = build_simulator(spec, engine=engine, seed=7, opt=2)
        try:
            lanes = sim.lanes if hasattr(sim, "lanes") else (sim,)
            for _ in range(20):
                sim.step()
                assert [lane.design.store.unknown for lane in lanes] \
                    == [0] * len(lanes)
            assert all(lane.fallback_steps == 0 for lane in lanes)
        finally:
            sim.close()

    def test_no_engine_mutates_wire_control(self):
        # Animation, stepping and close() leave the controls of the
        # design they are handed alone, identity controls included.
        for engine in ALL_ENGINES:
            spec = TestFailedBuildRestore._spec({"explode": False})
            sim = build_simulator(spec, engine=engine, seed=1, opt=2)
            design = (sim.lane(0) if hasattr(sim, "lane") else sim).design
            controls = list(design.store.control)
            assert sum(c is not None for c in controls) == 1
            sim.run(10)
            assert list(design.store.control) == controls, engine
            sim.close()
            assert list(design.store.control) == controls, engine


class TestFailedBuildRestore:
    """Satellite regression: a build that raises *after* the optimizer
    applied (reacts pre-bound, backrefs installed) must leave the Design
    exactly as found — ownership released, plain reacts restored — so
    a retry at ``--opt 0`` behaves like a fresh Design."""

    @staticmethod
    def _spec(flag):
        from repro.core import INPUT, LeafModule, Parameter, PortDecl
        from repro.core.control import ControlFunction

        class FragileSink(LeafModule):
            PARAMS = (Parameter("flag", None),)
            PORTS = (PortDecl("in", INPUT, min_width=1),)
            DEPS = {}

            def init(self):
                if self.p["flag"]["explode"]:
                    raise RuntimeError("boom: fragile init")

            def react(self):
                inp = self.port("in")
                for i in range(inp.width):
                    inp.set_ack(i, True)

            def update(self):
                inp = self.port("in")
                for i in range(inp.width):
                    if inp.took(i):
                        self.collect("consumed")

        spec = LSS("fragile")
        src = spec.instance("src", Source, pattern="counter")
        q = spec.instance("q", Queue, depth=4)
        snk = spec.instance("snk", FragileSink, flag=flag)
        # An identity control: no engine may strip (or drop) it.
        spec.connect(src.port("out"), q.port("in"),
                     control=ControlFunction())
        spec.connect(q.port("out"), snk.port("in"))
        return spec

    def test_failed_opt2_build_leaves_design_reusable(self):
        from repro.core.optimize import LevelizedSimulator

        flag = {"explode": False}
        # Premise check: a successful build of this spec really does
        # pre-bind reacts and carry an opt-2 block.
        probe_sim = LevelizedSimulator(build_design(self._spec(flag)),
                                       seed=3, opt=2)
        assert probe_sim.compiled.opt["level"] == 2
        assert all("react" in inst.__dict__
                   for inst in probe_sim.design.leaves.values())
        probe_sim.close()

        flag["explode"] = True
        design = build_design(self._spec(flag))
        before_controls = list(design.store.control)
        assert any(c is not None for c in before_controls)
        with pytest.raises(RuntimeError, match="boom"):
            LevelizedSimulator(design, seed=3, opt=2)
        # The failed build abandoned cleanly: no ownership, controls
        # untouched, plain reacts back, no dangling engine backrefs.
        assert design._owned is False
        assert list(design.store.control) == before_controls
        assert design.store.hook is None
        assert all(inst.sim is None for inst in design.leaves.values())
        assert all(inst.react.__func__ is type(inst).react
                   for inst in design.leaves.values())

        # The same Design object reruns at --opt 0, bit-identical to a
        # run on a freshly built Design.
        flag["explode"] = False
        sim = LevelizedSimulator(design, seed=3, opt=0)
        sim.run(60)
        reused = _observe(sim)
        sim.close()
        fresh_sim = LevelizedSimulator(
            build_design(self._spec({"explode": False})), seed=3, opt=0)
        fresh_sim.run(60)
        assert _observe(fresh_sim) == reused
        fresh_sim.close()


class TestStateDictRoundtrip:
    """Checkpoints taken on optimized models restore everywhere."""

    def test_same_level_roundtrip_at_opt_2(self, engine):
        # Interrupted-and-resumed at opt 2 must match the uninterrupted
        # opt 2 run (the test_checkpoint contract, on optimized IR).
        def pipe():
            return simple_pipe_spec(rate=0.6, seed=3)

        sim = build_simulator(pipe(), engine=engine, seed=5, opt=2)
        sim.run(40)
        snapshot = sim.state_dict()
        sim.run(40)
        final = (sim.now, sim.stats.report(),
                 list(sim.design.store.transfers))
        sim.close()

        sim2 = build_simulator(pipe(), engine=engine, seed=5, opt=2)
        sim2.load_state_dict(snapshot)
        sim2.run(40)
        assert (sim2.now, sim2.stats.report(),
                list(sim2.design.store.transfers)) == final
        sim2.close()

    def test_cross_level_roundtrip(self):
        # opt 2 -> opt 0 and back: the optimized schedule touches the
        # same state space, so checkpoints cross levels freely.
        def run(opt, snapshot=None, cycles=50):
            sim = build_simulator(simple_pipe_spec(rate=0.6, seed=3),
                                  engine="levelized", seed=9, opt=opt)
            if snapshot is not None:
                sim.load_state_dict(snapshot)
            sim.run(cycles)
            observed = _observe(sim)
            snap = sim.state_dict()
            sim.close()
            return observed, snap

        _obs, snap = run(2)
        from_opt2, _ = run(0, snapshot=snap)
        from_opt2_again, _ = run(2, snapshot=snap)
        assert from_opt2 == from_opt2_again


class TestOptimizedCache:
    """Composite keying and the warm-construction pipeline skip."""

    def test_opt_compile_stores_base_and_composite(self, private_cache):
        spec = simple_pipe_spec()
        sim = build_simulator(spec, engine="levelized", opt=2)
        sim.close()
        fingerprint = cc.design_fingerprint(build_design(simple_pipe_spec()))
        assert private_cache.lookup(fingerprint) is not None
        assert private_cache.lookup(opt_cache_key(fingerprint, 2)) \
            is not None

    def test_levels_cache_under_distinct_keys(self, private_cache):
        for level in (1, 2):
            build_simulator(simple_pipe_spec(), engine="levelized",
                            opt=level).close()
        fingerprint = cc.design_fingerprint(build_design(simple_pipe_spec()))
        assert private_cache.lookup(opt_cache_key(fingerprint, 1)) \
            is not None
        assert private_cache.lookup(opt_cache_key(fingerprint, 2)) \
            is not None

    def test_warm_construction_skips_pipeline(self, private_cache):
        build_simulator(simple_pipe_spec(), engine="levelized",
                        opt=2).close()
        runs = opt_pipeline.PIPELINE_RUNS
        sim = build_simulator(simple_pipe_spec(), engine="levelized", opt=2)
        assert sim.compiled_from_cache
        assert sim.opt_level == 2
        sim.close()
        assert opt_pipeline.PIPELINE_RUNS == runs  # pipeline never ran

    def test_disk_hit_skips_pipeline_in_new_process(self, private_cache):
        build_simulator(simple_pipe_spec(), engine="levelized",
                        opt=2).close()
        cc.configure(disk_dir=private_cache.disk_dir)  # "new process"
        runs = opt_pipeline.PIPELINE_RUNS
        sim = build_simulator(simple_pipe_spec(), engine="levelized", opt=2)
        assert sim.compiled_from_cache
        sim.close()
        assert opt_pipeline.PIPELINE_RUNS == runs

    def test_warm_hit_reproduces_cold_run(self, private_cache):
        def observe():
            sim = build_simulator(_fig2d_spec(), engine="levelized", seed=7,
                                  opt=2)
            sim.run(60)
            observed = _observe(sim)
            from_cache = sim.compiled_from_cache
            sim.close()
            return observed, from_cache

        cold, cold_hit = observe()
        warm, warm_hit = observe()
        assert not cold_hit and warm_hit
        assert warm == cold

    def test_disabled_cache_still_optimizes(self):
        cc.configure(enabled=False)
        sim = build_simulator(_fig2d_spec(), engine="levelized", opt=2)
        try:
            assert sim.opt_level == 2
            assert not sim.compiled_from_cache
            sim.run(20)
        finally:
            sim.close()


class TestBuildSimulatorKnobs:
    def test_opt_kwarg_reaches_every_engine(self):
        for engine in ALL_ENGINES:
            sim = build_simulator(simple_pipe_spec(), engine=engine, opt=1)
            assert sim.opt_level == 1, engine
            sim.close()

    def test_env_default_applies_without_kwarg(self, monkeypatch):
        monkeypatch.setenv("REPRO_OPT", "2")
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        assert sim.opt_level == 2
        sim.close()

    def test_invalid_level_raises_before_construction(self):
        with pytest.raises(SpecificationError, match="0..2"):
            build_simulator(simple_pipe_spec(), engine="levelized", opt=9)


class TestExplainReport:
    def test_report_names_the_pass_run(self):
        design = _fig2d_design("detailed")
        text = explain_report(design, 2)
        assert "passes run: dead-code" in text
        assert "passes run: none" in explain_report(design, 1)
        assert "specializ" not in text
        assert "gateway/txstub" in text
        assert "46->45" in text

    def test_level_0_reports_disabled(self):
        design = build_design(simple_pipe_spec())
        assert "pipeline disabled" in explain_report(design, 0)
