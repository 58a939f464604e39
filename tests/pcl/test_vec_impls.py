"""Differential acceptance tests for the PCL vec implementations.

Every parts-catalog template with a vectorized lane implementation —
Source, Sink, Queue, Buffer and the PR's additions PipelineReg, Delay,
Tee, Mux, Demux, Arbiter — must produce **bit-identical** per-lane
results under a planned :class:`BatchedSimulator`: statistics, transfer
counts, relaxations and per-wire transfer tallies all equal to a
standalone :class:`LevelizedSimulator` run (and to a plan-less batch)
of the same design and seed.

The Mealy templates (PipelineReg, Tee, Mux, Demux, Arbiter) exercise
the re-entrant vec-react path: their ``("vec", k)`` schedule entry runs
at every occurrence, refining only the lanes whose inputs have
resolved.  The suite also pins the per-lane parameter broadcasting
contract: lane-divergent *numeric* bindings (rates, depths, latencies)
stay on the SoA fast path, while divergent *structural* bindings
(patterns, modes, policies) demote that instance to the scalar path —
bit-identically either way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LSS, build_design, build_simulator
from repro.core.batched import BatchedSimulator
from repro.core.optimize import LevelizedSimulator
from repro.pcl import Queue, Sink, Source
from repro.pcl.arbiter import Arbiter, fixed_priority, oldest_first, round_robin
from repro.pcl.queue import Delay, PipelineReg
from repro.pcl.routing import Demux, Mux, Tee
from repro.systems.fig2d import build_fig2d

from ..conftest import planless_batch


def _observe(sim):
    return {"now": sim.now, "transfers": sim.transfers_total,
            "relaxations": sim.relaxations_total,
            "fallback": sim.fallback_steps,
            "report": sim.stats.report(),
            "wires": list(sim.design.store.transfers)}


def _solo_run(design, seed, cycles):
    sim = LevelizedSimulator(design, seed=seed)
    sim.run(cycles)
    observed = _observe(sim)
    sim.close()
    return observed


# ----------------------------------------------------------------------
# Spec builders: one small system per new vec implementation.
# ----------------------------------------------------------------------

def _reg_delay_spec(rate=0.5, latency=2, drop=False):
    spec = LSS("regdelay")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        seed=3)
    reg = spec.instance("reg", PipelineReg)
    dly = spec.instance("dly", Delay, latency=latency, drop=drop)
    snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.7, seed=5)
    spec.connect(src.port("out"), reg.port("in"))
    spec.connect(reg.port("out"), dly.port("in"))
    spec.connect(dly.port("out"), snk.port("in"))
    return spec


def _tee_spec(mode="all", rate=0.6):
    spec = LSS("teecfg")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        seed=3)
    tee = spec.instance("tee", Tee, mode=mode)
    s1 = spec.instance("s1", Sink, accept="bernoulli", rate=0.8, seed=5)
    s2 = spec.instance("s2", Sink, accept="bernoulli", rate=0.5, seed=7)
    spec.connect(src.port("out"), tee.port("in"))
    spec.connect(tee.port("out"), s1.port("in"))
    spec.connect(tee.port("out"), s2.port("in"))
    return spec


def _route_mod(value, width, now):
    return value % width


def _arb_demux_spec(policy=round_robin, rate=0.5):
    spec = LSS("arbdmx")
    a = spec.instance("a", Source, pattern="counter", seed=1)
    b = spec.instance("b", Source, pattern="bernoulli", rate=rate,
                      payload=7, seed=2)
    arb = spec.instance("arb", Arbiter, policy=policy)
    dmx = spec.instance("dmx", Demux, route=_route_mod)
    s1 = spec.instance("s1", Sink, accept="bernoulli", rate=0.9, seed=5)
    s2 = spec.instance("s2", Sink, accept="bernoulli", rate=0.4, seed=6)
    spec.connect(a.port("out"), arb.port("in"))
    spec.connect(b.port("out"), arb.port("in"))
    spec.connect(arb.port("out"), dmx.port("in"))
    spec.connect(dmx.port("out"), s1.port("in"))
    spec.connect(dmx.port("out"), s2.port("in"))
    return spec


def _mux_spec(rate=0.5):
    spec = LSS("muxcfg")
    a = spec.instance("a", Source, pattern="bernoulli", rate=rate,
                      payload=3, seed=1)
    b = spec.instance("b", Source, pattern="always", payload=9)
    sel = spec.instance("sel", Source, pattern="counter", seed=2)
    mux = spec.instance("mux", Mux)
    snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.8, seed=4)
    spec.connect(a.port("out"), mux.port("in"))
    spec.connect(b.port("out"), mux.port("in"))
    spec.connect(sel.port("out"), mux.port("sel"))
    spec.connect(mux.port("out"), snk.port("in"))
    return spec


def _fig2d_statistical_design(i, n_sensors=2):
    spec, _info = build_fig2d(n_sensors, field="statistical",
                              backend="statistical",
                              backend_rate=0.3 + (i % 7) * 0.1, seed=i)
    return build_design(spec)


class TestVecImplBitIdentity:
    """Each new impl: vectorized lanes == standalone levelized runs."""

    def _differential(self, make_design, variants, cycles=150, base_seed=5,
                      expect_paths=(), full_coverage=False):
        designs = [make_design(v) for v in variants]
        seeds = [base_seed + i for i in range(len(variants))]
        batch = BatchedSimulator(designs, seeds=seeds)
        batch.run(cycles)
        plan = batch.vec_plan
        assert plan is not None
        for path in expect_paths:
            assert path in plan.vec_paths, (
                f"{path} demoted; vec_paths={sorted(plan.vec_paths)}")
        if full_coverage:
            assert plan.n_wires == len(designs[0].wires)
            assert plan.vec_paths == set(designs[0].leaves)
        lanes = [_observe(batch.lane(i)) for i in range(len(variants))]
        batch.close()
        for i, v in enumerate(variants):
            solo = _solo_run(make_design(v), seeds[i], cycles)
            assert lanes[i] == solo, f"lane {i} (variant {v!r}) diverged"
        return lanes

    def test_pipeline_reg_and_delay(self):
        lanes = self._differential(
            lambda r: build_design(_reg_delay_spec(rate=r)),
            [0.3, 0.6, 0.9], expect_paths=("reg", "dly"),
            full_coverage=True)
        # Real vec execution, not per-step scalar rescue.
        assert all(obs["fallback"] == 0 for obs in lanes)

    def test_delay_lane_divergent_latency_and_drop(self):
        # latency is a VEC_LANE_PARAM: a sweep over it must stay in one
        # lockstep batch with the delay on the SoA path.
        self._differential(
            lambda lat: build_design(_reg_delay_spec(rate=0.7, latency=lat,
                                                     drop=True)),
            [1, 2, 5], expect_paths=("reg", "dly"), full_coverage=True)

    def test_tee_all(self):
        self._differential(lambda r: build_design(_tee_spec("all", rate=r)),
                           [0.4, 0.8], expect_paths=("tee",),
                           full_coverage=True)

    def test_tee_any(self):
        self._differential(lambda r: build_design(_tee_spec("any", rate=r)),
                           [0.4, 0.8], expect_paths=("tee",),
                           full_coverage=True)

    def test_mux(self):
        self._differential(lambda r: build_design(_mux_spec(rate=r)),
                           [0.3, 0.8], expect_paths=("mux",),
                           full_coverage=True)

    def test_arbiter_round_robin_with_demux(self):
        self._differential(
            lambda r: build_design(_arb_demux_spec(round_robin, r)),
            [0.3, 0.7], expect_paths=("arb", "dmx"), full_coverage=True)

    def test_arbiter_fixed_priority_with_demux(self):
        self._differential(
            lambda r: build_design(_arb_demux_spec(fixed_priority, r)),
            [0.3, 0.7], expect_paths=("arb", "dmx"), full_coverage=True)

    def test_oldest_first_policy_stays_scalar(self):
        # An algorithmic policy outside the vectorized pair demotes the
        # arbiter to the scalar path — and stays bit-identical there.
        designs = [build_design(_arb_demux_spec(oldest_first, r))
                   for r in (0.3, 0.7)]
        batch = BatchedSimulator(designs, seeds=[5, 6])
        batch.run(120)
        plan = batch.vec_plan
        assert plan is not None and "arb" not in plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        batch.close()
        for i, r in enumerate((0.3, 0.7)):
            solo = _solo_run(build_design(_arb_demux_spec(oldest_first, r)),
                             5 + i, 120)
            assert lanes[i] == solo


class TestLaneParamBroadcast:
    """Numeric lane params broadcast; structural divergence demotes."""

    def test_source_rate_random_sweep_no_demotion(self):
        # The acceptance sweep: random per-lane rates stay in a single
        # fully vectorized lockstep batch.
        rng = np.random.default_rng(0)
        rates = [float(r) for r in rng.uniform(0.05, 0.95, size=8)]
        designs = [build_design(_reg_delay_spec(rate=r)) for r in rates]
        batch = BatchedSimulator(
            designs, seeds=list(range(10, 18)))
        batch.run(120)
        plan = batch.vec_plan
        assert plan is not None
        assert plan.n_wires == len(designs[0].wires)
        assert plan.vec_paths == set(designs[0].leaves)
        lanes = [_observe(batch.lane(i)) for i in range(8)]
        batch.close()
        for i, r in enumerate(rates):
            assert lanes[i] == _solo_run(build_design(_reg_delay_spec(rate=r)),
                                         10 + i, 120), f"lane {i} diverged"

    def test_divergent_tee_mode_demotes(self):
        # 'mode' is a VEC_UNIFORM_PARAM: mixing 'all' and 'any' lanes
        # demotes the tee — and, every neighbour being stranded by it
        # in this tiny system, the whole plan collapses to scalar.
        designs = [build_design(_tee_spec(mode, rate=0.6))
                   for mode in ("all", "any")]
        batch = BatchedSimulator(designs, seeds=[3, 4])
        batch.run(100)
        plan = batch.vec_plan
        assert plan is None or "tee" not in plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        batch.close()
        for i, mode in enumerate(("all", "any")):
            assert lanes[i] == _solo_run(
                build_design(_tee_spec(mode, rate=0.6)), 3 + i, 100)

    def test_divergent_route_callable_still_vectorizes(self):
        # Demux routing is invoked per lane with that lane's bound
        # callable, so lanes may carry *different* route functions.
        def route_flip(value, width, now):
            return (value + 1) % width

        def make(route):
            spec = _arb_demux_spec(round_robin, 0.5)
            spec_d = build_design(spec)
            return spec_d if route is None else build_design(
                _arb_demux_spec_with_route(route))

        def _arb_demux_spec_with_route(route):
            spec = LSS("arbdmx")
            a = spec.instance("a", Source, pattern="counter", seed=1)
            b = spec.instance("b", Source, pattern="bernoulli", rate=0.5,
                              payload=7, seed=2)
            arb = spec.instance("arb", Arbiter, policy=round_robin)
            dmx = spec.instance("dmx", Demux, route=route)
            s1 = spec.instance("s1", Sink, accept="bernoulli", rate=0.9,
                               seed=5)
            s2 = spec.instance("s2", Sink, accept="bernoulli", rate=0.4,
                               seed=6)
            spec.connect(a.port("out"), arb.port("in"))
            spec.connect(b.port("out"), arb.port("in"))
            spec.connect(arb.port("out"), dmx.port("in"))
            spec.connect(dmx.port("out"), s1.port("in"))
            spec.connect(dmx.port("out"), s2.port("in"))
            return spec

        routes = (None, route_flip)
        designs = [make(r) for r in routes]
        batch = BatchedSimulator(designs, seeds=[8, 9])
        batch.run(120)
        plan = batch.vec_plan
        assert plan is not None and "dmx" in plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        batch.close()
        for i, r in enumerate(routes):
            assert lanes[i] == _solo_run(make(r), 8 + i, 120)

    def test_state_dict_roundtrip_across_paths(self):
        # All six new impls live in the fig2d statistical field; a
        # checkpoint taken mid-run on the vec plan restores onto a
        # plan-less batch and back, continuing to the same final state.
        def designs():
            return [_fig2d_statistical_design(i) for i in range(3)]

        vec = BatchedSimulator(designs(), seeds=[4, 5, 6])
        vec.run(60)
        snapshot = vec.state_dict()
        vec.run(60)
        final = [_observe(vec.lane(i)) for i in range(3)]
        vec.close()

        scalar = planless_batch(designs(), seeds=[4, 5, 6])
        scalar.load_state_dict(snapshot)
        scalar.run(60)
        assert scalar.vec_plan is None
        assert [_observe(scalar.lane(i)) for i in range(3)] == final
        snapshot2 = scalar.state_dict()
        scalar.close()

        vec2 = BatchedSimulator(designs(), seeds=[4, 5, 6])
        vec2.load_state_dict(snapshot2)
        assert [_observe(vec2.lane(i)) for i in range(3)] == final
        vec2.close()


class TestBatchSizes:
    """The vec plan agrees with the plan-less batch at every batch size
    the acceptance criteria name: 1, 64 and 256."""

    @pytest.mark.parametrize("n_lanes", [1, 64, 256])
    def test_matches_planless_batch(self, n_lanes):
        rng = np.random.default_rng(7)
        rates = [float(r) for r in rng.uniform(0.1, 0.9, size=n_lanes)]
        seeds = list(range(100, 100 + n_lanes))
        cycles = 60 if n_lanes > 8 else 150

        vec = BatchedSimulator(
            [build_design(_reg_delay_spec(rate=r)) for r in rates],
            seeds=seeds)
        vec.run(cycles)
        assert vec.vec_plan is not None
        vec_lanes = [_observe(vec.lane(i)) for i in range(n_lanes)]
        vec.close()

        scalar = planless_batch(
            [build_design(_reg_delay_spec(rate=r)) for r in rates],
            seeds=seeds)
        scalar.run(cycles)
        assert scalar.vec_plan is None
        assert [_observe(scalar.lane(i))
                for i in range(n_lanes)] == vec_lanes
        scalar.close()


class TestFig2dStatisticalField:
    """The tentpole's showcase: the fig2d field tier at the statistical
    abstraction level is built from vectorizable templates only."""

    def test_field_validation(self):
        with pytest.raises(ValueError, match="unknown field"):
            build_fig2d(2, field="quantum")

    def test_build_and_run_levelized(self):
        from repro.systems.fig2d import run_fig2d
        out = run_fig2d(2, field="statistical", backend="statistical",
                        engine="levelized", max_cycles=1000)
        try:
            assert out["field"] == "statistical"
            assert out["transmissions"] > 0
            assert out["summaries_delivered"] > 0
            # The audit tap sees every summary the taps broadcast.
            assert out["sim"].stats.counter("audit", "consumed") > 0
        finally:
            out["sim"].close()

    def test_full_vectorization_no_fallback(self):
        designs = [_fig2d_statistical_design(i) for i in range(4)]
        batch = BatchedSimulator(designs,
                                           seeds=[20 + i for i in range(4)])
        batch.run(200)
        plan = batch.vec_plan
        assert plan is not None
        assert plan.n_wires == len(designs[0].wires)
        assert plan.vec_paths == set(designs[0].leaves)
        lanes = [_observe(batch.lane(i)) for i in range(4)]
        batch.close()
        assert all(obs["fallback"] == 0 for obs in lanes)
        for i in range(4):
            assert lanes[i] == _solo_run(_fig2d_statistical_design(i),
                                         20 + i, 200), f"lane {i} diverged"

    def test_three_engine_bit_identity(self):
        # worklist / levelized solo runs, plus one lane each of a
        # planned and a plan-less batch: identical observable results.
        def design():
            return _fig2d_statistical_design(0)

        def strip(obs):
            # The worklist engine has no fallback counter.
            return {k: v for k, v in obs.items() if k != "fallback"}

        results = {}
        for engine in ("worklist", "levelized"):
            spec, _info = build_fig2d(2, field="statistical",
                                      backend="statistical",
                                      backend_rate=0.3, seed=0)
            sim = build_simulator(spec, engine=engine, seed=42)
            sim.run(150)
            results[engine] = {
                "now": sim.now, "transfers": sim.transfers_total,
                "relaxations": sim.relaxations_total,
                "report": sim.stats.report(),
                "wires": list(sim.design.store.transfers)}
            sim.close()
        for make, name in ((BatchedSimulator, "batched"),
                           (planless_batch, "batched plan-less")):
            batch = make([design(), design()], seeds=[42, 42])
            batch.run(150)
            lane = batch.lane(0)
            results[name] = {
                "now": lane.now, "transfers": lane.transfers_total,
                "relaxations": lane.relaxations_total,
                "report": lane.stats.report(),
                "wires": list(lane.design.store.transfers)}
            batch.close()
        reference = results["levelized"]
        for name, obs in results.items():
            assert obs == reference, f"engine {name} diverged"

    def test_detailed_field_unchanged(self):
        spec, info = build_fig2d(2, field="detailed", backend="statistical")
        assert info["field"] == "detailed"
        design = build_design(spec)
        assert "node1/core" in design.leaves
        assert "tap1" not in design.leaves


class TestSupportsAllInstances:
    """Satellite regression: supports() must validate *every* instance,
    not just insts[0] — a mixed-shape group must be rejected."""

    @staticmethod
    def _queue_design(out_fanout=1, in_fanin=1):
        spec = LSS("qshape")
        q = spec.instance("q", Queue, depth=4)
        for i in range(in_fanin):
            src = spec.instance(f"src{i}", Source, pattern="counter")
            spec.connect(src.port("out"), q.port("in"))
        for i in range(out_fanout):
            snk = spec.instance(f"snk{i}", Sink)
            spec.connect(q.port("out"), snk.port("in"))
        return build_design(spec)

    @staticmethod
    def _buffer_design(with_upd):
        from repro.pcl.buffer import Buffer
        spec = LSS("bshape")
        src = spec.instance("src", Source, pattern="counter")
        buf = spec.instance("buf", Buffer, depth=4)
        snk = spec.instance("snk", Sink)
        spec.connect(src.port("out"), buf.port("in"))
        spec.connect(buf.port("out"), snk.port("in"))
        if with_upd:
            upd = spec.instance("upd", Source, pattern="bernoulli",
                                rate=0.2, seed=9)
            spec.connect(upd.port("out"), buf.port("upd"))
        return build_design(spec)

    def test_vec_queue_rejects_mixed_out_width(self):
        from repro.pcl.vec import VecQueue
        narrow = self._queue_design(out_fanout=1).leaves["q"]
        wide = self._queue_design(out_fanout=2).leaves["q"]
        assert VecQueue.supports([narrow, narrow]) is True
        # Regression: a conforming insts[0] must not mask a wide lane.
        assert VecQueue.supports([narrow, wide]) is False
        assert VecQueue.supports([wide, narrow]) is False

    def test_vec_queue_rejects_mixed_in_width(self):
        from repro.pcl.vec import VecQueue
        one = self._queue_design(in_fanin=1).leaves["q"]
        two = self._queue_design(in_fanin=2).leaves["q"]
        assert VecQueue.supports([one, two]) is False
        assert VecQueue.supports([two, one]) is False
        # Uniformly wide inputs are fine: SoA columns line up.
        two_b = self._queue_design(in_fanin=2).leaves["q"]
        assert VecQueue.supports([two, two_b]) is True

    def test_vec_buffer_rejects_mixed_upd_width(self):
        from repro.pcl.vec import VecBuffer
        plain = self._buffer_design(with_upd=False).leaves["buf"]
        upd = self._buffer_design(with_upd=True).leaves["buf"]
        assert VecBuffer.supports([plain, plain]) is True
        assert VecBuffer.supports([plain, upd]) is False
        assert VecBuffer.supports([upd, plain]) is False
