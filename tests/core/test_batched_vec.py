"""Differential tests for the lockstep engine's vec plan.

Per-lane results from a planned :class:`BatchedSimulator` must be
**bit-identical** to standalone :class:`LevelizedSimulator` runs of the
same designs and seeds — whether a signal resolved through the numpy
structure-of-arrays fast path or through the per-wire scalar fallback
(probed wires, unsupported parameter bindings, mixed patterns) — and
to the plan-less batch, whose lanes each run their own static stepper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import LSS, build_design, build_simulator
from repro.core import INPUT, LeafModule, PortDecl
from repro.core.backends import resolve_engine
from repro.core.batched import BatchedSimulator
from repro.core.optimize import LevelizedSimulator
from repro.core.vec import LaneRng
from repro.obs import Profiler
from repro.pcl import PipelineReg, Queue, Sink, Source
from repro.systems.fig2a import build_fig2a_cmp
from repro.systems.fig2b import build_fig2b_sensors
from repro.systems.fig2c import build_fig2c_grid
from repro.systems.fig2d import build_fig2d

from ..conftest import force_planless, planless_batch, simple_pipe_spec
from .test_comb_cycles import _clustered_spec


def _pipe_design(rate=0.5, depth=4):
    return build_design(simple_pipe_spec(depth=depth, rate=rate))


def _vec_pipe_spec(rate=0.5, sink_rate=1.0, depth=4):
    """A pipe whose every instance vectorizes (uniform patterns)."""
    spec = LSS("vecpipe")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        payload=1, seed=3)
    q = spec.instance("q", Queue, depth=depth)
    if sink_rate >= 1.0:
        snk = spec.instance("snk", Sink)
    else:
        snk = spec.instance("snk", Sink, accept="bernoulli",
                            rate=sink_rate, seed=7)
    spec.connect(src.port("out"), q.port("in"))
    spec.connect(q.port("out"), snk.port("in"))
    return spec


def _fig2d_statistical(i, n_sensors=8):
    """Lane ``i`` of a fig2d-statistical sweep: every wire vectorizes."""
    return build_design(build_fig2d(
        n_sensors, field="statistical", backend="statistical",
        aggregate_every=2 + i % 5, backend_rate=0.3 + 0.1 * (i % 4),
        seed=i)[0])


def _fig2d_mixed(i):
    """Lane ``i`` of a stock fig2d sweep: mostly scalar, two vec
    instances (the gateway queue and the statistical CMP tier)."""
    return build_design(build_fig2d(
        2, aggregate_every=(2, 4, 8)[i % 3],
        backend_rate=0.2 + 0.1 * (i % 5))[0])


class LateSink(LeafModule):
    """A sink with an over-optimistic ``DEPS``: its ack waits for the
    data, so a schedule walk leaves it unresolved and every step takes
    the fallback."""

    PORTS = (PortDecl("in", INPUT, min_width=1, max_width=1),)
    DEPS = {}        # wrong on purpose: the ack waits for the data

    def react(self):
        inp = self.port("in")
        if inp.known(0):
            inp.set_ack(0, True)

    def update(self):
        if self.port("in").took(0):
            self.collect("consumed")


def _late_design(rate):
    """Source -> PipelineReg -> LateSink: a vectorized register whose
    input ack only resolves through the lanes' scalar fallback."""
    spec = LSS("late")
    src = spec.instance("src", Source, pattern="bernoulli",
                        rate=rate, payload=1, seed=3)
    reg = spec.instance("reg", PipelineReg)
    # Ties in the schedule walk break by path: "a_snk" reacts
    # before "reg" has offered anything.
    snk = spec.instance("a_snk", LateSink)
    spec.connect(src.port("out"), reg.port("in"))
    spec.connect(reg.port("out"), snk.port("in"))
    return build_design(spec)


def _observe(sim):
    return {"now": sim.now, "transfers": sim.transfers_total,
            "relaxations": sim.relaxations_total,
            "fallback": sim.fallback_steps,
            "report": sim.stats.report(),
            "wires": list(sim.design.store.transfers)}


def _profile_view(prof):
    """A profiler's summary minus everything wall time decides."""
    out = prof.summary_dict(top=None)
    del out["elapsed_ns"], out["step_ns"]
    for rec in out["instances"].values():
        del rec["ns"]
    return out


def _solo_run(design, seed, cycles):
    sim = LevelizedSimulator(design, seed=seed)
    sim.run(cycles)
    observed = _observe(sim)
    sim.close()
    return observed


class TestLaneBitIdentity:
    """Vectorized lanes reproduce standalone levelized runs bit for bit."""

    def _differential(self, make_design, variants, cycles, base_seed,
                      expect_vec=None):
        designs = [make_design(v) for v in variants]
        seeds = [base_seed + i for i in range(len(variants))]
        batch = BatchedSimulator(designs, seeds=seeds)
        batch.run(cycles)
        if expect_vec is not None:
            active = batch.vec_plan is not None
            assert active == expect_vec, (
                f"expected vectorization {'on' if expect_vec else 'off'}, "
                f"plan={batch.vec_plan!r}")
        lanes = [_observe(batch.lane(i)) for i in range(len(variants))]
        batch.close()
        for i, v in enumerate(variants):
            solo = _solo_run(make_design(v), seeds[i], cycles)
            assert lanes[i] == solo, f"lane {i} (variant {v!r}) diverged"

    def test_fully_vectorized_pipe_sweep(self):
        self._differential(
            lambda r: build_design(_vec_pipe_spec(rate=r, sink_rate=0.8)),
            [0.2, 0.4, 0.6, 0.8], cycles=150, base_seed=5, expect_vec=True)

    def test_mixed_pattern_batch_demotes_source(self):
        # rate >= 1.0 switches the conftest pipe's source to a counter
        # pattern; the mixed-pattern lane set must demote the source to
        # the scalar path (patterns differ across lanes) while queue and
        # sink stay vectorized — and stay bit-identical throughout.
        self._differential(lambda r: _pipe_design(rate=r),
                           [0.4, 0.8, 1.0], cycles=150, base_seed=5,
                           expect_vec=True)

    def test_counter_source_batch(self):
        self._differential(lambda d: _pipe_design(rate=1.0, depth=d),
                           [1, 2, 4], cycles=100, base_seed=2,
                           expect_vec=True)

    def test_fig2a_batch(self):
        def make(_):
            spec, _info = build_fig2a_cmp(width=2, height=2)
            return build_design(spec)
        self._differential(make, [0, 1, 2], cycles=60, base_seed=11)

    def test_fig2b_batch(self):
        def make(loss):
            spec, _info = build_fig2b_sensors(n_nodes=3, loss=loss, seed=2)
            return build_design(spec)
        self._differential(make, [0.0, 0.1, 0.3], cycles=80, base_seed=13)

    def test_fig2c_batch(self):
        def make(k_words):
            spec, _info = build_fig2c_grid(n_nodes=4, k_words=k_words)
            return build_design(spec)
        self._differential(make, [2, 4, 8], cycles=120, base_seed=17)

    def test_fig2d_batch(self):
        def make(every):
            spec, _info = build_fig2d(n_sensors=2, backend="detailed",
                                      aggregate_every=every)
            return build_design(spec)
        self._differential(make, [2, 4, 8], cycles=60, base_seed=3)

    def test_batch_of_one_is_drop_in(self):
        design = build_design(_vec_pipe_spec())
        batch = BatchedSimulator(design, seed=9)
        batch.run(100)
        assert batch.batch_size == 1
        solo = _solo_run(build_design(_vec_pipe_spec()), 9, 100)
        assert _observe(batch) == solo
        assert batch.stats.counter("snk", "consumed") > 0
        batch.close()


class TestVecBuffer:
    """Satellite: the generalized Buffer's FIFO form vectorizes."""

    @staticmethod
    def _buffer_design(rate, depth, policy=None):
        from repro.pcl.buffer import Buffer
        spec = LSS("bufpipe")
        src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                            payload=1, seed=3)
        kw = {} if policy is None else {"select_policy": policy}
        buf = spec.instance("buf", Buffer, depth=depth, **kw)
        snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.6,
                            seed=7)
        spec.connect(src.port("out"), buf.port("in"))
        spec.connect(buf.port("out"), snk.port("in"))
        return build_design(spec)

    def test_fifo_buffer_lanes_match_solo_runs(self):
        variants = [(0.3, 2), (0.6, 4), (0.9, 3)]
        designs = [self._buffer_design(r, d) for r, d in variants]
        batch = BatchedSimulator(designs, seeds=[1, 2, 3])
        batch.run(150)
        assert batch.vec_plan is not None
        assert "buf" in batch.vec_plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(3)]
        batch.close()
        for i, (rate, depth) in enumerate(variants):
            solo = _solo_run(self._buffer_design(rate, depth), 1 + i, 150)
            assert lanes[i] == solo, f"lane {i} diverged"
            # The residency histogram survives the array round trip.
            assert "residency" in solo["report"]

    def test_algorithmic_policy_stays_scalar(self):
        # An out-of-order window runs arbitrary Python per entry — the
        # buffer must demote to the scalar path and stay bit-identical.
        from repro.pcl.buffer import ready_policy
        policy = ready_policy(lambda entry: entry.value is not None)
        designs = [self._buffer_design(0.5, 4, policy=policy)
                   for _ in range(2)]
        batch = BatchedSimulator(designs, seeds=[1, 2])
        batch.run(100)
        plan = batch.vec_plan
        assert plan is None or "buf" not in plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        batch.close()
        for i in range(2):
            solo = _solo_run(
                self._buffer_design(0.5, 4, policy=policy), 1 + i, 100)
            assert lanes[i] == solo

    def test_state_dict_roundtrip_with_buffer(self):
        def designs():
            return [self._buffer_design(r, 3) for r in (0.3, 0.7)]

        vec = BatchedSimulator(designs(), seeds=[4, 5])
        vec.run(60)
        snapshot = vec.state_dict()
        vec.run(60)
        final = [_observe(vec.lane(i)) for i in range(2)]
        vec.close()
        planless = planless_batch(designs(), seeds=[4, 5])
        planless.load_state_dict(snapshot)
        planless.run(60)
        assert planless.vec_plan is None
        assert [_observe(planless.lane(i)) for i in range(2)] == final
        planless.close()


class TestScalarFallbackPaths:
    """Per-wire demotion to the scalar path."""

    def test_probe_attached_mid_run_demotes_wire(self):
        variants = (0.3, 0.7)
        batch = BatchedSimulator(
            [build_design(_vec_pipe_spec(rate=r)) for r in variants],
            seeds=[1, 2])
        batch.run(40)
        n_vec_before = batch.vec_plan.n_wires
        probes = [batch.lane(i).probe_between("src", "out", "q", "in")
                  for i in range(2)]
        batch.run(80)
        # The watched wire left the plan; the q->snk wire stays
        # vectorized (and the stranded source dropped to scalar).
        plan = batch.vec_plan
        assert plan is not None and plan.n_wires == n_vec_before - 1
        assert "src" not in plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        logs = [probe.log for probe in probes]
        batch.close()
        # Solo reference with the probe attached at the same timestep.
        for i, rate in enumerate(variants):
            sim = LevelizedSimulator(build_design(_vec_pipe_spec(rate=rate)),
                                     seed=1 + i)
            sim.run(40)
            probe = sim.probe_between("src", "out", "q", "in")
            sim.run(80)
            assert _observe(sim) == lanes[i]
            assert probe.log == logs[i], f"lane {i} probe log diverged"
            sim.close()

    @pytest.mark.parametrize("n_lanes", (1, 7, 64))
    def test_mid_run_demotion_on_fig2d_statistical(self, n_lanes):
        """The parking hazard: while a plan is active every lane's store
        holds the vec-owned slots parked *through its per-step reset*; a
        probe attached at step k re-plans (unpark, re-carve around the
        watched wire) mid-run.  Each lane stays bit-identical to a solo
        worklist run probed at the same step."""
        from repro.core.engine import Simulator
        from repro.core.signals import CtrlStatus, DataStatus

        def make(i):
            return _fig2d_statistical(i, n_sensors=2)

        ends = ("reg1", "out", "tap1", "in")
        seeds = list(range(11, 11 + n_lanes))
        batch = BatchedSimulator(
            [make(i) for i in range(n_lanes)], seeds=seeds)
        batch.run(30)
        plan = batch.vec_plan
        assert plan is not None and plan.n_wires == len(batch.design.wires)
        store = batch.lane(n_lanes - 1).design.store
        parked = plan.vw.slots
        assert all(store.t_ds[s] is DataStatus.NOTHING
                   and store.t_ak[s] is CtrlStatus.DEASSERTED for s in parked)
        watched = n_lanes // 2
        probe = batch.lane(watched).probe_between(*ends)
        batch.run(50)
        replanned = batch.vec_plan
        assert replanned is not None and replanned.n_wires < plan.n_wires
        slot = batch.lane(watched).design.wire_between(*ends).wid
        assert slot not in replanned.vw.slots
        assert store.t_ds[slot] is DataStatus.UNKNOWN      # un-parked
        assert all(store.t_ds[s] is DataStatus.NOTHING
                   for s in replanned.vw.slots)
        lanes = [_observe(batch.lane(i)) for i in range(n_lanes)]
        batch.close()
        assert all(t is DataStatus.UNKNOWN for t in store.t_ds)
        assert probe.log
        for i in range(n_lanes):
            solo = Simulator(make(i), seed=seeds[i])
            solo.run(30)
            solo_probe = solo.probe_between(*ends) if i == watched else None
            solo.run(50)
            solo.fallback_steps = 0     # the oracle has no fallback tier
            assert lanes[i] == _observe(solo), f"lane {i} diverged"
            if solo_probe is not None:
                assert solo_probe.log == probe.log
            solo.close()

    def test_mid_step_fallback_scatters_and_absorbs(self):
        """A scalar neighbour with an over-optimistic ``DEPS`` leaves its
        ack unresolved when the schedule is done, so the vectorized
        register upstream cannot resolve its own input ack in the
        planes: every step ends in ``_vec_end``'s scatter -> lane
        fallback -> absorb round trip through the lanes' store slots."""
        rates = (0.2, 0.5, 0.9)
        batch = BatchedSimulator([_late_design(r) for r in rates],
                                           seeds=[4, 5, 6])
        batch.run(60)
        plan = batch.vec_plan
        assert plan is not None and plan.n_wires == 1   # src -> reg
        lanes = [_observe(batch.lane(i)) for i in range(len(rates))]
        batch.close()
        for i, rate in enumerate(rates):
            solo = _solo_run(_late_design(rate), 4 + i, 60)
            assert solo["fallback"] == 60 and solo["transfers"] > 0
            assert lanes[i] == solo, f"lane {i} diverged"

    def test_probe_same_wire_twice_is_idempotent(self):
        # Satellite regression: a second probe on an already-demoted
        # wire must not double-demote (n_wires drops by exactly one),
        # must not strand additional instances, and both probes record
        # the same transfer log as a solo run with two probes.
        variants = (0.3, 0.7)
        batch = BatchedSimulator(
            [build_design(_vec_pipe_spec(rate=r)) for r in variants],
            seeds=[1, 2])
        batch.run(40)
        n_vec_before = batch.vec_plan.n_wires
        first = [batch.lane(i).probe_between("src", "out", "q", "in")
                 for i in range(2)]
        batch.run(30)
        plan_after_first = batch.vec_plan
        assert plan_after_first.n_wires == n_vec_before - 1
        paths_after_first = set(plan_after_first.vec_paths)
        second = [batch.lane(i).probe_between("src", "out", "q", "in")
                  for i in range(2)]
        batch.run(50)
        plan = batch.vec_plan
        assert plan is not None
        assert plan.n_wires == n_vec_before - 1
        assert set(plan.vec_paths) == paths_after_first
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        first_logs = [p.log for p in first]
        second_logs = [p.log for p in second]
        batch.close()
        for i, rate in enumerate(variants):
            sim = LevelizedSimulator(build_design(_vec_pipe_spec(rate=rate)),
                                     seed=1 + i)
            sim.run(40)
            probe_a = sim.probe_between("src", "out", "q", "in")
            sim.run(30)
            probe_b = sim.probe_between("src", "out", "q", "in")
            sim.run(50)
            assert _observe(sim) == lanes[i]
            assert probe_a.log == first_logs[i]
            assert probe_b.log == second_logs[i]
            sim.close()

    def test_probe_before_first_run(self):
        batch = BatchedSimulator(
            [build_design(_vec_pipe_spec(rate=r)) for r in (0.3, 0.7)],
            seeds=[4, 5])
        probe = batch.lane(0).probe_between("q", "out", "snk", "in")
        batch.run(100)
        assert batch.vec_plan is not None
        design = batch.lane(0).design
        wire = design.wire_between("q", "out", "snk", "in")
        assert probe.count == design.store.transfers[wire.wid]
        batch.close()

    def test_profiler_keeps_vec_plan(self):
        batch = BatchedSimulator(
            [build_design(_vec_pipe_spec(rate=r)) for r in (0.5, 0.5)],
            seeds=[2, 3])
        profilers = [Profiler(batch.lane(i), sample_every=2)
                     for i in range(2)]
        batch.run(80)
        plan = batch.vec_plan
        assert plan is not None and plan.vec_paths == {"src", "q", "snk"}
        for prof in profilers:
            summary = prof.summary_dict(top=5)
            assert summary["steps"] == 80 and summary["sampled_steps"] == 40
            for rec in prof.instances:
                assert rec.calls == 80 and rec.sampled_calls == 40
                assert rec.ns > 0
        batch.close()

    def test_unsupported_bindings_stay_scalar(self):
        # Callable payloads cannot vectorize: the whole source demotes,
        # the downstream queue/sink still can.
        def make():
            spec = LSS("cbpipe")
            src = spec.instance("src", Source, pattern="always",
                                payload=lambda now, i: now * 10 + i)
            q = spec.instance("q", Queue, depth=2)
            snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.6,
                                seed=5)
            spec.connect(src.port("out"), q.port("in"))
            spec.connect(q.port("out"), snk.port("in"))
            return build_design(spec)
        batch = BatchedSimulator([make(), make()], seeds=[1, 2])
        batch.run(90)
        plan = batch.vec_plan
        assert plan is not None and "src" not in plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(2)]
        batch.close()
        for i in range(2):
            assert lanes[i] == _solo_run(make(), 1 + i, 90)


_PROFILED_DESIGNS = {"fig2d-statistical": _fig2d_statistical,
                     "fig2d-mixed": _fig2d_mixed,
                     "fallback": lambda i: _late_design((0.2, 0.5, 0.9)[i % 3])}


def _profiled_run(make, n_lanes, profiled, sample_every, cycles,
                  trace=False, planned=True):
    batch = (BatchedSimulator if planned else planless_batch)(
        [make(i) for i in range(n_lanes)],
        seeds=[7 + i for i in range(n_lanes)])
    profilers = {i: Profiler(batch.lane(i), sample_every=sample_every,
                             trace=trace) for i in profiled}
    batch.run(cycles)
    plan = batch.vec_plan
    views = {i: _profile_view(prof) for i, prof in profilers.items()}
    lanes = [_observe(batch.lane(i)) for i in range(n_lanes)]
    batch.close()
    return views, lanes, plan, profilers


class TestProfiledVecPlan:
    """A profiler keeps the vec plan and reports what a scalar lane
    would: every summary figure except wall time equals a plan-less
    batch's, lane by lane."""

    @pytest.mark.parametrize("sample_every", (1, 4))
    @pytest.mark.parametrize("n_lanes,profiled", [
        (1, (0,)), (3, (0, 2)), (64, tuple(range(64)))],
        ids=("lanes1", "lanes3", "lanes64"))
    @pytest.mark.parametrize("design", sorted(_PROFILED_DESIGNS))
    def test_profile_matches_planless_batch(self, design, n_lanes, profiled,
                                            sample_every):
        make = _PROFILED_DESIGNS[design]
        cycles = 16
        scalar, scalar_lanes, _, _ = _profiled_run(
            make, n_lanes, profiled, sample_every, cycles, planned=False)
        vec, vec_lanes, plan, _ = _profiled_run(
            make, n_lanes, profiled, sample_every, cycles)
        assert plan is not None
        assert vec_lanes == scalar_lanes
        assert set(vec) == set(profiled)
        for i in profiled:
            assert vec[i] == scalar[i], f"lane {i} profile diverged"
            assert vec[i]["steps"] == cycles
            # The vectorized instances are really counted (not 0 == 0).
            for path in plan.vec_paths:
                assert vec[i]["instances"][path]["calls"] >= cycles

    def test_attach_and_detach_mid_run(self):
        n_lanes = 4
        seeds = [3 + i for i in range(n_lanes)]

        def designs():
            return [_fig2d_statistical(i) for i in range(n_lanes)]

        plain = BatchedSimulator(designs(), seeds=seeds)
        plain.run(90)
        expected = [_observe(plain.lane(i)) for i in range(n_lanes)]
        plain.close()

        def closure(batch):
            return [cell.cell_contents for cell in batch._stepper.__closure__]

        batch = BatchedSimulator(designs(), seeds=seeds)
        batch.run(30)
        assert batch.vec_plan is not None
        profilers = [Profiler(batch.lane(i), sample_every=4)
                     for i in range(n_lanes)]
        assert batch.vec_plan is not None
        batch.run(30)
        assert batch.vec_plan is not None
        # Every vec react runs under the sampled timer.
        assert sum(hasattr(cell, "_obs_original")
                   for cell in closure(batch)) == len(batch.vec_plan.impls)
        for prof in profilers:
            prof.detach()
        assert batch.vec_plan is not None
        batch.run(30)
        plan = batch.vec_plan
        assert plan is not None
        # Rebuilt from the bare implementation reacts, no timer left.
        cells = closure(batch)
        assert not any(hasattr(cell, "_obs_original") for cell in cells)
        assert all(impl.react in cells for impl in plan.impls)
        assert [_observe(batch.lane(i)) for i in range(n_lanes)] == expected
        batch.close()
        for prof in profilers:
            assert prof.steps == 30 and prof.sampled_steps == 8
            assert prof.reacts_total == sum(r.calls for r in prof.instances)

    def test_trace_slices_reach_every_sampling_lane(self):
        _, _, plan, profilers = _profiled_run(
            _fig2d_statistical, 3, (0, 2), 2, 8, trace=True)
        assert plan is not None
        first, last = profilers[0], profilers[2]
        assert first._react_events and len(first._step_events) == 4
        # One shared array op per vec react, stamped onto both lanes.
        assert ([t for _, *t in first._react_events]
                == [t for _, *t in last._react_events])


class TestLazyDispatch:
    """Instrumentation marks the batch's plan dirty; ``run()`` rebuilds
    it once, however many lanes changed."""

    def test_many_attaches_rebuild_once(self, monkeypatch):
        builds = []
        original = BatchedSimulator._rebuild_plan

        def counting(self):
            builds.append(type(self))
            original(self)

        monkeypatch.setattr(BatchedSimulator, "_rebuild_plan", counting)
        rates = (0.2, 0.4, 0.6, 0.8, 0.3, 0.7)
        outcomes = []
        # The planned batch keeps its plan through the churn; the
        # plan-less one runs every lane on its own static stepper.
        for make in (BatchedSimulator, planless_batch):
            builds.clear()
            batch = make([build_design(_vec_pipe_spec(rate=r))
                          for r in rates], seeds=list(range(len(rates))))
            batch.run(10)
            assert len(builds) == 1
            profilers = [Profiler(batch.lane(i), sample_every=2)
                         for i in range(len(rates))]
            probe = batch.lane(1).probe_between("q", "out", "snk", "in")
            assert len(builds) == 1
            batch.run(20)
            batch.run(20)
            assert len(builds) == 2
            assert (batch.vec_plan is None) == (make is planless_batch)
            outcomes.append(([_observe(batch.lane(i))
                              for i in range(len(rates))],
                             [_profile_view(p) for p in profilers],
                             probe.log))
            batch.close()                # detaches every profiler
            assert len(builds) == 2
        assert outcomes[0] == outcomes[1]


class TestStaticSteppers:
    """A lane steps on its own static stepper only when the batch has
    no plan; a planned batch never builds one."""

    def test_planned_lanes_never_build_a_stepper(self, monkeypatch):
        def refuse(model, schedule):
            raise AssertionError("a stepper was built")
        monkeypatch.setattr("repro.core.ir.attach_stepper", refuse)
        batch = BatchedSimulator([_fig2d_statistical(i) for i in range(3)],
                                 seeds=[1, 2, 3])
        profilers = [Profiler(lane) for lane in batch.lanes]
        batch.run(20)
        assert batch.vec_plan is not None
        assert all(lane._stepper is None for lane in batch.lanes)
        for prof in profilers:
            prof.detach()
        batch.close()

    def test_observed_batch_equals_solo_runs(self):
        seen = []
        batch = BatchedSimulator([_fig2d_mixed(i) for i in range(3)],
                                 seeds=[4, 5, 6])
        batch.lane(1).add_observer(lambda sim: seen.append(sim.now))
        batch.run(40)
        assert batch.vec_plan is None
        assert seen == list(range(40))
        lanes = [_observe(lane) for lane in batch.lanes]
        assert all(lane._stepper is not None for lane in batch.lanes)
        batch.close()
        for i in range(3):
            assert lanes[i] == _solo_run(_fig2d_mixed(i), 4 + i, 40), \
                f"lane {i} diverged"

    def test_unvectorizable_batch_equals_solo_runs(self):
        # No module of the converging cluster has a vec impl, so the
        # batch finds no plan on its own.
        def design():
            return build_design(_clustered_spec(False))
        batch = BatchedSimulator([design(), design()], seeds=[1, 2])
        batch.run(60)
        assert batch.vec_plan is None
        assert all(lane._stepper is not None for lane in batch.lanes)
        lanes = [_observe(lane) for lane in batch.lanes]
        batch.close()
        assert lanes[0]["transfers"] > 20
        for i in range(2):
            assert lanes[i] == _solo_run(design(), 1 + i, 60)

    def test_forced_planless_batch_equals_solo_runs(self, monkeypatch):
        # The engine matrix's plan-less path: a design that would
        # vectorize runs every lane on its own static stepper.
        force_planless(monkeypatch)
        batch = BatchedSimulator([_fig2d_statistical(i) for i in range(3)],
                                 seeds=[1, 2, 3])
        batch.run(30)
        assert batch.vec_plan is None
        assert all(lane._stepper is not None for lane in batch.lanes)
        lanes = [_observe(lane) for lane in batch.lanes]
        batch.close()
        for i in range(3):
            assert lanes[i] == _solo_run(_fig2d_statistical(i), 1 + i, 30), \
                f"lane {i} diverged"


class TestStatePreservation:
    def test_state_dict_roundtrip_across_paths(self):
        # vec -> plan-less and plan-less -> vec: a checkpoint taken on
        # one path restores onto the other and continues to the same
        # final state, bit for bit.
        rates = (0.3, 0.7)

        def designs():
            return [build_design(_vec_pipe_spec(rate=r)) for r in rates]

        vec = BatchedSimulator(designs(), seeds=[4, 5])
        vec.run(60)
        snapshot = vec.state_dict()
        assert snapshot["batched"] and len(snapshot["lanes"]) == 2
        vec.run(60)
        final = [_observe(vec.lane(i)) for i in range(2)]
        vec.close()

        scalar = planless_batch(designs(), seeds=[4, 5])
        scalar.load_state_dict(snapshot)
        scalar.run(60)
        assert scalar.vec_plan is None
        assert [_observe(scalar.lane(i)) for i in range(2)] == final
        snapshot2 = scalar.state_dict()
        scalar.close()

        vec2 = BatchedSimulator(designs(), seeds=[4, 5])
        vec2.load_state_dict(snapshot2)
        assert [_observe(vec2.lane(i)) for i in range(2)] == final
        vec2.run(30)
        reference = planless_batch(designs(), seeds=[4, 5])
        reference.load_state_dict(snapshot2)
        reference.run(30)
        assert ([_observe(vec2.lane(i)) for i in range(2)]
                == [_observe(reference.lane(i)) for i in range(2)])
        vec2.close()
        reference.close()

    def test_generated_vec_source_is_inspectable(self):
        batch = BatchedSimulator(
            [build_design(_vec_pipe_spec(rate=r)) for r in (0.2, 0.8)],
            seeds=[1, 2])
        batch.run(5)
        source = batch.generated_vec_source
        assert source is not None and "make_vec_stepper" in source
        compile(source, "<check>", "exec")  # stays valid Python
        batch.close()

    def test_run_after_close_raises(self):
        from repro import SimulationError
        batch = BatchedSimulator([_pipe_design()])
        batch.close()
        with pytest.raises(SimulationError, match="closed"):
            batch.run(1)

    def test_close_releases_designs(self):
        design = build_design(_vec_pipe_spec())
        with BatchedSimulator(design) as batch:
            batch.run(5)
        assert design._owned is False


class TestDelegationErrors:
    """Satellite: __getattr__ must name the backend, not raise opaquely."""

    def test_unknown_attribute_names_backend(self):
        batch = BatchedSimulator([_pipe_design()])
        with pytest.raises(AttributeError) as err:
            batch.no_such_attribute
        message = str(err.value)
        assert "'batched'" in message and "no_such_attribute" in message
        assert ".lane(i)" in message
        batch.close()

    def test_private_names_never_delegate(self):
        batch = BatchedSimulator([_pipe_design()])
        with pytest.raises(AttributeError, match="private"):
            batch._no_such_private
        batch.close()


class TestLaneRng:
    """The RNG bank's draws must be bitwise-equal to scalar draws."""

    def test_block_draw_matches_scalar_stream(self):
        # numpy's Generator.random(n) produces the same stream as n
        # scalar random() calls — the property the pre-drawn block
        # relies on for bit identity.
        a = np.random.default_rng(123)
        b = np.random.default_rng(123)
        assert list(a.random(700)) == [b.random() for _ in range(700)]

    def test_masked_consumption_and_sync(self):
        gens = [np.random.default_rng(s) for s in (1, 2, 3)]
        reference = [np.random.default_rng(s) for s in (1, 2, 3)]
        bank = LaneRng(gens, block=4)  # tiny block to force refills
        consumed = [0, 0, 0]
        masks = [np.array(m) for m in
                 ([True, False, True], [True, True, False],
                  [False, True, True], [True, True, True],
                  [True, False, False], [True, True, True])]
        for mask in masks:
            draws = bank.random(mask)
            for lane in range(3):
                if mask[lane]:
                    assert draws[lane] == reference[lane].random()
                    consumed[lane] += 1
        bank.sync_out()
        # After sync, the live generators sit exactly where the scalar
        # stream left them: the next draws agree.
        for lane in range(3):
            assert gens[lane].random() == reference[lane].random()

    def test_unmasked_draw_covers_all_lanes(self):
        gens = [np.random.default_rng(s) for s in (5, 6)]
        reference = [np.random.default_rng(s) for s in (5, 6)]
        bank = LaneRng(gens, block=8)
        draws = bank.random()
        assert [draws[0], draws[1]] == [g.random() for g in reference]
        bank.sync_out()
        assert [g.random() for g in gens] == [g.random() for g in reference]


class TestBackendRegistration:
    def test_registered_and_resolvable(self):
        assert resolve_engine("batched") is BatchedSimulator
        assert resolve_engine("batched-vec") is BatchedSimulator

    def test_build_simulator_routes_batch_of_one(self):
        sim = build_simulator(_vec_pipe_spec(), engine="batched")
        try:
            sim.run(50)
            assert isinstance(sim, BatchedSimulator)
            assert sim.batch_size == 1
            assert sim.stats.counter("snk", "consumed") > 0
        finally:
            sim.close()

    def test_campaign_batch_engine_override(self, tmp_path):
        # A levelized campaign's batches run on the lockstep engine; they
        # must journal the same results as one task per point.
        from repro.campaign import Campaign, GridSweep
        from tests.campaign import _targets

        def run(name, batch_max):
            return Campaign(
                name, GridSweep({"depth": [2, 4], "rate": [0.4, 0.9]},
                                base_seed=5),
                target=_targets.build_pipe, kind="spec", cycles=60,
                engine="levelized", workers=0, batch_max=batch_max,
                ledger_path=str(tmp_path / f"{name}.jsonl")).run()

        vec_rows = run("vec", 16).rows
        scalar_rows = run("solo", 1).rows
        assert [(r.run_id, r.result) for r in vec_rows] \
            == [(r.run_id, r.result) for r in scalar_rows]
