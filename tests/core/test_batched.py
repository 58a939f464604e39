"""Differential tests for the batched lockstep backend.

The acceptance bar: per-lane results from :class:`BatchedSimulator`
must be **bit-identical** to standalone :class:`LevelizedSimulator`
runs of the same designs and seeds — on the paper's Figure 2(a) CMP
and Figure 2(d) system of systems, with batch sizes 1 and > 1.
"""

from __future__ import annotations

import pytest

from repro import BatchedSimulator, SimulationError, build_design
from repro.core.optimize import LevelizedSimulator
from repro.systems.fig2a import build_fig2a_cmp
from repro.systems.fig2b import build_fig2b_sensors
from repro.systems.fig2c import build_fig2c_grid
from repro.systems.fig2d import build_fig2d

from ..conftest import simple_pipe_spec


def _pipe_design(rate=0.5, depth=4):
    return build_design(simple_pipe_spec(depth=depth, rate=rate))


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


class TestLaneBitIdentity:
    """Batched lanes reproduce standalone levelized runs bit for bit."""

    def _differential(self, make_design, variants, cycles, base_seed):
        designs = [make_design(v) for v in variants]
        seeds = [base_seed + i for i in range(len(variants))]
        batch = BatchedSimulator(designs, seeds=seeds)
        batch.run(cycles)
        lanes = [_observe(batch.lane(i)) for i in range(len(variants))]
        batch.close()
        for i, v in enumerate(variants):
            solo = _solo_run(make_design(v), seeds[i], cycles)
            assert lanes[i] == solo, f"lane {i} (variant {v!r}) diverged"

    def test_pipe_rate_sweep(self):
        self._differential(lambda r: _pipe_design(rate=r),
                           [0.2, 0.4, 0.6, 0.8], cycles=150, base_seed=5)

    def test_fig2a_batch(self):
        def make(_):
            spec, _info = build_fig2a_cmp(width=2, height=2)
            return build_design(spec)
        self._differential(make, [0, 1, 2], cycles=60, base_seed=11)

    def test_fig2b_batch(self):
        # Loss probability is a runtime binding of the shared medium, so
        # every variant fingerprints alike and batches together.
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
        design = _pipe_design(rate=0.5)
        batch = BatchedSimulator(design, seed=9)
        batch.run(100)
        assert batch.batch_size == 1
        solo = _solo_run(_pipe_design(rate=0.5), 9, 100)
        # Delegated attribute access behaves like a plain simulator.
        assert _observe(batch) == solo
        assert batch.stats.counter("snk", "consumed") > 0
        batch.close()


class TestConstruction:
    def test_rejects_mixed_structures(self):
        a = _pipe_design(rate=0.5, depth=2)
        # A different *structure*: one more stage in the pipe.
        from repro import LSS
        from repro.pcl import Queue, Sink, Source
        spec = LSS("pipe")
        src = spec.instance("src", Source, pattern="counter")
        q1 = spec.instance("q1", Queue, depth=2)
        snk = spec.instance("snk", Sink)
        spec.connect(src.port("out"), q1.port("in"))
        spec.connect(q1.port("out"), snk.port("in"))
        b = build_design(spec)
        with pytest.raises(SimulationError, match="distinct fingerprints"):
            BatchedSimulator([a, b])

    def test_parameter_variants_are_one_structure(self):
        designs = [_pipe_design(rate=r) for r in (0.1, 0.9)]
        batch = BatchedSimulator(designs)
        assert batch.batch_size == 2
        batch.close()

    def test_rejects_empty_batch(self):
        with pytest.raises(SimulationError, match="at least one design"):
            BatchedSimulator([])

    def test_rejects_mismatched_seed_count(self):
        with pytest.raises(SimulationError, match="seeds"):
            BatchedSimulator([_pipe_design()], seeds=[1, 2])

    def test_aggregates_sum_over_lanes(self):
        designs = [_pipe_design(rate=r) for r in (0.5, 0.5)]
        batch = BatchedSimulator(designs, seeds=[7, 7])
        batch.run(100)
        lane_total = sum(lane.transfers_total for lane in batch.lanes)
        assert batch.transfers_total == lane_total
        assert batch.now == 100
        batch.close()


class TestProbesAndState:
    def test_per_lane_probes_record_independently(self):
        designs = [_pipe_design(rate=r) for r in (0.2, 0.9)]
        batch = BatchedSimulator(designs, seeds=[1, 1])
        probes = [batch.lane(i).probe_between("q", "out", "snk", "in")
                  for i in range(2)]
        batch.run(120)
        assert 0 < probes[0].count < probes[1].count
        batch.close()

    def test_state_dict_roundtrip_multi_lane(self):
        designs = [_pipe_design(rate=r) for r in (0.3, 0.7)]
        batch = BatchedSimulator(designs, seeds=[4, 5])
        batch.run(60)
        snapshot = batch.state_dict()
        assert snapshot["batched"] and len(snapshot["lanes"]) == 2
        batch.run(60)
        final = [_observe(batch.lane(i)) for i in range(2)]
        batch.close()

        restored = BatchedSimulator(
            [_pipe_design(rate=r) for r in (0.3, 0.7)], seeds=[4, 5])
        restored.load_state_dict(snapshot)
        restored.run(60)
        assert [_observe(restored.lane(i)) for i in range(2)] == final
        restored.close()

    def test_lane_count_mismatch_refused(self):
        batch = BatchedSimulator([_pipe_design()], seed=1)
        snapshot = batch.state_dict()
        batch.close()
        wide = BatchedSimulator([_pipe_design(), _pipe_design()], seed=1)
        with pytest.raises(SimulationError, match="batch of 2"):
            wide.load_state_dict(snapshot)
        wide.close()

    def test_run_after_close_raises(self):
        batch = BatchedSimulator([_pipe_design()])
        batch.close()
        with pytest.raises(SimulationError, match="closed"):
            batch.run(1)

    def test_context_manager_closes(self):
        design = _pipe_design()
        with BatchedSimulator(design) as batch:
            batch.run(5)
        assert design._owned is False


class TestProfilerAttachment:
    def test_per_lane_profiler_attribution(self):
        from repro.obs import Profiler
        designs = [_pipe_design(rate=r) for r in (0.5, 0.5)]
        batch = BatchedSimulator(designs, seeds=[2, 3])
        profilers = [Profiler(batch.lane(i), sample_every=2)
                     for i in range(2)]
        batch.run(80)
        for prof in profilers:
            summary = prof.summary_dict(top=5)
            assert summary["steps"] == 80
        batch.close()
