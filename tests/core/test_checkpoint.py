"""Seeded determinism and engine checkpointing (state_dict round-trips).

Two of the campaign subsystem's load-bearing assumptions, pinned as
engine-level contracts:

* two simulators built from the same spec with the same seed produce
  **byte-identical** stats reports — otherwise sweep points would not
  be reproducible runs;
* a ``state_dict()``/``load_state_dict()`` round-trip mid-run continues
  identically to an uninterrupted run — otherwise checkpoint-resume
  after a crash would change results.
"""

import pickle

import pytest

from repro import LSS, build_simulator
from repro.campaign import load_state, run_with_checkpoints, save_state
from repro.core.errors import SimulationError
from repro.pcl import Queue, Sink, Source

from ..conftest import simple_pipe_spec


def stochastic_pipe(name="sto", depth=3, rate=0.6, seed=11):
    """A pipe with randomness on both ends, so RNG state matters."""
    spec = LSS(name)
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        payload=1, seed=seed)
    q = spec.instance("q", Queue, depth=depth)
    snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.7, seed=seed + 1)
    spec.connect(src.port("out"), q.port("in"))
    spec.connect(q.port("out"), snk.port("in"))
    return spec


class TestSeededDeterminism:
    def test_same_spec_same_seed_byte_identical_reports(self, engine):
        a = build_simulator(stochastic_pipe(), engine=engine, seed=42)
        b = build_simulator(stochastic_pipe(), engine=engine, seed=42)
        a.run(300)
        b.run(300)
        assert a.stats.report() == b.stats.report()
        assert a.transfers_total == b.transfers_total
        assert a.stats.report().encode() == b.stats.report().encode()

    def test_different_seed_diverges(self, engine):
        # The engine seed must actually matter for seeded workloads to
        # be meaningful; Source/Sink carry their own path-derived RNGs,
        # so divergence is asserted on the engine RNG itself.
        a = build_simulator(stochastic_pipe(), engine=engine, seed=1)
        b = build_simulator(stochastic_pipe(), engine=engine, seed=2)
        assert a.rng.random() != b.rng.random()


class TestStateDictRoundTrip:
    def test_mid_run_round_trip_continues_identically(self, engine):
        interrupted = build_simulator(stochastic_pipe(), engine=engine, seed=7)
        interrupted.run(150)
        state = interrupted.state_dict()

        resumed = build_simulator(stochastic_pipe(), engine=engine, seed=0)
        resumed.load_state_dict(state)
        assert resumed.now == 150

        reference = build_simulator(stochastic_pipe(), engine=engine, seed=7)
        reference.run(400)
        interrupted.run(250)
        resumed.run(250)
        assert interrupted.stats.report() == reference.stats.report()
        assert resumed.stats.report() == reference.stats.report()
        assert resumed.transfers_total == reference.transfers_total

    def test_state_survives_pickle(self, engine):
        sim = build_simulator(stochastic_pipe(), engine=engine, seed=3)
        sim.run(80)
        state = pickle.loads(pickle.dumps(sim.state_dict()))
        fresh = build_simulator(stochastic_pipe(), engine=engine)
        fresh.load_state_dict(state)
        reference = build_simulator(stochastic_pipe(), engine=engine, seed=3)
        reference.run(160)
        fresh.run(80)
        assert fresh.stats.report() == reference.stats.report()

    def test_uncopyable_attribute_is_named(self):
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        sim.run(3)
        sim.instance("snk").cursor = (n for n in range(3))
        with pytest.raises(SimulationError) as excinfo:
            sim.state_dict()
        message = str(excinfo.value)
        assert "'snk' is not checkpointable" in message
        assert "'cursor'" in message
        assert isinstance(excinfo.value.__cause__, TypeError)

    def test_snapshot_is_isolated_from_live_run(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.run(20)
        state = sim.state_dict()
        consumed_at_snapshot = state["stats"]["counters"][("snk", "consumed")]
        sim.run(20)
        # Running on after the snapshot must not mutate the snapshot.
        assert state["now"] == 20
        assert state["stats"]["counters"][("snk", "consumed")] \
            == consumed_at_snapshot
        assert sim.stats.counter("snk", "consumed") > consumed_at_snapshot

    def test_wire_transfer_counters_restored(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.run(30)
        state = sim.state_dict()
        fresh = build_simulator(simple_pipe_spec(), engine=engine)
        fresh.load_state_dict(state)
        assert (list(fresh.design.store.transfers)
                == list(sim.design.store.transfers))

    def test_rejects_mismatched_design(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.run(5)
        state = sim.state_dict()
        other = build_simulator(stochastic_pipe(name="other"), engine=engine)
        with pytest.raises(SimulationError, match="design"):
            other.load_state_dict(state)

    def test_rejects_mismatched_instances(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        state = sim.state_dict()
        state["instances"]["ghost"] = {}
        fresh = build_simulator(simple_pipe_spec(), engine=engine)
        with pytest.raises(SimulationError, match="instance set"):
            fresh.load_state_dict(state)


def _fig2a():
    from .test_opt import _fig2a_spec
    return _fig2a_spec()


def _fig2b():
    from repro.systems import build_fig2b_sensors
    return build_fig2b_sensors(2)[0]


def _fig2c():
    from repro.systems import build_fig2c_grid
    return build_fig2c_grid(4)[0]


def _fig2d():
    from repro.systems.fig2d import build_fig2d
    return build_fig2d(2, backend="statistical", field="statistical")[0]


def _fig2d_detailed():
    from repro.systems.fig2d import build_fig2d
    return build_fig2d(2, backend="detailed")[0]


class TestBoundViewsStayOutOfCheckpoints:
    """``bind_port`` sets each view as an instance attribute; those are
    wiring, not state: a snapshot must not carry them (a deep-copied
    view drags the whole signal store along) and a restore must not
    delete them as "attributes absent from the snapshot"."""

    @staticmethod
    def _views_are_bound(sim):
        return all(getattr(inst, "io_" + name) is view
                   for inst in sim.design.leaves.values()
                   for name, view in inst.ports.items())

    def test_snapshot_holds_no_views_and_restore_keeps_them(self, engine):
        sim = build_simulator(stochastic_pipe(), engine=engine, seed=7)
        sim.run(50)
        state = sim.state_dict()
        # The parent's payload format: no view keys at all.
        for path, own in state["instances"].items():
            ports = sim.design.leaves[path].ports
            assert not {"io_" + name for name in ports} & set(own)
        assert len(pickle.dumps(state)) < 20_000
        fresh = build_simulator(stochastic_pipe(), engine=engine)
        fresh.load_state_dict(state)
        assert self._views_are_bound(fresh)
        fresh.run(50)
        sim.run(50)
        assert fresh.stats.report() == sim.stats.report()

    # Every Figure-2 system, snapshotted at a step where its processor
    # cores are mid-instruction, through pickle as a checkpoint file is.
    @pytest.mark.parametrize("make,at", [
        (_fig2a, 37), (_fig2b, 37), (_fig2c, 80), (_fig2d, 40),
        (_fig2d_detailed, 37)])
    def test_shipped_systems_round_trip(self, make, at, engine):
        interrupted = build_simulator(make(), engine=engine, seed=5)
        interrupted.run(at)
        resumed = build_simulator(make(), engine=engine, seed=0)
        resumed.load_state_dict(
            pickle.loads(pickle.dumps(interrupted.state_dict())))
        assert self._views_are_bound(resumed)
        reference = build_simulator(make(), engine=engine, seed=5)
        reference.run(at + 40)
        resumed.run(40)
        assert resumed.stats.report() == reference.stats.report()
        assert resumed.transfers_total == reference.transfers_total


class TestCheckpointFiles:
    def test_save_load_file_round_trip(self, tmp_path, engine):
        path = str(tmp_path / "snap.ckpt")
        sim = build_simulator(stochastic_pipe(), engine=engine, seed=5)
        sim.run(60)
        save_state(sim, path)
        fresh = build_simulator(stochastic_pipe(), engine=engine)
        fresh.load_state_dict(load_state(path))
        assert fresh.now == 60
        assert fresh.stats.report() == sim.stats.report()

    def test_run_with_checkpoints_resumes_after_crash(self, tmp_path, engine):
        path = str(tmp_path / "run.ckpt")
        # "Crashed" run: got through 3 chunks of 25 before dying.
        victim = build_simulator(stochastic_pipe(), engine=engine, seed=9)
        run_with_checkpoints(victim, 75, every=25, path=path)
        assert victim.now == 75

        # The retry starts from scratch but finds the snapshot.
        retry = build_simulator(stochastic_pipe(), engine=engine, seed=9)
        run_with_checkpoints(retry, 200, every=25, path=path)
        assert retry.now == 200

        reference = build_simulator(stochastic_pipe(), engine=engine, seed=9)
        reference.run(200)
        assert retry.stats.report() == reference.stats.report()

    def test_corrupt_checkpoint_raises(self, tmp_path):
        from repro.campaign import CampaignError
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CampaignError, match="cannot read checkpoint"):
            load_state(str(path))


def stuck_pipe(name="stuck"):
    """A pipe whose sink never resolves its input ack, so the compiled
    engines go through the relaxation fallback on every timestep —
    ``fallback_steps`` is guaranteed non-zero and checkpoint-relevant.
    """
    from repro import INPUT, LeafModule, PortDecl
    from repro.pcl import Source

    class MuteSink(LeafModule):
        PORTS = (PortDecl("in", INPUT, min_width=1),)

        def react(self):
            pass  # leaves the input ack UNKNOWN forever

    spec = LSS(name)
    src = spec.instance("src", Source, pattern="counter")
    snk = spec.instance("snk", MuteSink)
    spec.connect(src.port("out"), snk.port("in"))
    return spec


class TestEngineExtraState:
    """Engine-specific counters must survive checkpoint round-trips.

    Regression: ``LevelizedSimulator.fallback_steps`` was reset to zero
    by ``load_state_dict``, so a resumed campaign run under-reported
    how often the static schedule failed to resolve the step.
    """

    def test_fallback_steps_round_trip(self, engine):
        sim = build_simulator(stuck_pipe(), engine=engine, seed=1)
        sim.run(40)
        expected = getattr(sim, "fallback_steps", None)
        if engine != "worklist":
            assert expected == 40  # DEPS=None forces fallback every step
        state = sim.state_dict()
        assert "engine_extra" in state

        fresh = build_simulator(stuck_pipe(), engine=engine)
        fresh.load_state_dict(state)
        assert getattr(fresh, "fallback_steps", None) == expected
        fresh.run(10)
        if engine != "worklist":
            assert fresh.fallback_steps == 50

    def test_old_checkpoint_without_engine_extra_still_loads(self, engine):
        sim = build_simulator(stuck_pipe(), engine=engine, seed=1)
        sim.run(20)
        state = sim.state_dict()
        state.pop("engine_extra")  # a checkpoint from before the field
        fresh = build_simulator(stuck_pipe(), engine=engine)
        fresh.load_state_dict(state)
        assert fresh.now == 20

    def test_extra_state_is_snapshotted_not_aliased(self, engine):
        sim = build_simulator(stuck_pipe(), engine=engine, seed=1)
        sim.run(10)
        state = sim.state_dict()
        sim.run(10)
        if engine != "worklist":
            assert state["engine_extra"]["fallback_steps"] == 10
            assert sim.fallback_steps == 20


class TestAnimatedDesignError:
    def test_error_names_the_offending_design(self):
        from repro.core.constructor import build_design
        from repro.core.engine import Simulator
        design = build_design(simple_pipe_spec(name="culprit"))
        Simulator(design)
        with pytest.raises(SimulationError, match="'culprit'"):
            Simulator(design)
