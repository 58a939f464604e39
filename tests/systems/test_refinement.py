"""Tests of the §2.2 iterative-refinement progression."""

import pickle

import pytest

from repro import build_simulator
from repro.systems import build_stage, run_stage
from repro.systems.refinement import (LOOP_SUM_A0, MEM_SUM_A0,
                                      STRAIGHT_LINE_A0)


class TestEveryStageWorks:
    """The paper's claim: *every* refinement stage compiles into a
    working simulator."""

    @pytest.mark.parametrize("stage", [1, 2, 3, 4, 5])
    def test_stage_builds_and_runs(self, stage):
        result = run_stage(stage)
        assert result["working"], result

    @pytest.mark.parametrize("stage,expected", [
        (2, STRAIGHT_LINE_A0), (3, LOOP_SUM_A0), (4, LOOP_SUM_A0),
        (5, MEM_SUM_A0)])
    def test_architectural_results(self, stage, expected):
        assert run_stage(stage)["a0"] == expected

    def test_stages_engine_independent(self, engine):
        assert run_stage(3, engine=engine)["working"]


class TestRefinementStory:
    def test_stage1_is_partial_specification(self):
        """Stage 1 has unconnected ports yet still builds and runs —
        unconnected-port defaults at work."""
        from repro import build_design
        spec, _ = build_stage(1)
        design = build_design(spec)
        assert len(design.stub_wires) > 0  # fetch.redirect etc.

    def test_predictor_refinement_reduces_mispredicts(self):
        static = run_stage(3)
        bimodal = run_stage(4)
        assert bimodal["mispredicts"] < static["mispredicts"]
        assert bimodal["cycles"] < static["cycles"]

    def test_stage5_exercises_the_cache(self):
        result = run_stage(5)
        sim = result["sim"]
        assert sim.stats.counter("l1", "hits") > 0
        assert sim.stats.counter("l1", "misses") > 0

    def test_bad_stage_rejected(self):
        with pytest.raises(ValueError):
            build_stage(0)
        with pytest.raises(ValueError):
            build_stage(6)


def _stage_sim(stage, engine):
    spec, info = build_stage(stage)
    return build_simulator(spec, engine=engine), info["shared"]


def _to_halt(sim, shared):
    while not shared.halted:
        assert sim.now < 5_000, "pipeline never halted"
        sim.step()
    return {"now": sim.now, "transfers": sim.transfers_total,
            "stats": sim.stats.summary_dict(), "halted_at": shared.halted_at,
            "retired": shared.retired, "a0": sim.instance("rf").read_reg(10)}


class TestCheckpoint:
    """The stages share one :class:`PipelineShared` through a parameter;
    a restore must rewind it with the stages, or the resumed run sees
    the epoch, halt flag and retire count of whatever ran after the
    snapshot."""

    @pytest.mark.parametrize("stage", [4, 5])
    def test_restore_after_running_on_continues_identically(self, stage,
                                                             engine):
        reference = _to_halt(*_stage_sim(stage, engine))
        sim, shared = _stage_sim(stage, engine)
        sim.run(40)
        state = pickle.loads(pickle.dumps(sim.state_dict()))
        sim.run(60)
        sim.load_state_dict(state)
        assert sim.now == 40 and not shared.halted
        assert _to_halt(sim, shared) == reference
