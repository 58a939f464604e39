"""Tests for the campaign's one cutting rule: fingerprint-grouped
lockstep batches, with ``batch_max=1`` as the per-point campaign."""

import json
import os

import pytest

from repro.campaign import (Campaign, CampaignError, GridSweep, Ledger,
                            Sweep, cut_sweep)
from repro.core import compile_cache as cc

from . import _targets

SWEEP_AXES = {"depth": [1, 2, 4, 8], "rate": [0.4, 0.9]}


def _campaign(tmp_path, name, **kw):
    defaults = dict(target=_targets.build_pipe, kind="spec", cycles=60,
                    engine="levelized", workers=2, retries=0,
                    ledger_path=str(tmp_path / f"{name}.jsonl"))
    defaults.update(kw)
    return Campaign(name, GridSweep(SWEEP_AXES, base_seed=5), **defaults)


class ListSweep(Sweep):
    """Explicit parameter sets, for sweeps no cross product yields."""

    def __init__(self, param_sets, base_seed=0):
        super().__init__(base_seed)
        self.param_sets = param_sets

    def _param_sets(self):
        return [dict(params) for params in self.param_sets]


def mixed_sweep():
    """Two fingerprints of several points, a singleton and a build
    failure (``range("x")`` raises inside the builder)."""
    return ListSweep([{"stages": 1, "rate": 0.2}, {"stages": 1, "rate": 0.5},
                      {"stages": 2, "rate": 0.3}, {"stages": 1, "rate": 0.8},
                      {"stages": 2, "rate": 0.6}, {"stages": 3, "rate": 0.4},
                      {"stages": "x", "rate": 0.5}], base_seed=9)


def rows_of(result):
    return {row.run_id: (row.status, row.result) for row in result.rows}


@pytest.fixture
def private_cache(tmp_path):
    cache = cc.configure(disk_dir=str(tmp_path / "compile-cache"))
    yield cache
    cc.configure()


class TestBatchedEquivalence:
    def test_batched_matches_per_run_bit_for_bit(self, tmp_path):
        per_run = _campaign(tmp_path, "perrun", batch_max=1).run()
        batched = _campaign(tmp_path, "batched").run()
        assert len(batched.done) == 8 and not batched.failed
        for solo, lane in zip(per_run.rows, batched.rows):
            assert solo.run_id == lane.run_id
            assert solo.params == lane.params
            assert solo.result == lane.result

    def test_batched_inline_executor(self, tmp_path):
        result = _campaign(tmp_path, "inline", workers=0).run()
        assert len(result.done) == 8

    def test_batch_max_splits_groups(self, tmp_path):
        events = []
        result = _campaign(tmp_path, "chunked", batch_max=3,
                           workers=0).run(progress=events.append)
        assert len(result.done) == 8
        grouped = [line for line in events if "lockstep group" in line]
        # 8 structurally identical points at batch_max=3 -> 3+3+2 lanes,
        # i.e. three groups.
        assert grouped and "3 lockstep group(s)" in grouped[0]

    def test_mixed_sweep_rows_equal_under_every_cut(self, tmp_path):
        def run(name, **kw):
            return rows_of(Campaign(
                name, mixed_sweep(), target=_targets.build_chain,
                kind="spec", cycles=50, retries=0,
                ledger_path=str(tmp_path / f"{name}.jsonl"), **kw).run())

        default = run("default")
        assert run("single", batch_max=1) == default
        assert run("inline", workers=0) == default
        statuses = sorted(status for status, _ in default.values())
        assert statuses == ["done"] * 6 + ["failed"]


class TestCutSweep:
    def _cut(self, sweep, **kw):
        kw.setdefault("engine", "levelized")
        kw.setdefault("opt", 0)
        kw.setdefault("batch_max", 16)
        return cut_sweep("spec", _targets.build_chain, None, sweep.points(),
                         **kw)

    def test_groups_singletons_and_failures(self):
        cuts = self._cut(mixed_sweep())
        sizes = [(fingerprint is not None, len(points))
                 for fingerprint, points in cuts]
        assert sizes == [(True, 3), (True, 2), (True, 1), (False, 1)]
        assert cuts[-1][1][0].params["stages"] == "x"

    def test_batch_max_chunks_and_one_means_per_point(self):
        assert [len(p) for _, p in self._cut(mixed_sweep(), batch_max=2)] \
            == [2, 1, 2, 1, 1]
        assert [len(p) for _, p in self._cut(mixed_sweep(), batch_max=1)] \
            == [1] * 7

    @pytest.mark.parametrize("kind", ["fn", "worklist"])
    def test_fn_and_worklist_points_are_never_built(self, kind,
                                                    private_cache):
        if kind == "fn":
            cuts = cut_sweep("fn", _targets.double, None,
                             GridSweep({"x": [1, 2, 3]}).points(),
                             engine="levelized", opt=0, batch_max=16)
        else:
            cuts = self._cut(mixed_sweep(), engine="worklist")
        assert all(fingerprint is None and len(points) == 1
                   for fingerprint, points in cuts)
        assert private_cache.stats["stores"] == 0

    def test_broken_builder_cuts_every_point_alone(self):
        cuts = cut_sweep("spec", _targets.boom, None,
                         GridSweep(SWEEP_AXES).points(),
                         engine="levelized", opt=0, batch_max=16)
        assert len(cuts) == 8
        assert all(fingerprint is None for fingerprint, _ in cuts)


class TestGroupingWarmsTheCache:
    """Cutting compiles each topology once, with what its tasks run,
    before workers fan out."""

    def test_grouping_populates_cache(self, tmp_path, private_cache):
        campaign = _campaign(tmp_path, "warm")
        cuts = cut_sweep("spec", _targets.build_pipe, None,
                         campaign.sweep.points(), engine="levelized",
                         opt=None, batch_max=16)
        # All eight points share one topology (depth/rate are runtime
        # parameters), so exactly one schedule gets compiled.
        assert len({fingerprint for fingerprint, _ in cuts}) == 1
        assert private_cache.stats["stores"] >= 1
        result = campaign.run()
        assert len(result.done) == 8 and not result.failed

    @pytest.mark.parametrize("opt", [0, 2])
    def test_singleton_finds_its_static_stepper_warm(self, private_cache,
                                                     opt):
        # Forked workers inherit the memory layer: a single point's
        # stepper code object must already be there, or every worker
        # compiles it.
        from repro.core.opt import opt_cache_key
        [(fingerprint, points)] = cut_sweep(
            "spec", _targets.build_pipe, None,
            GridSweep({"depth": [2], "rate": [0.5]}).points(),
            engine="levelized", opt=opt, batch_max=16)
        assert len(points) == 1
        key = opt_cache_key(fingerprint, opt) if opt else fingerprint
        assert private_cache._memory[key].code is not None

    def test_batch_finds_its_vec_plan_warm(self, private_cache):
        from repro.core.vec import vec_cache_key
        [(fingerprint, points)] = cut_sweep(
            "spec", _targets.build_pipe, None,
            GridSweep(SWEEP_AXES).points(), engine="levelized", opt=0,
            batch_max=16)
        assert len(points) == 8
        assert private_cache._memory[vec_cache_key(fingerprint, 0)].vec \
            is not None


class TestEngineIsHonoured:
    def test_worklist_campaign_runs_every_point_on_the_interpreter(
            self, tmp_path, built_engines):
        result = _campaign(tmp_path, "wl", engine="worklist",
                           workers=0).run()
        assert len(result.done) == 8
        assert built_engines == ["Simulator"] * 8


class TestLedgerStaysPerPoint:
    def test_ledger_rows_are_per_lane(self, tmp_path):
        campaign = _campaign(tmp_path, "journal")
        campaign.run()
        state = Ledger.load(campaign.ledger_path)
        assert len(state.completed_ids()) == 8
        assert "batch" not in state.meta
        assert all(not run_id.startswith("batch") for run_id in state.runs)
        report = campaign.report()
        assert len(report.done) == 8
        for row in report.done:
            assert row.result["cycles"] == 60
            assert row.metric("stats.snk:consumed") >= 0

    def test_batched_ledger_resumes_per_point(self, tmp_path):
        _campaign(tmp_path, "cross").run()
        result = _campaign(tmp_path, "cross", batch_max=1).run(resume=True)
        assert len(result.done) == 8  # everything already done

    def test_per_point_ledger_resumes_batched(self, tmp_path):
        _campaign(tmp_path, "cross2", batch_max=1).run()
        result = _campaign(tmp_path, "cross2").run(resume=True)
        assert len(result.done) == 8

    @pytest.mark.parametrize("batch", [True, False])
    def test_ledger_with_batch_meta_resumes(self, tmp_path, batch):
        # Ledgers written before every campaign grouped record the
        # ``batch`` flag in their campaign event.
        campaign = _campaign(tmp_path, f"old-{batch}", workers=0)
        campaign.run()
        with open(campaign.ledger_path, encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        events[0]["meta"]["batch"] = batch
        events = [e for e in events if e["event"] != "done"
                  or e["run_id"] != events[1]["run_id"]]
        with open(campaign.ledger_path, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(e) + "\n" for e in events)
        progress = []
        result = campaign.run(resume=True, progress=progress.append)
        assert len(result.done) == 8
        assert "7 already done, 1 to run" in progress[0]


class TestBatchCheckpoints:
    """Batches checkpoint; a killed campaign resumes from the snapshot
    only when the resumed cut holds the very same lanes."""

    CYCLES = 60

    def _chain(self, tmp_path, name, **kw):
        sweep = GridSweep({"stages": [1, 2], "rate": [0.2, 0.5, 0.8]},
                          base_seed=3)
        return Campaign(name, sweep, target=_targets.build_chain,
                        kind="spec", cycles=self.CYCLES, workers=0,
                        retries=0, checkpoint_every=10,
                        checkpoint_dir=str(tmp_path / f"{name}.ckpt"),
                        ledger_path=str(tmp_path / f"{name}.jsonl"), **kw)

    def _kill_second_batch(self, campaign, monkeypatch):
        """Run until the second batch has saved two snapshots, then
        interrupt the campaign as Ctrl-C would."""
        from repro.campaign import checkpoint
        saves = []
        save = checkpoint.save_state

        def save_then_die(sim, path):
            save(sim, path)
            saves.append(path)
            if len(set(saves)) == 2 and saves.count(path) == 2:
                raise KeyboardInterrupt
        monkeypatch.setattr(checkpoint, "save_state", save_then_die)
        with pytest.raises(KeyboardInterrupt):
            campaign.run()
        monkeypatch.setattr(checkpoint, "save_state", save)
        return saves[-1]

    def _count_loads(self, monkeypatch):
        from repro.campaign import checkpoint
        loads = []
        load = checkpoint.load_state

        def counted(path):
            loads.append(path)
            return load(path)
        monkeypatch.setattr(checkpoint, "load_state", counted)
        return loads

    def test_killed_batch_resumes_from_its_snapshot(self, tmp_path,
                                                    monkeypatch):
        expected = rows_of(self._chain(tmp_path, "whole").run())
        campaign = self._chain(tmp_path, "killed")
        snapshot = self._kill_second_batch(campaign, monkeypatch)
        assert os.path.exists(snapshot)
        loads = self._count_loads(monkeypatch)
        progress = []
        result = campaign.run(resume=True, progress=progress.append)
        assert "3 already done, 3 to run" in progress[0]
        assert loads == [snapshot]
        assert rows_of(result) == expected
        assert os.listdir(campaign.checkpoint_dir) == []

    def test_resume_with_other_lanes_ignores_the_snapshot(self, tmp_path,
                                                          monkeypatch):
        whole = self._chain(tmp_path, "whole").run()
        expected = rows_of(whole)
        campaign = self._chain(tmp_path, "recut")
        snapshot = self._kill_second_batch(campaign, monkeypatch)
        # One lane of the killed batch is journaled done: the resumed
        # cut holds the other two, under a different task id.
        lane = whole.rows[-1]
        with Ledger(campaign.ledger_path).open(append=True) as ledger:
            ledger.record({"event": "done", "run_id": lane.run_id,
                           "attempt": 1, "duration": 0.0,
                           "result": lane.result})
        loads = self._count_loads(monkeypatch)
        result = campaign.run(resume=True)
        assert loads == []
        assert rows_of(result) == expected
        # The killed batch's snapshot can never be loaded again: the
        # resumed run removes it.
        assert os.path.exists(snapshot) is False
        assert os.listdir(campaign.checkpoint_dir) == []


class TestValidation:
    def test_batch_false_points_at_batch_max(self, tmp_path):
        with pytest.raises(CampaignError, match="batch_max=1"):
            _campaign(tmp_path, "old", batch=False)

    def test_unknown_engine_rejected_at_construction(self, tmp_path):
        with pytest.raises(CampaignError, match="registered engines"):
            _campaign(tmp_path, "bad", engine="levelzied")

    def test_batch_max_must_be_positive(self, tmp_path):
        with pytest.raises(CampaignError, match="batch_max"):
            _campaign(tmp_path, "bm", batch_max=0)


class TestBatchedProfiling:
    def test_per_lane_profile_in_results(self, tmp_path):
        # The lockstep engine keeps its vec plan under the profilers;
        # per-lane invoke counts equal a per-point campaign's exactly.
        result = _campaign(tmp_path, "prof", workers=0, profile=True).run()
        scalar = _campaign(tmp_path, "prof-solo", workers=0, profile=True,
                           batch_max=1).run()
        assert len(result.done) == 8
        for row, ref in zip(result.done, scalar.done):
            profile = row.result["profile"]
            assert profile["steps"] == 60
            calls = {path: rec["calls"]
                     for path, rec in profile["instances"].items()}
            assert calls == {path: rec["calls"] for path, rec
                             in ref.result["profile"]["instances"].items()}
            assert set(calls) == {"src", "q", "snk"}
