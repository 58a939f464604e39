"""End-to-end tests for the campaign orchestrator (repro.campaign)."""

import json
import os

import pytest

from repro.campaign import (Campaign, CampaignError, GridSweep, Ledger,
                            result_from_ledger)

from . import _targets


def _pipe_campaign(tmp_path, name="pipe", workers=2, **kw):
    defaults = dict(target=_targets.build_pipe, kind="spec", cycles=60,
                    engine="levelized", workers=workers, retries=0,
                    ledger_path=str(tmp_path / f"{name}.jsonl"))
    defaults.update(kw)
    return Campaign(name,
                    GridSweep({"depth": [1, 2, 4, 8], "rate": [0.4, 0.9]},
                              base_seed=5),
                    **defaults)


class TestEndToEnd:
    def test_eight_point_sweep_with_workers(self, tmp_path):
        result = _pipe_campaign(tmp_path).run()
        assert len(result.rows) == 8
        assert len(result.done) == 8 and not result.failed
        for row in result.done:
            assert row.result["cycles"] == 60
            assert row.metric("stats.snk:consumed") > 0
        # Aggregate view: deeper queues never hurt throughput.
        consumed = result.group_by("depth", "snk:consumed", agg="mean")
        assert set(consumed) == {1, 2, 4, 8}
        assert consumed[8] >= consumed[1]
        # The table renders every point with its parameters.
        table = result.table(metrics=["transfers"])
        assert "depth" in table and "rate" in table
        assert table.count("done") == 8

    def test_ledger_is_complete_journal(self, tmp_path):
        campaign = _pipe_campaign(tmp_path, name="journal")
        campaign.run()
        state = Ledger.load(campaign.ledger_path)
        assert state.points == 8
        assert len(state.completed_ids()) == 8
        assert state.meta["kind"] == "spec"
        # report() rebuilds the same aggregate from the journal alone.
        report = campaign.report()
        assert len(report.done) == 8
        assert report.done[0].result["cycles"] == 60

    def test_inline_matches_processes(self, tmp_path):
        serial = _pipe_campaign(tmp_path, name="serial", workers=0).run()
        pooled = _pipe_campaign(tmp_path, name="pooled", workers=3).run()
        for s_row, p_row in zip(serial.rows, pooled.rows):
            assert s_row.params == p_row.params
            assert s_row.result["stats"] == p_row.result["stats"]


class TestResume:
    def test_resume_runs_only_remaining_points(self, tmp_path):
        counter_dir = str(tmp_path / "counts")
        marker = str(tmp_path / "allow-big-depths")

        def make():
            # Fixed-path arguments ride along as single-value axes so the
            # sweep fingerprint stays identical across both invocations.
            return Campaign(
                "resumable",
                GridSweep({"depth": [1, 2, 4, 8], "counter_dir": [counter_dir],
                           "marker": [marker]}, base_seed=1),
                target=_targets.fail_for_big_depth, kind="fn", seed_key=None,
                workers=0, retries=0,
                ledger_path=str(tmp_path / "resumable.jsonl"))

        first = make().run()
        # Interrupted world: depths 4 and 8 failed, 1 and 2 completed.
        assert {r.params["depth"] for r in first.done} == {1, 2}
        assert {r.params["depth"] for r in first.failed} == {4, 8}

        open(marker, "w").close()  # "fix" the environment
        # fail_for_big_depth consults the marker next to the counter dir.
        resumed = make().run(resume=True)
        assert len(resumed.done) == 4 and not resumed.failed
        # Completed points were NOT re-executed; failed points were.
        counts = {r.params["depth"]: r.metric("executions")
                  for r in resumed.done}
        assert counts[1] == 1 and counts[2] == 1
        assert counts[4] == 2 and counts[8] == 2

    def test_resume_refuses_different_sweep(self, tmp_path):
        ledger = str(tmp_path / "c.jsonl")
        Campaign("c", GridSweep({"x": [1, 2]}), target=_targets.double,
                 workers=0, ledger_path=ledger).run()
        other = Campaign("c", GridSweep({"x": [1, 3]}), target=_targets.double,
                         workers=0, ledger_path=ledger)
        with pytest.raises(CampaignError, match="different campaign"):
            other.run(resume=True)

    def test_fresh_run_refuses_existing_ledger(self, tmp_path):
        campaign = _pipe_campaign(tmp_path, name="dup", workers=0)
        campaign.run()
        with pytest.raises(CampaignError, match="already holds"):
            _pipe_campaign(tmp_path, name="dup", workers=0).run()

    def test_resume_without_ledger(self, tmp_path):
        with pytest.raises(CampaignError, match="no ledger"):
            _pipe_campaign(tmp_path, name="ghost").run(resume=True)

    def test_resume_on_fully_complete_ledger_is_noop(self, tmp_path):
        counter_dir = str(tmp_path / "counts")

        def make():
            return Campaign(
                "noop",
                GridSweep({"depth": [1, 2], "counter_dir": [counter_dir]}),
                target=_targets.touch_and_count, kind="fn", seed_key=None,
                workers=0, ledger_path=str(tmp_path / "noop.jsonl"))

        first = make().run()
        assert len(first.done) == 2
        again = make().run(resume=True)
        assert len(again.done) == 2
        assert all(r.metric("executions") == 1 for r in again.done)


class TestConfiguration:
    def test_fn_seed_injection(self, tmp_path):
        campaign = Campaign("seeds", GridSweep({"x": [1, 2]}, base_seed=9),
                            target=_targets.double, workers=0,
                            ledger_path=str(tmp_path / "seeds.jsonl"))
        result = campaign.run()
        seeds = {r.metric("seed") for r in result.done}
        assert len(seeds) == 2 and 0 not in seeds

    def test_invalid_kind(self, tmp_path):
        with pytest.raises(CampaignError):
            Campaign("x", GridSweep({"a": [1]}), target=_targets.double,
                     kind="nope")
        with pytest.raises(CampaignError):
            Campaign("x", GridSweep({"a": [1]}), kind="lss")  # no text
        with pytest.raises(CampaignError):
            Campaign("x", GridSweep({"a": [1]}), kind="spec")  # no target

    def test_checkpoints_cleaned_after_success(self, tmp_path):
        ckpt_dir = str(tmp_path / "snaps")
        campaign = Campaign(
            "ck", GridSweep({"depth": [2], "rate": [0.5]}),
            target=_targets.build_pipe, kind="spec", cycles=50,
            checkpoint_every=10, checkpoint_dir=ckpt_dir, workers=0,
            ledger_path=str(tmp_path / "ck.jsonl"))
        result = campaign.run()
        assert len(result.done) == 1
        assert os.listdir(ckpt_dir) == []

    def test_pending_rows_from_partial_ledger(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        with Ledger(str(path)).open() as ledger:
            ledger.record({"event": "campaign", "fingerprint": "f",
                           "points": 2, "meta": {}})
            ledger.record({"event": "point", "run_id": "a", "index": 0,
                           "params": {"x": 1}, "seed": 1})
            ledger.record({"event": "point", "run_id": "b", "index": 1,
                           "params": {"x": 2}, "seed": 2})
            ledger.record({"event": "start", "run_id": "a", "attempt": 1})
        result = result_from_ledger("partial", Ledger.load(str(path)))
        assert {r.status for r in result.rows} == {"pending"}
        assert "pending" in result.summary()


class TestProfiledCampaign:
    def test_profile_rides_ledger_across_processes(self, tmp_path):
        campaign = _pipe_campaign(tmp_path, name="profiled", workers=2,
                                  profile=True, profile_sample=2)
        result = campaign.run()
        assert len(result.done) == 8
        profiles = result.profiles()
        assert set(profiles) == {r.run_id for r in result.done}
        for profile in profiles.values():
            assert profile["steps"] == 60
            assert profile["sample_every"] == 2
            assert profile["instances"]
        report = result.hotspot_report()
        assert "8 profiled runs" in report
        # Replaying the journal preserves the profile data verbatim.
        replayed = campaign.report()
        assert replayed.profiles() == profiles

    def test_unprofiled_campaign_has_no_profile_section(self, tmp_path):
        result = _pipe_campaign(tmp_path, name="plain2", workers=0).run()
        assert result.profiles() == {}
        assert result.hotspot_report() == ""

    def test_profile_top_bounds_ledger_payload(self, tmp_path):
        campaign = _pipe_campaign(tmp_path, name="bounded", workers=0,
                                  profile=True)
        campaign.profile = True
        result = campaign.run()
        for profile in result.profiles().values():
            assert len(profile["instances"]) <= 25


class TestCompileCachePrewarm:
    """The parent compiles each topology once before workers fan out."""

    @pytest.fixture(autouse=True)
    def private_cache(self, tmp_path):
        from repro.core import compile_cache as cc
        cache = cc.configure(disk_dir=str(tmp_path / "compile-cache"))
        yield cache
        cc.configure()

    def test_prewarm_populates_cache(self, tmp_path, private_cache):
        campaign = _pipe_campaign(tmp_path, name="warm")
        warmed = campaign._prewarm(campaign.sweep.points())
        # All eight points share one topology (depth/rate are runtime
        # parameters), so exactly one schedule gets compiled.
        assert warmed == 1
        assert private_cache.stats["stores"] >= 1
        result = campaign.run()
        assert len(result.done) == 8 and not result.failed

    @pytest.mark.parametrize("opt", [0, 2])
    def test_prewarm_compiles_the_static_stepper(self, tmp_path,
                                                 private_cache, opt):
        # Forked workers inherit the memory layer: the stepper's code
        # object must already be there, or every worker compiles it.
        from repro import build_design
        from repro.core.compile_cache import design_fingerprint
        from repro.core.opt import opt_cache_key
        campaign = _pipe_campaign(tmp_path, name="stepper", opt=opt)
        points = campaign.sweep.points()
        assert campaign._prewarm(points) == 1
        fingerprint = design_fingerprint(
            build_design(_targets.build_pipe(**points[0].params)))
        key = opt_cache_key(fingerprint, opt) if opt else fingerprint
        assert private_cache._memory[key].code is not None

    def test_prewarm_skipped_when_pointless(self, tmp_path):
        points = _pipe_campaign(tmp_path).sweep.points()
        assert _pipe_campaign(tmp_path, workers=0)._prewarm(points) == 0
        assert _pipe_campaign(tmp_path,
                              engine="worklist")._prewarm(points) == 0
        fn_campaign = _pipe_campaign(tmp_path, kind="fn",
                                     target=_targets.double)
        assert fn_campaign._prewarm(points) == 0

    def test_prewarm_tolerates_broken_builder(self, tmp_path):
        campaign = _pipe_campaign(tmp_path, target=_targets.boom)
        assert campaign._prewarm(campaign.sweep.points()) == 0
