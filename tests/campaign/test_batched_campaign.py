"""Tests for the fingerprint-grouped batched campaign fast path."""

import pytest

from repro.campaign import Campaign, CampaignError, GridSweep, Ledger

from . import _targets

SWEEP_AXES = {"depth": [1, 2, 4, 8], "rate": [0.4, 0.9]}


def _campaign(tmp_path, name, **kw):
    defaults = dict(target=_targets.build_pipe, kind="spec", cycles=60,
                    engine="levelized", workers=2, retries=0,
                    ledger_path=str(tmp_path / f"{name}.jsonl"))
    defaults.update(kw)
    return Campaign(name, GridSweep(SWEEP_AXES, base_seed=5), **defaults)


class TestBatchedEquivalence:
    def test_batched_matches_per_run_bit_for_bit(self, tmp_path):
        per_run = _campaign(tmp_path, "perrun").run()
        batched = _campaign(tmp_path, "batched", batch=True).run()
        assert len(batched.done) == 8 and not batched.failed
        for solo, lane in zip(per_run.rows, batched.rows):
            assert solo.run_id == lane.run_id
            assert solo.params == lane.params
            assert solo.result == lane.result

    def test_batched_inline_executor(self, tmp_path):
        result = _campaign(tmp_path, "inline", batch=True, workers=0).run()
        assert len(result.done) == 8

    def test_batch_max_splits_groups(self, tmp_path):
        events = []
        result = _campaign(tmp_path, "chunked", batch=True, batch_max=3,
                           workers=0).run(progress=events.append)
        assert len(result.done) == 8
        grouped = [line for line in events if "lockstep group" in line]
        # 8 structurally identical points at batch_max=3 -> 3+3+2 lanes,
        # i.e. three groups.
        assert grouped and "3 lockstep group(s)" in grouped[0]


class TestLedgerStaysPerPoint:
    def test_ledger_rows_are_per_lane(self, tmp_path):
        campaign = _campaign(tmp_path, "journal", batch=True)
        campaign.run()
        state = Ledger.load(campaign.ledger_path)
        assert len(state.completed_ids()) == 8
        assert state.meta["batch"] is True
        assert all(not run_id.startswith("batch:")
                   for run_id in state.runs)
        report = campaign.report()
        assert len(report.done) == 8
        for row in report.done:
            assert row.result["cycles"] == 60
            assert row.metric("stats.snk:consumed") >= 0

    def test_batched_ledger_resumes_unbatched(self, tmp_path):
        batched = _campaign(tmp_path, "cross", batch=True)
        batched.run()
        unbatched = _campaign(tmp_path, "cross")
        result = unbatched.run(resume=True)  # everything already done
        assert len(result.done) == 8

    def test_unbatched_ledger_resumes_batched(self, tmp_path):
        _campaign(tmp_path, "cross2").run()
        result = _campaign(tmp_path, "cross2", batch=True).run(resume=True)
        assert len(result.done) == 8


class TestValidation:
    def test_batch_requires_simulator_kind(self, tmp_path):
        with pytest.raises(CampaignError, match="simulator kind"):
            Campaign("x", GridSweep({"x": [1]}), target=_targets.double,
                     batch=True)

    def test_batch_rejects_checkpointing(self, tmp_path):
        with pytest.raises(CampaignError, match="checkpoint"):
            _campaign(tmp_path, "ck", batch=True, checkpoint_every=10)

    def test_unknown_engine_rejected_at_construction(self, tmp_path):
        with pytest.raises(CampaignError, match="registered engines"):
            _campaign(tmp_path, "bad", engine="levelzied")

    def test_batch_max_must_be_positive(self, tmp_path):
        with pytest.raises(CampaignError, match="batch_max"):
            _campaign(tmp_path, "bm", batch=True, batch_max=0)


class TestBatchedProfiling:
    def test_per_lane_profile_in_results(self, tmp_path, monkeypatch):
        # The default batch engine (batched-vec) keeps its vec plan under
        # the profilers; per-lane invoke counts equal the scalar batched
        # backend's exactly.
        result = _campaign(tmp_path, "prof", batch=True, workers=0,
                           profile=True).run()
        monkeypatch.setenv("REPRO_BATCH_ENGINE", "batched")
        scalar = _campaign(tmp_path, "prof-scalar", batch=True, workers=0,
                           profile=True).run()
        assert len(result.done) == 8
        for row, ref in zip(result.done, scalar.done):
            profile = row.result["profile"]
            assert profile["steps"] == 60
            calls = {path: rec["calls"]
                     for path, rec in profile["instances"].items()}
            assert calls == {path: rec["calls"] for path, rec
                             in ref.result["profile"]["instances"].items()}
            assert set(calls) == {"src", "q", "snk"}
