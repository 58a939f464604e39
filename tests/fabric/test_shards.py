"""Tests for job/shard planning and execution (repro.fabric.shards)."""

import pytest

from repro.campaign import CampaignError
from repro.campaign.sweep import GridSweep
from repro.core import compile_cache as cc
from repro.fabric import FabricError, JobSpec, execute_shard, plan_shards
from repro.fabric.client import job_from_sweep
from repro.fabric.shards import Shard, shard_fingerprints

PIPE = "tests.campaign._targets:build_pipe"
CHAIN = "tests.campaign._targets:build_chain"
DOUBLE = "tests.campaign._targets:double"


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path):
    cc.configure(enabled=True, disk_enabled=True,
                 disk_dir=str(tmp_path / "cache"))
    yield
    cc.configure()


def _points(n, param="depth", values=None):
    values = values if values is not None else [2] * n
    return [{"run_id": f"p{i}", "index": i, "params": {param: values[i]},
             "seed": 100 + i} for i in range(n)]


class TestJobSpec:
    def test_payload_round_trip(self):
        job = JobSpec(name="j", kind="spec", points=_points(2), target=PIPE,
                      cycles=77, batch_max=3, retries=1,
                      sweep_fingerprint="abc").validate()
        clone = JobSpec.from_payload(job.to_payload())
        assert clone == job

    def test_callable_target_is_refused_only_on_the_wire(self):
        from tests.campaign import _targets
        job = JobSpec(name="j", kind="spec", points=_points(1),
                      target=_targets.build_pipe).validate()
        with pytest.raises(CampaignError, match="dotted-path"):
            job.to_payload()

    def test_rejects_bad_kind_and_empty_points(self):
        with pytest.raises(CampaignError, match="kind"):
            JobSpec(name="j", kind="wat", points=_points(1),
                    target=PIPE).validate()
        with pytest.raises(CampaignError, match="no sweep points"):
            JobSpec(name="j", kind="spec", points=[], target=PIPE).validate()
        with pytest.raises(CampaignError, match="lss_text"):
            JobSpec(name="j", kind="lss", points=_points(1)).validate()

    def test_rejects_duplicate_run_ids(self):
        points = _points(2)
        points[1]["run_id"] = points[0]["run_id"]
        with pytest.raises(CampaignError, match="duplicate"):
            JobSpec(name="j", kind="spec", points=points,
                    target=PIPE).validate()

    def test_malformed_payload(self):
        with pytest.raises(CampaignError, match="malformed job payload"):
            JobSpec.from_payload({"name": "j"})

    def test_opt_level_round_trips(self):
        job = JobSpec(name="j", kind="spec", points=_points(2), target=PIPE,
                      opt=2).validate()
        clone = JobSpec.from_payload(job.to_payload())
        assert clone.opt == 2
        assert clone == job
        # Unset stays unset (each worker's REPRO_OPT then decides).
        bare = JobSpec(name="j", kind="spec", points=_points(2),
                       target=PIPE).validate()
        assert JobSpec.from_payload(bare.to_payload()).opt is None

    def test_rejects_bad_opt_level(self):
        with pytest.raises(CampaignError, match="opt"):
            JobSpec(name="j", kind="spec", points=_points(1), target=PIPE,
                    opt=5).validate()

    def test_job_from_sweep_materializes_points(self):
        sweep = GridSweep({"depth": [1, 2], "rate": [0.5]}, base_seed=3)
        job = job_from_sweep("demo", sweep, kind="spec", target=PIPE)
        expected = sweep.points()
        assert [p["run_id"] for p in job.points] \
            == [p.run_id for p in expected]
        assert [p["seed"] for p in job.points] == [p.seed for p in expected]
        assert job.sweep_fingerprint == sweep.fingerprint()


class TestPlanning:
    def test_structural_grouping_and_chunking(self):
        # Two distinct stage counts -> two topologies; batch_max=2
        # chunks the four same-structure points into two shards each.
        points = _points(8, param="stages",
                         values=[1, 1, 1, 1, 3, 3, 3, 3])
        # opt pinned to 0 so an ambient REPRO_OPT can't grow the
        # artifact list with optimized-IR composite keys.
        job = JobSpec(name="j", kind="spec", points=points, target=CHAIN,
                      batch_max=2, opt=0).validate()
        for point in job.points:
            point["params"]["rate"] = 0.5
        plan = plan_shards(job, "j1")
        # Two topologies, each with a base artifact plus its vec-planned
        # composite entry (opt level 0 adds no opt key).
        assert len(plan.fingerprints) == 4
        bases = [key for key in plan.fingerprints if "@" not in key]
        assert len(bases) == 2
        assert len(plan.shards) == 4
        assert all(s.mode == "batch" for s in plan.shards)
        assert sorted(len(s.points) for s in plan.shards) == [2, 2, 2, 2]
        # Every shard is structure-pure and ids are unique.
        assert len({s.shard_id for s in plan.shards}) == 4
        for shard in plan.shards:
            assert shard.fingerprint in bases
            assert shard_fingerprints(shard) == (shard.fingerprint,)
            staged = shard_fingerprints(shard, job)
            assert staged[0] == shard.fingerprint
            assert all(key in plan.fingerprints for key in staged)

    def test_skip_ids_removes_resumed_points(self):
        points = _points(4, values=[2, 2, 2, 2])
        for point in points:
            point["params"]["rate"] = 0.5
        job = JobSpec(name="j", kind="spec", points=points, target=PIPE,
                      batch_max=8).validate()
        plan = plan_shards(job, "j1", skip_ids=["p0", "p2"])
        assert len(plan.shards) == 1
        assert plan.shards[0].point_ids() == ["p1", "p3"]

    def test_everything_skipped_plans_nothing(self):
        job = JobSpec(name="j", kind="fn", points=_points(2),
                      target=DOUBLE).validate()
        plan = plan_shards(job, "j1", skip_ids=["p0", "p1"])
        assert plan.shards == []

    def test_fn_jobs_chunk_serially_without_analysis(self):
        job = JobSpec(name="j", kind="fn", points=_points(5),
                      target=DOUBLE, batch_max=2).validate()
        plan = plan_shards(job, "j1")
        assert [s.mode for s in plan.shards] == ["serial"] * 3
        assert [len(s.points) for s in plan.shards] == [2, 2, 1]
        assert plan.fingerprints == []

    def test_singleton_group_becomes_a_serial_shard(self):
        points = _points(3, param="stages", values=[1, 1, 2])
        for point in points:
            point["params"]["rate"] = 0.5
        job = JobSpec(name="j", kind="spec", points=points, target=CHAIN,
                      opt=0).validate()
        plan = plan_shards(job, "j1")
        assert [(s.mode, s.point_ids()) for s in plan.shards] \
            == [("batch", ["p0", "p1"]), ("serial", ["p2"])]
        single = plan.shards[1]
        # It keeps its fingerprint: the worker is shipped the base
        # artifact, without the vec plan a serial run never uses.
        assert shard_fingerprints(single, job) == (single.fingerprint,)
        assert single.fingerprint in plan.fingerprints

    def test_worklist_job_runs_every_point_on_the_interpreter(
            self, built_engines):
        points = _points(3)
        for point in points:
            point["params"]["rate"] = 0.5
        job = JobSpec(name="j", kind="spec", points=points, target=PIPE,
                      engine="worklist", cycles=20).validate()
        plan = plan_shards(job, "j1")
        assert [s.mode for s in plan.shards] == ["serial"]
        lanes = execute_shard(plan.shards[0], job)
        assert all(lane["ok"] for lane in lanes.values())
        assert built_engines == ["Simulator"] * 3

    def test_unknown_engine_rejected(self):
        with pytest.raises(CampaignError, match="registered engines"):
            JobSpec(name="j", kind="spec", points=_points(1), target=PIPE,
                    engine="levelzied").validate()

    def test_unbuildable_points_become_serial_singletons(self):
        points = _points(3, values=[2, -7, 2])  # negative depth won't build
        for point in points:
            point["params"]["rate"] = 0.5
        job = JobSpec(name="j", kind="spec", points=points,
                      target=PIPE).validate()
        plan = plan_shards(job, "j1")
        modes = sorted(s.mode for s in plan.shards)
        assert modes == ["batch", "serial"]
        serial = next(s for s in plan.shards if s.mode == "serial")
        assert serial.point_ids() == ["p1"]


class TestExecution:
    def test_serial_fn_shard(self):
        job = JobSpec(name="j", kind="fn",
                      points=[{"run_id": "a", "index": 0,
                               "params": {"x": 4}, "seed": 9}],
                      target=DOUBLE).validate()
        shard = Shard("s0", "j1", "serial", job.points)
        lanes = execute_shard(shard, job)
        assert lanes["a"]["ok"] is True
        assert lanes["a"]["result"]["value"] == 8
        assert lanes["a"]["result"]["seed"] == 9  # seed_key injection

    def test_serial_shard_isolates_failures(self):
        points = [{"run_id": "good", "index": 0, "params": {"x": 1},
                   "seed": 1},
                  {"run_id": "bad", "index": 1, "params": {"x": None},
                   "seed": 2}]
        job = JobSpec(name="j", kind="fn", points=points,
                      target=DOUBLE).validate()
        lanes = execute_shard(Shard("s0", "j1", "serial", points), job)
        assert lanes["good"]["ok"] is True
        assert lanes["bad"]["ok"] is False
        assert "TypeError" in lanes["bad"]["error"]

    def test_batch_shard_runs_lockstep(self):
        points = _points(3, values=[2, 2, 2])
        for i, point in enumerate(points):
            point["params"]["rate"] = 0.2 + 0.2 * i  # non-structural axis
        job = JobSpec(name="j", kind="spec", points=points, target=PIPE,
                      cycles=60).validate()
        plan = plan_shards(job, "j1")
        assert len(plan.shards) == 1 and plan.shards[0].mode == "batch"
        lanes = execute_shard(plan.shards[0], job)
        assert set(lanes) == {"p0", "p1", "p2"}
        for lane in lanes.values():
            assert lane["ok"] is True
            assert lane["result"]["cycles"] == 60

    def test_batch_shard_opt_is_observationally_invisible(self):
        # An opt=2 job's lanes must be bit-identical to the same shard
        # executed unoptimized — the fabric analogue of the engine
        # differentials.
        points = _points(3, values=[2, 2, 2])
        for i, point in enumerate(points):
            point["params"]["rate"] = 0.2 + 0.2 * i
        results = {}
        for opt in (None, 2):
            job = JobSpec(name="j", kind="spec", points=points, target=PIPE,
                          cycles=60, opt=opt).validate()
            plan = plan_shards(job, "j1")
            assert len(plan.shards) == 1
            results[opt] = execute_shard(plan.shards[0], job)
        assert results[2] == results[None]

    def test_unknown_mode(self):
        job = JobSpec(name="j", kind="fn", points=_points(1),
                      target=DOUBLE).validate()
        with pytest.raises(FabricError, match="unknown shard mode"):
            execute_shard(Shard("s0", "j1", "wat", job.points), job)

    def test_shard_payload_round_trip(self):
        shard = Shard("s0", "j1", "batch", _points(2), fingerprint="f" * 12,
                      attempts=2)
        assert Shard.from_payload(shard.to_payload()) == shard
        with pytest.raises(FabricError, match="malformed shard payload"):
            Shard.from_payload({"shard_id": "s0"})
