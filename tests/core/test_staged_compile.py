"""Differential tests for the staged compilation driver.

The tentpole contract: ``compile_model(design, CompileOptions(...))``
runs the optimizer pipeline and vec planning as compile-time passes,
caches the result under a composite key, and every consumer — local
engines, warm rebuilds, fabric workers — observes *identical* results
whether the plan was built live, fetched warm, or shipped as an
artifact.  Optimization and vec planning may only change the work per
timestep, never a single observable bit.
"""

from __future__ import annotations

import pytest

from repro import LSS, build_design, build_simulator
from repro.ccl.link import Link
from repro.core import compile_cache as cc
from repro.core import vec as core_vec
from repro.core.batched import BatchedSimulator
from repro.core.ir import CompileOptions, compile_model
from repro.core.opt import pipeline as opt_pipeline
from repro.core.optimize import LevelizedSimulator
from repro.pcl import Queue, Sink, Source
from repro.systems.fig2d import build_fig2d

from ..conftest import ooo_spec
from .test_opt import _fig2a_spec, _fig2b_spec, _fig2c_spec

ENGINES = ("worklist", "levelized", "batched")
LEVELS = (0, 1, 2)


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path):
    cc.configure(enabled=True, disk_enabled=True,
                 disk_dir=str(tmp_path / "cache"))
    yield
    cc.configure()


def _observe(sim):
    """Engine-independent observables (no scheduler-internal counters)."""
    return {"now": sim.now, "transfers": sim.transfers_total,
            "report": sim.stats.report(),
            "wires": list(sim.design.store.transfers)}


def _vec_pipe_spec(rate=0.5, depth=4):
    spec = LSS("vecpipe")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        payload=1, seed=3)
    q = spec.instance("q", Queue, depth=depth)
    snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.8, seed=7)
    spec.connect(src.port("out"), q.port("in"))
    spec.connect(q.port("out"), snk.port("in"))
    return spec


class TestOptVecEngineMatrix:
    """fig2d at every opt level on every engine is bit-identical."""

    @pytest.mark.parametrize("field,backend", [
        ("detailed", "statistical"),
        ("statistical", "statistical"),
    ])
    def test_fig2d_differential(self, field, backend):
        cycles, seed = 60, 11

        def run(engine, level):
            spec, _info = build_fig2d(2, field=field, backend=backend)
            sim = build_simulator(spec, engine=engine, seed=seed, opt=level)
            sim.run(cycles)
            observed = _observe(sim.lane(0) if hasattr(sim, "lane") else sim)
            sim.close()
            return observed

        reference = run("worklist", 0)
        for level in LEVELS:
            for engine in ENGINES:
                assert run(engine, level) == reference, (
                    f"{field}/{backend} diverged at "
                    f"engine={engine} opt={level}")


def _system_specs():
    return {
        "fig2a": _fig2a_spec, "fig2b": _fig2b_spec, "fig2c": _fig2c_spec,
        "fig2d-detailed": lambda: build_fig2d(
            2, backend="detailed", field="detailed")[0],
        "fig2d-statistical": lambda: build_fig2d(
            2, backend="statistical", field="statistical")[0],
        "ooo": ooo_spec,
    }


class TestCacheStateMatrix:
    """Every engine x opt level x cache state equals worklist at opt 0."""

    @pytest.mark.parametrize("system", sorted(_system_specs()))
    def test_miss_memory_hit_and_disk_hit_are_bit_identical(self, system,
                                                            tmp_path):
        make = _system_specs()[system]
        cycles, seed = 40, 5

        def run(engine, level):
            sim = build_simulator(make(), engine=engine, seed=seed,
                                  opt=level)
            sim.run(cycles)
            lane = sim.lane(0) if hasattr(sim, "lane") else sim
            observed = _observe(lane)
            from_cache = getattr(lane, "compiled_from_cache", None)
            sim.close()
            return observed, from_cache

        reference, _ = run("worklist", 0)
        for engine in ENGINES:
            for level in LEVELS:
                disk = str(tmp_path / f"{engine}-{level}")
                cc.configure(enabled=True, disk_enabled=True, disk_dir=disk)
                states = []
                for state in ("miss", "memory hit", "disk hit"):
                    if state == "disk hit":  # a new process: memory empty
                        cc.configure(enabled=True, disk_enabled=True,
                                     disk_dir=disk)
                    observed, from_cache = run(engine, level)
                    assert observed == reference, (
                        f"{system}: engine={engine} opt={level} diverged "
                        f"on cache {state}")
                    states.append(from_cache)
                if engine != "worklist":  # which records no cache state
                    assert states == [False, True, True]


class TestVersionBump:
    """A pre-bump on-disk entry is never bound."""

    @staticmethod
    def _build():
        sim = build_simulator(_vec_pipe_spec(), engine="levelized",
                              seed=3, opt=2)
        sim.run(50)
        observed = _observe(sim)
        from_cache = sim.compiled_from_cache
        sim.close()
        return observed, from_cache

    def test_planted_old_version_entries_are_not_bound(self, tmp_path):
        import json
        import os
        from repro.core.opt import OPT_VERSION, opt_cache_key

        disk = str(tmp_path / "planted")
        cc.configure(enabled=True, disk_enabled=True, disk_dir=disk)
        reference, _ = self._build()
        fingerprint = cc.design_fingerprint(build_design(_vec_pipe_spec()))
        key = opt_cache_key(fingerprint, 2)
        assert key.endswith(f".{OPT_VERSION}")

        # What the previous release would have left behind: the same
        # file names carrying the old format version, plus an entry
        # under the old OPT_VERSION key.  Both hold a schedule that
        # would visibly break the run if it were ever bound.
        old_key = f"{fingerprint}@opt2.{OPT_VERSION - 1}"
        for name in os.listdir(disk):
            path = os.path.join(disk, name)
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            payload.update(version=cc.CACHE_VERSION - 1, schedule=[])
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            if payload["fingerprint"] == key:
                payload.update(fingerprint=old_key,
                               version=cc.CACHE_VERSION)
                with open(os.path.join(disk, old_key + ".json"), "w",
                          encoding="utf-8") as handle:
                    json.dump(payload, handle)

        cc.configure(enabled=True, disk_enabled=True, disk_dir=disk)
        runs = opt_pipeline.PIPELINE_RUNS
        observed, from_cache = self._build()
        assert not from_cache, "a stale entry was bound"
        assert opt_pipeline.PIPELINE_RUNS == runs + 1
        assert observed == reference
        assert cc.get_cache().lookup(old_key).schedule == []  # untouched

    def test_installed_old_opt_version_artifact_is_not_bound(self):
        """What a not-yet-upgraded fabric coordinator would ship: the
        optimized artifact under the previous ``OPT_VERSION`` key."""
        import hashlib
        import json
        from repro.core.opt import OPT_VERSION, opt_cache_key
        from repro.fabric import export_artifact, install_artifact

        reference, _ = self._build()
        fingerprint = cc.design_fingerprint(build_design(_vec_pipe_spec()))
        key = opt_cache_key(fingerprint, 2)
        old_key = f"{fingerprint}@opt2.{OPT_VERSION - 1}"
        payload = json.loads(export_artifact(key)["blob"])
        payload.update(fingerprint=old_key, schedule=[])
        payload["opt"]["version"] = OPT_VERSION - 1
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        cc.get_cache().evict(key)
        install_artifact({"fingerprint": old_key, "blob": blob,
                          "sha256": hashlib.sha256(
                              blob.encode("utf-8")).hexdigest()})
        runs = opt_pipeline.PIPELINE_RUNS
        observed, from_cache = self._build()
        assert not from_cache, "a stale artifact was bound"
        assert opt_pipeline.PIPELINE_RUNS == runs + 1
        assert observed == reference


class TestWarmBuilds:
    """Warm rebuilds skip the pipeline AND planning, bit-identically."""

    @staticmethod
    def _build(run_cycles=80):
        designs = [build_design(_vec_pipe_spec(rate=r))
                   for r in (0.3, 0.6, 0.9)]
        batch = BatchedSimulator(designs, seeds=[1, 2, 3], opt=2)
        batch.run(run_cycles)
        lanes = [_observe(batch.lane(i)) for i in range(3)]
        plan = batch.vec_plan
        batch.close()
        return lanes, plan

    def test_warm_build_runs_zero_passes_and_zero_plans(self):
        cold_lanes, cold_plan = self._build()
        assert cold_plan is not None
        runs = opt_pipeline.PIPELINE_RUNS
        builds = core_vec.PLAN_BUILDS
        warm_lanes, warm_plan = self._build()
        assert opt_pipeline.PIPELINE_RUNS == runs, "warm build ran a pass"
        assert core_vec.PLAN_BUILDS == builds, "warm build planned live"
        assert warm_plan.origin == "adopted"
        assert warm_lanes == cold_lanes

    def test_plan_cache_hit_equals_miss(self):
        design = build_design(_vec_pipe_spec())
        miss = compile_model(design, CompileOptions(opt_level=2, vec=True))
        builds = core_vec.PLAN_BUILDS
        hit = compile_model(build_design(_vec_pipe_spec()),
                            CompileOptions(opt_level=2, vec=True))
        assert core_vec.PLAN_BUILDS == builds
        assert hit.model.vec == miss.model.vec
        assert hit.model.fingerprint == miss.model.fingerprint
        assert "@opt2+vec" in hit.model.fingerprint

    def test_vec_payload_round_trips_through_cache_payload(self):
        design = build_design(_vec_pipe_spec())
        bound = compile_model(design, CompileOptions(opt_level=1, vec=True))
        from repro.core.ir import CompiledModel
        clone = CompiledModel.from_payload(bound.model.to_payload())
        assert clone.vec == bound.model.vec


class TestShippedPlans:
    """A fabric worker executes the shipped plan: no passes, no plans."""

    def _job(self):
        from repro.fabric import JobSpec
        points = [{"run_id": f"p{i}", "index": i,
                   "params": {"depth": 2, "rate": 0.2 + 0.2 * i},
                   "seed": 100 + i} for i in range(3)]
        return JobSpec(name="j", kind="spec", points=points,
                       target="tests.campaign._targets:build_pipe",
                       cycles=60, opt=2).validate()

    def test_shipped_plan_matches_local_replan(self, tmp_path):
        from repro.fabric import plan_shards
        from repro.fabric.artifacts import export_artifact, install_artifact
        from repro.fabric.shards import execute_shard, shard_fingerprints

        job = self._job()
        cc.configure(enabled=True, disk_enabled=True,
                     disk_dir=str(tmp_path / "coord"))
        plan = plan_shards(job, "j1")
        assert len(plan.shards) == 1
        shard = plan.shards[0]
        keys = shard_fingerprints(shard, job)
        assert len(keys) == 3  # base + optimized IR + vec plan
        blobs = [export_artifact(key) for key in keys]
        assert all(blob is not None for blob in blobs), \
            "planner did not warm every staged artifact"

        # Reference: a worker with an empty cache replans everything.
        cc.configure(enabled=True, disk_enabled=True,
                     disk_dir=str(tmp_path / "fresh"))
        reference = execute_shard(shard, job)

        # Shipped: a worker that installed the staged artifacts runs
        # the whole shard without one pass run or plan build.
        cc.configure(enabled=True, disk_enabled=True,
                     disk_dir=str(tmp_path / "worker"))
        for blob in blobs:
            install_artifact(blob)
        runs = opt_pipeline.PIPELINE_RUNS
        builds = core_vec.PLAN_BUILDS
        lanes = execute_shard(shard, job)
        assert opt_pipeline.PIPELINE_RUNS == runs, "worker ran a pass"
        assert core_vec.PLAN_BUILDS == builds, "worker replanned locally"
        assert lanes == reference


class TestOptAwarePlanning:
    """Optimizer-parked wires park in the plan — they never demote."""

    @staticmethod
    def _payload(level):
        spec, _info = build_fig2d(2, field="detailed", backend="detailed")
        bound = compile_model(build_design(spec),
                              CompileOptions(opt_level=level, vec=True))
        return bound.model.vec

    def test_parked_wires_leave_the_demotion_log(self):
        base = self._payload(0)
        opt = self._payload(2)
        # The detailed gateway backend has optimizer-removable wires;
        # at opt 2 they move from "demoted" to "parked" ...
        assert opt["counts"]["parked"] > 0
        assert base["counts"]["parked"] == 0
        demoted = lambda p: {tuple(key) for key, _reason in p["demotions"]}
        assert demoted(opt) < demoted(base)
        assert len(demoted(base) - demoted(opt)) == opt["counts"]["parked"]
        # ... and never at the expense of a vectorized wire.
        assert opt["counts"]["vectorized"] >= base["counts"]["vectorized"]

    def test_opt_never_narrows_coverage(self):
        spec, _info = build_fig2d(2, field="statistical",
                                  backend="statistical")
        design = build_design(spec)
        base = compile_model(design, CompileOptions(vec=True)).model.vec
        assert base["counts"]["vectorized"] == base["counts"]["total"]
        for level in (1, 2):
            opt = compile_model(build_design(spec),
                                CompileOptions(opt_level=level,
                                               vec=True)).model.vec
            assert opt["counts"]["vectorized"] \
                >= base["counts"]["vectorized"] - opt["counts"]["parked"]
            assert opt["counts"]["demoted"] == 0


class TestVecLink:
    """Satellite: the ccl Link vectorizes (hops + flits accounting)."""

    class Pkt:
        def __init__(self):
            self.hops = 0
            self.size = 2

        def __repr__(self):  # stable across lanes: fingerprint parity
            return "Pkt()"

    def _spec(self, rate, payload):
        spec = LSS("linknet")
        src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                            payload=payload, seed=3)
        link = spec.instance("link", Link, latency=2)
        snk = spec.instance("snk", Sink)
        spec.connect(src.port("out"), link.port("in"))
        spec.connect(link.port("out"), snk.port("in"))
        return spec

    @pytest.mark.parametrize("payload", [1, "pkt"])
    def test_link_lanes_match_solo_runs(self, payload):
        rates = (0.3, 0.6, 0.9)

        def make(rate):
            value = self.Pkt() if payload == "pkt" else payload
            return build_design(self._spec(rate, value))

        designs = [make(r) for r in rates]
        batch = BatchedSimulator(designs, seeds=[1, 2, 3])
        batch.run(100)
        assert batch.vec_plan is not None
        assert "link" in batch.vec_plan.vec_paths
        lanes = [_observe(batch.lane(i)) for i in range(3)]
        hops = [getattr(d.leaves["src"].p["payload"], "hops", None)
                for d in designs]
        batch.close()
        for i, rate in enumerate(rates):
            solo_design = make(rate)
            solo = LevelizedSimulator(solo_design, seed=1 + i)
            solo.run(100)
            observed = _observe(solo)
            assert "flits" in observed["report"]
            assert lanes[i] == observed, f"lane {i} diverged"
            if payload == "pkt":
                assert hops[i] \
                    == solo_design.leaves["src"].p["payload"].hops
            solo.close()


class TestUniformOptValidation:
    """Satellite: every CLI rejects a bad --opt the same way: exit 2."""

    @pytest.mark.parametrize("argv", [
        ["run", "x.lss", "--opt", "fast"],
        ["run", "x.lss", "--opt", "9"],
        ["profile", "--opt", "-1"],
        ["opt", "--level", "banana"],
        ["campaign", "x.lss", "--grid", "a=1", "--opt", "nope"],
        ["submit", "x.lss", "--grid", "a=1", "--connect", "h:1",
         "--opt", "3"],
    ], ids=["run-word", "run-range", "profile", "opt", "campaign",
            "submit"])
    def test_bad_opt_level_exits_2(self, argv, capsys):
        from repro.__main__ import main
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "0..2" in err  # the message names the valid levels
