"""Unit tests for the compilation cache (repro.core.compile_cache)."""

import json
import os

import pytest

from repro import LSS, build_simulator
from repro.core import INPUT, OUTPUT, LeafModule, PortDecl, ack, fwd
from repro.core import compile_cache as cc
from repro.core.constructor import build_design
from repro.core.control import squash_when
from repro.core.ir import CompileOptions
from repro.pcl import Queue, Sink, Source


@pytest.fixture(autouse=True)
def private_cache(tmp_path):
    """Every test gets an empty cache in a throwaway directory."""
    cache = cc.configure(disk_dir=str(tmp_path / "cache"))
    yield cache
    cc.configure()


def pipe_spec(name="pipe", *, reverse_declarations=False, control=None):
    """The quickstart pipe, optionally declared back-to-front."""
    spec = LSS(name)
    if reverse_declarations:
        snk = spec.instance("snk", Sink)
        q = spec.instance("q", Queue, depth=4)
        src = spec.instance("src", Source, pattern="counter")
        spec.connect(q.port("out"), snk.port("in"), control=control)
        spec.connect(src.port("out"), q.port("in"))
    else:
        src = spec.instance("src", Source, pattern="counter")
        q = spec.instance("q", Queue, depth=4)
        snk = spec.instance("snk", Sink)
        spec.connect(src.port("out"), q.port("in"))
        spec.connect(q.port("out"), snk.port("in"), control=control)
    return spec


def _fingerprint(spec):
    return cc.design_fingerprint(build_design(spec))


class TestFingerprint:
    def test_declaration_order_is_canonicalized_away(self):
        assert _fingerprint(pipe_spec()) \
            == _fingerprint(pipe_spec(reverse_declarations=True))

    def test_same_structure_same_fingerprint_across_builds(self):
        assert _fingerprint(pipe_spec()) == _fingerprint(pipe_spec())

    def test_design_name_is_covered(self):
        assert _fingerprint(pipe_spec("a")) != _fingerprint(pipe_spec("b"))

    def test_different_topology_same_name_differs(self):
        two_stage = LSS("pipe")  # same design name as pipe_spec()
        src = two_stage.instance("src", Source, pattern="counter")
        snk = two_stage.instance("snk", Sink)
        two_stage.connect(src.port("out"), snk.port("in"))
        assert _fingerprint(two_stage) != _fingerprint(pipe_spec())

    def test_memoized_on_design_and_copies(self):
        design = build_design(pipe_spec())
        first = cc.design_fingerprint(design)
        assert design._compile_fingerprint == first
        assert cc.design_fingerprint(design.copy()) == first

    def test_equivalent_control_functions_agree(self):
        big = pipe_spec(control=squash_when(lambda v: v > 5))
        same = pipe_spec(control=squash_when(lambda v: v > 5))
        assert _fingerprint(big) == _fingerprint(same)

    def test_changed_control_constant_invalidates(self):
        """The satellite case: same lambda shape, different threshold."""
        five = pipe_spec(control=squash_when(lambda v: v > 5))
        ten = pipe_spec(control=squash_when(lambda v: v > 10))
        assert _fingerprint(five) != _fingerprint(ten)

    def test_changed_closure_cell_invalidates(self):
        def gate(threshold):
            return squash_when(lambda v: v > threshold)

        assert _fingerprint(pipe_spec(control=gate(5))) \
            != _fingerprint(pipe_spec(control=gate(10)))


def _stage_class(deps):
    class Stage(LeafModule):
        PORTS = (PortDecl("in", INPUT, min_width=1),
                 PortDecl("out", OUTPUT, min_width=1))
        DEPS = deps

        def react(self):
            self.port("in").set_ack(0, True)
            self.port("out").send_nothing(0)

    return Stage


def _stage_spec(stage_cls):
    spec = LSS("staged")
    src = spec.instance("src", Source, pattern="counter")
    stage = spec.instance("stage", stage_cls)
    snk = spec.instance("snk", Sink)
    spec.connect(src.port("out"), stage.port("in"))
    spec.connect(stage.port("out"), snk.port("in"))
    return spec


class TestDepsInvalidation:
    def test_changed_deps_changes_fingerprint(self):
        moore = _stage_class({})
        flow_through = _stage_class({fwd("out"): (fwd("in"),),
                                     ack("in"): (ack("out"),)})
        assert _fingerprint(_stage_spec(moore)) \
            != _fingerprint(_stage_spec(flow_through))

    def test_conservative_deps_distinct_from_moore(self):
        assert _fingerprint(_stage_spec(_stage_class(None))) \
            != _fingerprint(_stage_spec(_stage_class({})))


class TestCacheLayers:
    def test_second_construction_hits_memory(self, private_cache):
        first = build_simulator(pipe_spec(), engine="levelized")
        assert not first.compiled_from_cache
        second = build_simulator(pipe_spec(), engine="levelized")
        assert second.compiled_from_cache
        assert private_cache.stats["memory_hits"] >= 1

    def test_fresh_process_hits_disk(self, private_cache):
        build_simulator(pipe_spec(), engine="levelized")
        # A new cache over the same directory models a new process.
        fresh = cc.configure(disk_dir=private_cache.disk_dir)
        sim = build_simulator(pipe_spec(), engine="levelized")
        assert sim.compiled_from_cache
        assert fresh.stats["disk_hits"] >= 1

    def test_stepper_source_shared_through_disk(self, private_cache):
        # A plain static-engine build generates its stepper on the first
        # run and stores the source, so the next process reads it.
        cold = build_simulator(pipe_spec(), engine="levelized", opt=0)
        assert cold.compiled.stepper_source is None
        cold.run(3)
        source = cold.compiled.stepper_source
        assert source is not None
        cc.configure(disk_dir=private_cache.disk_dir)
        warm = build_simulator(pipe_spec(), engine="levelized", opt=0)
        assert warm.compiled_from_cache
        assert warm.compiled.stepper_source == source
        assert warm.compiled.code is None      # compiled on first run
        warm.run(3)
        assert warm.compiled.code is not None
        assert warm.generated_source == source

    def test_memory_layer_is_bounded(self):
        cache = cc.CompileCache(disk_enabled=False, memory_limit=2)
        for i in range(4):
            cache.store(cc.CompiledDesign(f"f{i}", []))
        assert len(cache._memory) == 2
        assert cache.stats["evictions"] == 2

    def test_disabled_cache_never_compiles_from_cache(self):
        cc.configure(enabled=False)
        build_simulator(pipe_spec(), engine="levelized")
        sim = build_simulator(pipe_spec(), engine="levelized")
        assert not sim.compiled_from_cache

    def test_env_knob_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE_CACHE", "0")
        cache = cc.configure()
        assert not cache.enabled
        assert not cache.disk_enabled


class TestDiskRobustness:
    def _entry_path(self, cache):
        spec = pipe_spec()
        fingerprint = _fingerprint(spec)
        build_simulator(spec, engine="levelized")
        path = cache._path(fingerprint)
        assert os.path.exists(path)
        return fingerprint, path

    def test_garbage_entry_is_evicted_not_fatal(self, private_cache):
        fingerprint, path = self._entry_path(private_cache)
        with open(path, "w") as handle:
            handle.write("{corrupt json!")
        fresh = cc.configure(disk_dir=private_cache.disk_dir)
        # opt=0: this test corrupts the *base* entry; an optimized-IR
        # entry (REPRO_OPT) lives under its own composite key.
        sim = build_simulator(pipe_spec(), engine="levelized", opt=0)
        assert not sim.compiled_from_cache  # recompiled, no exception
        # ... and the recompilation re-stored a valid entry.
        with open(path) as handle:
            assert json.load(handle)["fingerprint"] == fingerprint
        assert fresh.stats["misses"] >= 1

    def test_stale_version_entry_is_evicted(self, private_cache):
        fingerprint, path = self._entry_path(private_cache)
        with open(path) as handle:
            payload = json.load(handle)
        payload["version"] = cc.CACHE_VERSION + 1
        with open(path, "w") as handle:
            json.dump(payload, handle)
        cc.configure(disk_dir=private_cache.disk_dir)
        sim = build_simulator(pipe_spec(), engine="levelized", opt=0)
        assert not sim.compiled_from_cache

    def test_inapplicable_entry_is_evicted_on_materialize(self, private_cache):
        # A fingerprint collision: the pipe's entry filed under another
        # design's fingerprint.  Binding fails, the entry is evicted and
        # the design compiles fresh — through compile_model's one
        # lookup/bind/evict block.
        from repro.core.ir import compile_model
        fingerprint, _ = self._entry_path(private_cache)
        entry = private_cache.lookup(fingerprint)
        other = build_design(_stage_spec(_stage_class({})))
        entry.fingerprint = cc.design_fingerprint(other)
        private_cache.store(entry)
        misses = private_cache.stats["misses"]
        bound = compile_model(other)
        assert not bound.from_cache
        assert private_cache.stats["misses"] == misses + 1
        assert private_cache.lookup(entry.fingerprint) is bound.model

    def test_unwritable_disk_is_not_fatal(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the cache dir should be")
        cc.configure(disk_dir=str(blocker))
        sim = build_simulator(pipe_spec(), engine="levelized")
        sim.run(5)  # construction and simulation both unaffected


class TestCacheDirectory:
    def test_suite_runs_on_a_private_directory(self):
        assert os.environ["REPRO_CACHE_DIR"] != cc._DEFAULT_DIR
        assert cc.CompileCache().disk_dir == os.environ["REPRO_CACHE_DIR"]

    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR")
        assert cc.CompileCache().disk_dir == ".repro-cache"


class TestWarming:
    def test_warm_spec_precompiles(self, private_cache):
        fingerprint = cc.warm_spec(pipe_spec())
        assert private_cache.lookup(fingerprint) is not None
        sim = build_simulator(pipe_spec(), engine="levelized", opt=0)
        assert sim.compiled_from_cache

    def test_warm_spec_precompiles_optimized(self, private_cache):
        from repro.core.opt import opt_cache_key
        fingerprint = cc.warm_spec(pipe_spec(), CompileOptions(opt_level=2))
        assert private_cache.lookup(fingerprint) is not None
        assert private_cache.lookup(opt_cache_key(fingerprint, 2)) is not None
        sim = build_simulator(pipe_spec(), engine="levelized", opt=2)
        assert sim.compiled_from_cache

    def test_warm_design_is_idempotent(self, private_cache):
        design = build_design(pipe_spec())
        fingerprint = cc.warm_design(design)
        stores = private_cache.stats["stores"]
        assert cc.warm_design(design.copy()) == fingerprint
        assert private_cache.stats["stores"] == stores


class TestWorklistUnaffected:
    def test_worklist_engine_ignores_cache(self, private_cache):
        # Only at opt 0: optimizer levels compile (and cache) the IR the
        # opt block is derived from, whatever the engine.
        sim = build_simulator(pipe_spec(), engine="worklist", opt=0)
        sim.run(10)
        assert private_cache.stats["stores"] == 0


def _fig2a_spec():
    from repro.systems.fig2a import build_fig2a_cmp
    return build_fig2a_cmp(2, 2)[0]


def _fig2d_spec():
    from repro.systems.fig2d import build_fig2d
    return build_fig2d(n_sensors=2, backend="detailed")[0]


class TestHitMissDifferential:
    """A cached compilation must be observationally invisible.

    Same spec, same seed: the run after a cache hit must reproduce the
    cache-miss run bit for bit — timesteps, transfers, relaxations and
    the full statistics report — on every engine and on both paper
    systems exercised here (the Figure 2(a) CMP and the Figure 2(d)
    system of systems).
    """

    CYCLES = 120

    def _observe(self, spec, engine):
        sim = build_simulator(spec, engine=engine, seed=7)
        sim.run(self.CYCLES)
        return {"now": sim.now, "transfers": sim.transfers_total,
                "relaxations": sim.relaxations_total,
                "report": sim.stats.report(),
                "fallback": getattr(sim, "fallback_steps", None)}

    @pytest.mark.parametrize("build", [_fig2a_spec, _fig2d_spec],
                             ids=["fig2a", "fig2d"])
    def test_hit_reproduces_miss(self, private_cache, engine, build):
        private_cache.clear()
        miss = self._observe(build(), engine)   # empty cache: compiles
        hit = self._observe(build(), engine)    # same process: cache hit
        if engine != "worklist":
            assert private_cache.stats["memory_hits"] >= 1
        assert hit == miss

    @pytest.mark.parametrize("build", [_fig2a_spec, _fig2d_spec],
                             ids=["fig2a", "fig2d"])
    def test_disk_hit_reproduces_miss(self, private_cache, engine, build):
        private_cache.clear()
        miss = self._observe(build(), engine)
        cc.configure(disk_dir=private_cache.disk_dir)  # "new process"
        hit = self._observe(build(), engine)
        assert hit == miss
