"""Simulator teardown tests: close(), context managers, reanimation.

Animation installs backrefs (the signal store's hook, ``inst.sim``,
the pre-bound ``react``) and marks the design owned; historically
nothing ever undid that, so a finished simulator pinned its design
forever.  ``close()`` severs the links and re-permits animation.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import SimulationError, build_design, build_simulator
from repro.core.engine import Simulator

from ..conftest import simple_pipe_spec


class TestClose:
    def test_design_reanimatable_after_close(self, engine):
        design = build_design(simple_pipe_spec())
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.run(10)
        sim.close()
        # The same *design object* can now host a new simulator.
        first = Simulator(design)
        first.run(5)
        first.close()
        second = Simulator(design)
        second.run(5)
        second.close()

    def test_without_close_design_stays_owned(self):
        design = build_design(simple_pipe_spec())
        Simulator(design)
        with pytest.raises(SimulationError, match="already animated"):
            Simulator(design)

    def test_backrefs_detached(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.run(5)
        design = sim.design
        sim.close()
        assert design._owned is False
        assert design.store.hook is None
        assert all(inst.sim is None for inst in design.leaves.values())

    def test_results_stay_readable(self):
        sim = build_simulator(simple_pipe_spec(), engine="levelized", seed=1)
        sim.run(50)
        transfers = sim.transfers_total
        report = sim.stats.report()
        sim.close()
        assert sim.transfers_total == transfers
        assert sim.stats.report() == report

    def test_step_after_close_raises(self, engine):
        sim = build_simulator(simple_pipe_spec(), engine=engine)
        sim.close()
        with pytest.raises(SimulationError, match="closed"):
            sim.step()

    def test_close_is_idempotent(self):
        sim = build_simulator(simple_pipe_spec())
        sim.close()
        sim.close()  # no error

    def test_context_manager(self, engine):
        with build_simulator(simple_pipe_spec(), engine=engine) as sim:
            sim.run(10)
            design = sim.design
        assert design._owned is False
        with pytest.raises(SimulationError, match="closed"):
            sim.run(1)

    def test_close_detaches_profiler(self):
        from repro.obs import Profiler
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        profiler = Profiler(sim, sample_every=2)
        sim.run(20)
        sim.close()
        assert sim.profiler is None
        # Collected data survives detachment.
        assert profiler.summary_dict()["steps"] == 20

    def test_plain_react_restored(self):
        sim = build_simulator(simple_pipe_spec(), engine="worklist")
        sim.run(5)
        inst = sim.instance("q")
        sim.close()
        # The instance-dict react is the plain bound method again (no
        # profiler wrapper, no stale simulator capture).
        assert not hasattr(inst.react, "_obs_original")
        assert inst.react.__func__ is type(inst).react


class TestNoCyclicGarbage:
    """A closed simulator is freed by reference counting alone.

    It used to be cyclic garbage (wires pointed back at the engine,
    endpoints at instances that own the views that own the wires), and
    the collection landed on whoever built next (perf finding 11).
    """

    @pytest.fixture(autouse=True)
    def _empty_cache(self, tmp_path):
        # Every build compiles cold: a warm cache would skip the signal
        # graph, and with it the path that used to leave garbage.
        from repro.core import compile_cache as cc
        cc.configure(disk_dir=str(tmp_path / "cache"))
        yield
        cc.configure()

    @staticmethod
    def _closed_refs(make_spec, engine, opt):
        sim = build_simulator(make_spec(), engine=engine, opt=opt, seed=1)
        sim.run(20)
        sim.close()
        return weakref.ref(sim), weakref.ref(sim.design.store)

    @pytest.mark.parametrize("opt", (0, 2))
    def test_closed_simulator_needs_no_gc(self, engine, opt):
        gc.collect()
        gc.disable()
        try:
            sim_ref, store_ref = self._closed_refs(simple_pipe_spec, engine,
                                                   opt)
            assert sim_ref() is None
            assert store_ref() is None
        finally:
            gc.enable()

    def test_detailed_fig2d_needs_no_gc(self):
        from repro.systems import build_fig2d
        gc.collect()
        gc.disable()
        try:
            sim_ref, store_ref = self._closed_refs(
                lambda: build_fig2d(4, backend="detailed",
                                    field="detailed")[0], "levelized", 2)
            assert sim_ref() is None
            assert store_ref() is None
        finally:
            gc.enable()
