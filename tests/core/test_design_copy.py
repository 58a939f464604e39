"""Tests for :meth:`repro.core.netlist.Design.copy`."""

from __future__ import annotations

import pytest

from repro import build_simulator
from repro.core.constructor import build_design
from repro.core.engine import Simulator
from repro.core.errors import SimulationError
from repro.core.optimize import LevelizedSimulator
from repro.obs import Profiler

from ..conftest import simple_pipe_spec


class TestOwnership:
    def test_design_cannot_be_animated_twice(self):
        design = build_design(simple_pipe_spec())
        Simulator(design)
        with pytest.raises(SimulationError, match=r"design\.copy\(\)"):
            Simulator(design)

    def test_copy_is_not_owned(self):
        design = build_design(simple_pipe_spec())
        Simulator(design)
        dup = design.copy()
        assert not dup._owned
        Simulator(dup)  # no SimulationError

    def test_copy_before_animation_works(self):
        design = build_design(simple_pipe_spec())
        dup = design.copy()
        Simulator(design)
        Simulator(dup)


class TestIndependence:
    def test_copies_share_no_runtime_objects(self):
        design = build_design(simple_pipe_spec())
        dup = design.copy()
        assert design.leaves.keys() == dup.leaves.keys()
        assert len(design.wires) == len(dup.wires)
        originals = {id(leaf) for leaf in design.leaves.values()}
        assert all(id(leaf) not in originals for leaf in dup.leaves.values())
        original_wires = {id(w) for w in design.wires}
        assert all(id(w) not in original_wires for w in dup.wires)

    def test_copy_clears_engine_bindings_and_counters(self):
        design = build_design(simple_pipe_spec())
        sim = Simulator(design)
        sim.run(20)
        dup = design.copy()
        assert dup.store is not design.store
        assert dup.store.hook is None
        assert dup.store.transfers == [0] * len(dup.wires)
        assert all(leaf.sim is None for leaf in dup.leaves.values())

    def test_copy_unparks_a_vec_plans_slots(self):
        # A vec plan parks its slots in the reset templates while it
        # runs; a copy taken then must reset like a fresh build.
        sim = build_simulator(simple_pipe_spec(), engine="batched")
        sim.run(8)
        assert sim.vec_plan is not None
        dup = sim.design.copy()
        fresh = build_design(simple_pipe_spec()).store
        assert (dup.store.t_ds, dup.store.t_en, dup.store.t_ak) \
            == (fresh.t_ds, fresh.t_en, fresh.t_ak)
        other = Simulator(dup)
        other.run(8)
        assert other.transfers_total > 0

    def test_copy_of_animated_design_gets_its_own_store(self):
        design = build_design(simple_pipe_spec())
        sim = Simulator(design)            # the worklist installs a hook
        sim.run(20)
        assert design.store.hook is not None
        dup = design.copy()
        assert dup.store is not design.store
        assert dup.store.hook is None
        assert all(view._store is dup.store
                   for leaf in dup.leaves.values()
                   for view in leaf.ports.values())
        # The attribute spelling names the copy's own views too.
        assert all(getattr(leaf, "io_" + name) is view
                   for leaf in dup.leaves.values()
                   for name, view in leaf.ports.items())
        # Endpoints follow the copy: nothing points back at the original.
        assert all(w.src is None or w.src.instance is dup.leaves[
            w.src.instance.path] for w in dup.wires)
        # Stepping the copy leaves the original's planes alone.
        before = list(design.store.ds), list(design.store.transfers)
        Simulator(dup).run(10)
        assert (list(design.store.ds), list(design.store.transfers)) == before
        assert sum(dup.store.transfers) > 0

    def test_two_engines_on_copies_agree(self):
        design = build_design(simple_pipe_spec(rate=0.7, seed=5))
        dup = design.copy()
        a = Simulator(design, seed=1)
        b = LevelizedSimulator(dup, seed=1)
        a.run(60)
        b.run(60)
        assert a.stats.summary_dict() == b.stats.summary_dict()
        assert a.transfers_total == b.transfers_total

    def test_running_one_copy_leaves_the_other_untouched(self):
        design = build_design(simple_pipe_spec())
        dup = design.copy()
        sim = Simulator(design)
        sim.run(30)
        assert dup.store.transfers == [0] * len(dup.wires)

    def test_copy_drops_profiler_instrumentation(self):
        sim = build_simulator(simple_pipe_spec())
        prof = Profiler(sim)
        sim.run(8)
        dup = sim.design.copy()
        # The profiled original carries react wrappers in instance
        # dicts; the copy must dispatch to its own instances instead.
        assert any(hasattr(leaf.react, "_obs_original")
                   for leaf in sim.design.leaves.values())
        for leaf in dup.leaves.values():
            assert not hasattr(leaf.react, "_obs_original")
            assert leaf.react.__self__ is leaf
        prof.detach()
        other = Simulator(dup)
        other.run(8)
        assert other.transfers_total > 0
