"""Combinational-cycle handling across all engines.

A ring of combinational pass-throughs has no constructive resolution:
the worklist engine must detect the fixed point and apply the cycle
policy; the levelized engine must identify the SCC as a *cluster* and
iterate it; semantics must agree everywhere.
"""

import pytest

from repro import LSS, build_simulator
from repro.core.errors import CombinationalCycleError
from repro.core.optimize import build_schedule
from repro.core.constructor import build_design
from repro.pcl import Monitor, Queue, Source


def _ring_spec(n=2, with_register=False):
    """n combinational Monitors in a ring (optionally broken by a Queue)."""
    spec = LSS("ring")
    stages = []
    for i in range(n):
        stages.append(spec.instance(f"m{i}", Monitor))
    if with_register:
        q = spec.instance("q", Queue, depth=2)
        stages.append(q)
    for a, b in zip(stages, stages[1:] + stages[:1]):
        spec.connect(a.port("out"), b.port("in"))
    return spec


class TestTrueCycle:
    def test_worklist_relax_resolves_ring(self):
        sim = build_simulator(_ring_spec(2), cycle_policy="relax")
        sim.run(5)
        assert sim.now == 5
        assert sim.relaxations_total > 0
        assert sim.transfers_total == 0  # forced defaults never transfer

    def test_worklist_error_policy_raises(self):
        sim = build_simulator(_ring_spec(2), cycle_policy="error")
        with pytest.raises(CombinationalCycleError):
            sim.run(1)

    def test_levelized_identifies_cluster(self):
        design = build_design(_ring_spec(2))
        schedule = build_schedule(design)
        assert any(entry.cluster for entry in schedule)

    def test_levelized_relax_resolves_ring(self):
        sim = build_simulator(_ring_spec(2), engine="levelized",
                              cycle_policy="relax")
        sim.run(5)
        assert sim.now == 5
        assert sim.relaxations_total > 0

    def test_levelized_error_policy_raises(self):
        sim = build_simulator(_ring_spec(2), engine="levelized",
                              cycle_policy="error")
        with pytest.raises(CombinationalCycleError):
            sim.run(1)

    def test_codegen_handles_cluster(self):
        sim = build_simulator(_ring_spec(3), engine="levelized",
                              cycle_policy="relax")
        sim.run(5)
        assert sim.now == 5
        assert "_run_cluster" in sim.generated_source


class TestRegisteredRing:
    """A ring broken by one registered element is perfectly legal —
    the classic token-ring structure."""

    def test_queue_breaks_the_cycle(self, engine):
        spec = _ring_spec(2, with_register=True)
        sim = build_simulator(spec, engine=engine, cycle_policy="error")
        sim.run(10)  # must not raise: the queue's state breaks the loop
        assert sim.now == 10

    def test_token_circulates_forever(self, engine):
        """Seed the ring with one token via a source + drop-after gate;
        then watch it orbit."""
        spec = LSS("token")
        q = spec.instance("q", Queue, depth=2)
        m = spec.instance("m", Monitor)
        src = spec.instance("src", Source, pattern="list", items=("tok",))
        # The ring re-entry takes input index 0: the queue grants free
        # slots in index order, so the circulating token must outrank
        # the (one-shot) injector or it starves once occupancy is 1.
        spec.connect(src.port("out"), q.port("in", 1))
        spec.connect(q.port("out"), m.port("in"))
        spec.connect(m.port("out"), q.port("in", 0))
        sim = build_simulator(spec, engine=engine, cycle_policy="error")
        sim.run(20)
        # The single token re-enqueues once per cycle after injection.
        assert sim.stats.counter("m", "transfers") >= 15
        assert sim.instance("q").occupancy == 1

    def test_no_clusters_in_registered_ring(self):
        design = build_design(_ring_spec(2, with_register=True))
        schedule = build_schedule(design)
        assert not any(entry.cluster for entry in schedule)


class _LooseQueue(Queue):
    """A Queue that declares nothing about itself (``DEPS = None``):
    behaviourally registered, but the scheduler must assume every output
    depends on every input, so a ring through it is a *cluster* that
    iteration — not relaxation — resolves."""

    DEPS = None


def _clustered_spec(dead_ring: bool):
    """A token ring through a conservatively-declared queue (a cluster
    that converges and carries traffic) beside, optionally, a ring of
    pass-throughs that only the cycle policy can resolve."""
    spec = LSS("clustered")
    src = spec.instance("src", Source, pattern="list", items=("tok", "tik"))
    q = spec.instance("q", _LooseQueue, depth=3)
    m = spec.instance("m", Monitor)
    spec.connect(src.port("out"), q.port("in", 1))
    spec.connect(q.port("out"), m.port("in"))
    spec.connect(m.port("out"), q.port("in", 0))
    if dead_ring:
        a = spec.instance("a", Monitor)
        b = spec.instance("b", Monitor)
        spec.connect(a.port("out"), b.port("in"))
        spec.connect(b.port("out"), a.port("in"))
    return spec


def _observed(sim, cycles=25):
    sim.run(cycles)
    store = sim.design.store
    return {"stats": sim.stats.summary_dict(),
            "transfers": sim.transfers_total,
            "wires": list(store.transfers),
            "signals": list(zip(store.ds, store.dv, store.en, store.ak))}


class TestClusterDifferential:
    """No shipped system has a combinational cluster, so this is where
    ``_run_cluster``, the relax cursor and the cycle policy run over the
    signal store on every engine, against the worklist oracle."""

    @pytest.mark.parametrize("opt", (0, 2))
    @pytest.mark.parametrize("policy", ("relax", "error"))
    def test_converging_cluster_matches_worklist(self, engine, opt,
                                                 policy):
        oracle = build_simulator(_clustered_spec(False), "worklist", opt=0,
                                 cycle_policy=policy)
        sim = build_simulator(_clustered_spec(False), engine, opt=opt,
                              cycle_policy=policy)
        if engine != "worklist":
            assert any(entry.cluster for entry in sim.schedule)
        want, got = _observed(oracle), _observed(sim)
        assert got == want
        assert want["transfers"] > 20          # the tokens orbit
        assert sim.relaxations_total == oracle.relaxations_total == 0

    @pytest.mark.parametrize("opt", (0, 2))
    def test_relaxed_ring_matches_worklist(self, engine, opt):
        oracle = build_simulator(_clustered_spec(True), "worklist", opt=0,
                                 cycle_policy="relax")
        sim = build_simulator(_clustered_spec(True), engine, opt=opt,
                              cycle_policy="relax")
        want, got = _observed(oracle), _observed(sim)
        assert got == want
        assert want["transfers"] > 20
        # Forced signals resolve the dead ring on every step, everywhere.
        assert oracle.relaxations_total >= 25
        assert sim.relaxations_total >= 25

    @pytest.mark.parametrize("opt", (0, 2))
    def test_error_policy_raises_on_the_dead_ring(self, engine, opt):
        sim = build_simulator(_clustered_spec(True), engine, opt=opt,
                              cycle_policy="error")
        with pytest.raises(CombinationalCycleError) as err:
            sim.run(1)
        assert {"a", "b"} <= set(err.value.members)
