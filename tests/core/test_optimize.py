"""Unit tests for static scheduling (repro.core.optimize)."""


from repro import LSS, build_design, build_simulator
from repro.core.optimize import build_schedule, build_signal_graph
from repro.pcl import Arbiter, Monitor, PipelineReg, Sink, Source

from ..conftest import simple_pipe_spec, to_networkx


def _comb_chain_spec():
    """source -> monitor -> monitor -> sink: a combinational chain."""
    spec = LSS("chain")
    src = spec.instance("src", Source, pattern="counter")
    m1 = spec.instance("m1", Monitor)
    m2 = spec.instance("m2", Monitor)
    snk = spec.instance("snk", Sink)
    spec.connect(src.port("out"), m1.port("in"))
    spec.connect(m1.port("out"), m2.port("in"))
    spec.connect(m2.port("out"), snk.port("in"))
    return spec


class TestSignalGraph:
    def test_moore_modules_have_no_incoming_edges(self):
        design = build_design(simple_pipe_spec())
        graph = to_networkx(build_signal_graph(design))
        # Queue fwd/ack groups are state-driven: no dependencies.
        for node in graph.nodes:
            driver = graph.nodes[node]["driver"]
            if driver is not None and driver.path == "q":
                assert graph.in_degree(node) == 0

    def test_monitor_forward_depends_on_input(self):
        design = build_design(_comb_chain_spec())
        graph = build_signal_graph(design)
        w_in = design.wire_between("src", "out", "m1", "in")
        w_out = design.wire_between("m1", "out", "m2", "in")
        assert graph.has_edge(("fwd", w_in.wid), ("fwd", w_out.wid))

    def test_monitor_ack_depends_on_downstream_ack(self):
        design = build_design(_comb_chain_spec())
        graph = build_signal_graph(design)
        w_in = design.wire_between("src", "out", "m1", "in")
        w_out = design.wire_between("m1", "out", "m2", "in")
        assert graph.has_edge(("ack", w_out.wid), ("ack", w_in.wid))

    def test_acyclic_for_chain(self):
        import networkx as nx
        design = build_design(_comb_chain_spec())
        graph = build_signal_graph(design)
        assert nx.is_directed_acyclic_graph(to_networkx(graph))


class TestSchedule:
    def test_schedule_covers_all_drivers(self):
        design = build_design(_comb_chain_spec())
        schedule = build_schedule(design)
        names = {inst.path for entry in schedule
                 for inst in entry.instances}
        assert names == {"src", "m1", "m2", "snk"}

    def test_no_clusters_in_acyclic_design(self):
        design = build_design(_comb_chain_spec())
        assert not any(e.cluster for e in build_schedule(design))

    def test_consecutive_duplicates_collapsed(self):
        design = build_design(simple_pipe_spec())
        schedule = build_schedule(design)
        for a, b in zip(schedule, schedule[1:]):
            if not a.cluster and not b.cluster:
                assert a.instances[0] is not b.instances[0]


class TestLevelizedEquivalence:
    def test_no_fallbacks_on_correct_deps(self):
        sim = build_simulator(_comb_chain_spec(), engine="levelized")
        sim.run(50)
        assert sim.fallback_steps == 0
        assert sim.relaxations_total == 0

    def test_matches_worklist_on_comb_chain(self):
        results = []
        for engine in ("worklist", "levelized"):
            sim = build_simulator(_comb_chain_spec(), engine=engine)
            sim.run(40)
            results.append((sim.stats.counter("snk", "consumed"),
                            sim.stats.counter("m1", "transfers"),
                            sim.transfers_total))
        assert results[0] == results[1]

    def test_arbiter_contention_matches_worklist(self):
        def build():
            spec = LSS("arb")
            a = spec.instance("a", Source, pattern="bernoulli", rate=0.8,
                              payload="A", seed=1)
            b = spec.instance("b", Source, pattern="bernoulli", rate=0.8,
                              payload="B", seed=2)
            arb = spec.instance("arb", Arbiter)
            reg = spec.instance("reg", PipelineReg)
            snk = spec.instance("snk", Sink, accept="bernoulli", rate=0.6,
                                seed=3)
            spec.connect(a.port("out"), arb.port("in"))
            spec.connect(b.port("out"), arb.port("in"))
            spec.connect(arb.port("out"), reg.port("in"))
            spec.connect(reg.port("out"), snk.port("in"))
            return spec

        results = []
        for engine in ("worklist", "levelized", "batched"):
            sim = build_simulator(build(), engine=engine)
            sim.run(300)
            results.append((sim.stats.counter("snk", "consumed"),
                            sim.stats.counter("arb", "grants"),
                            sim.stats.counter("arb", "conflicts")))
        assert results[0] == results[1] == results[2]

    def test_conservative_deps_fall_back_but_stay_correct(self):
        """A module with DEPS=None (conservative) in a feedback-free
        design must still simulate correctly via the fallback path."""

        from repro import LeafModule, PortDecl, INPUT

        class LazySink(LeafModule):
            PORTS = (PortDecl("in", INPUT, min_width=1),)
            # DEPS = None -> conservative: ack 'depends' on everything.

            def react(self):
                self.port("in").set_ack(0, True)

            def update(self):
                if self.port("in").took(0):
                    self.collect("got")

        spec = LSS("lazy")
        src = spec.instance("src", Source, pattern="counter")
        snk = spec.instance("snk", LazySink)
        spec.connect(src.port("out"), snk.port("in"))
        sim = build_simulator(spec, engine="levelized")
        sim.run(10)
        assert sim.stats.counter("snk", "got") == 10

    def test_schedule_report_renders(self):
        sim = build_simulator(_comb_chain_spec(), engine="levelized")
        report = sim.schedule_report()
        assert "static schedule" in report
        assert "m1" in report
