"""MoC analysis: combinational cycles, relaxation races, cycle errors."""

import pytest

from repro import LSS, build_simulator
from repro.analysis import check
from repro.core.errors import CombinationalCycleError
from repro.core.optimize import unresolved_cycle_report
from repro.pcl import Monitor, Queue, Source

from .conftest import monitor_ring_spec, pipe_spec


def _moc(spec):
    return check(spec, passes=["moc"])


class TestCycleDetection:
    def test_clean_pipe_has_no_cycles(self):
        assert _moc(pipe_spec()).clean

    def test_monitor_ring_reported(self):
        report = _moc(monitor_ring_spec(2))
        cycles = report.by_rule("moc.combinational-cycle")
        # The fwd ring and the ack ring are two independent clusters.
        assert len(cycles) == 2
        for cycle in cycles:
            assert sorted(cycle.data["members"]) == ["m0", "m1"]
            assert cycle.data["groups"]  # signal-group descriptions
        kinds = {g.split()[0] for c in cycles for g in c.data["groups"]}
        assert kinds == {"fwd", "ack"}

    def test_registered_ring_is_clean(self):
        spec = LSS("broken_ring")
        m = spec.instance("m", Monitor)
        q = spec.instance("q", Queue, depth=2)
        spec.connect(m.port("out"), q.port("in"))
        spec.connect(q.port("out"), m.port("in"))
        assert _moc(spec).clean  # the Moore queue breaks the cycle

    def test_relaxation_race_flags_deps_none_member(self):
        from repro.core import INPUT, OUTPUT, LeafModule, PortDecl

        class Vague(LeafModule):
            """Flow-through with conservative (None) dependencies."""

            PORTS = (PortDecl("in", INPUT, min_width=1),
                     PortDecl("out", OUTPUT, min_width=1))
            # DEPS omitted -> None -> conservative

            def react(self):
                inp, out = self.port("in"), self.port("out")
                if inp.present(0):
                    out.send(0, inp.value(0))
                else:
                    out.send_nothing(0)
                inp.set_ack(0, out.accepted(0))

            def update(self):
                pass

        spec = LSS("race")
        v = spec.instance("v", Vague)
        m = spec.instance("m", Monitor)
        spec.connect(v.port("out"), m.port("in"))
        spec.connect(m.port("out"), v.port("in"))
        report = _moc(spec)
        races = report.by_rule("moc.relaxation-race")
        assert [d.path for d in races] == ["v"]
        assert "m" in races[0].data["cluster"]

    def test_declared_ring_has_no_race(self):
        # Monitor declares its DEPS, so the ring is a cycle but not a race.
        report = _moc(monitor_ring_spec(2))
        assert not report.by_rule("moc.relaxation-race")


class TestCycleErrorEnrichment:
    """Satellite: CombinationalCycleError lists SCC members and groups."""

    def test_error_carries_members_and_groups(self, engine):
        sim = build_simulator(monitor_ring_spec(2), engine=engine,
                              cycle_policy="error")
        with pytest.raises(CombinationalCycleError) as exc:
            sim.run(1)
        err = exc.value
        assert {"m0", "m1"} <= set(err.members)
        assert err.groups  # human-readable unresolved group list
        text = str(err)
        assert "cycle members" in text
        assert "m0" in text and "m1" in text

    def test_unresolved_cycle_report_matches_analysis(self):
        sim = build_simulator(monitor_ring_spec(2), cycle_policy="relax")
        members, groups = unresolved_cycle_report(sim.design)
        assert sorted(members) == ["m0", "m1"]
        analysis = _moc(monitor_ring_spec(2))
        cycle = analysis.by_rule("moc.combinational-cycle")[0]
        assert sorted(cycle.data["members"]) == sorted(members)


class TestExplainSchedule:
    def test_report_shape(self):
        from repro.analysis.cli import explain_schedule
        text = explain_schedule(pipe_spec())
        assert "levelization depth" in text
        assert "schedule entries" in text
        assert "signal groups" in text

    def test_counts_clusters(self):
        from repro.analysis.cli import explain_schedule
        text = explain_schedule(monitor_ring_spec(2))
        assert "2 combinational cluster(s)" in text
