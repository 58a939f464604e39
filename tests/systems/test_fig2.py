"""End-to-end tests of the Figure-2 systems."""

import pytest

from repro.systems import (run_fig2a, run_fig2b, run_fig2c, run_fig2d)


class TestFig2aCMP:
    def test_2x2_correct(self):
        result = run_fig2a(2, 2, seg_words=8)
        assert result["halted"]
        assert result["correct"]
        assert result["results"] == result["expected"]
        assert all(result["flags"])

    def test_every_engine(self):
        cycles = set()
        for engine in ("worklist", "levelized", "batched"):
            result = run_fig2a(2, 2, seg_words=4, engine=engine)
            assert result["correct"]
            cycles.add(result["cycles"])
        assert len(cycles) == 1  # engines are cycle-identical

    def test_network_carried_the_traffic(self):
        result = run_fig2a(2, 2, seg_words=8)
        assert result["net_transfers"] > 100
        assert result["read_misses"] > 0

    def test_cold_misses_match_footprint(self):
        result = run_fig2a(2, 2, seg_words=8)
        # Every data word is read exactly once: all misses, no reuse.
        assert result["read_misses"] >= 8 * 4


class TestFig2bSensors:
    def test_summaries_delivered(self):
        result = run_fig2b(2, readings_per_node=8, aggregate_every=4)
        assert result["halted"]
        assert result["summaries_received"] == result["expected_summaries"]

    def test_scales_to_more_nodes(self):
        result = run_fig2b(3, readings_per_node=8, aggregate_every=2)
        assert result["summaries_received"] == 12

    def test_lossy_channel_degrades(self):
        clean = run_fig2b(3, readings_per_node=8, aggregate_every=4)
        lossy = run_fig2b(3, readings_per_node=8, aggregate_every=4,
                          loss=0.5)
        assert lossy["summaries_received"] < clean["summaries_received"]


class TestFig2cGrid:
    @pytest.mark.parametrize("n_nodes", [2, 4, 8])
    def test_ring_reduction_correct(self, n_nodes):
        result = run_fig2c(n_nodes, k_words=8)
        assert result["halted"]
        assert result["correct"]

    def test_message_count_linear_in_nodes(self):
        r4 = run_fig2c(4)
        r8 = run_fig2c(8)
        # Each non-final node posts 2 bus messages (data + doorbell).
        assert r4["messages"] == 2 * 3
        assert r8["messages"] == 2 * 7

    def test_cycles_scale_with_ring_length(self):
        assert run_fig2c(8)["cycles"] > run_fig2c(2)["cycles"]

    @pytest.mark.parametrize("n_nodes", [9, 12])
    def test_ring_beyond_eight_nodes(self, n_nodes):
        """Remote offsets of 2^15 and beyond (node 8 onwards) used to
        raise ``ValueError``: the address no longer fits the low half of
        a ``lui``/``ori`` pair without tripping the sign extension."""
        runs = {name: run_fig2c(n_nodes, engine=name) for name in
                ("worklist", "levelized", "batched")}
        oracle = runs["worklist"]
        assert oracle["halted"] and oracle["correct"]
        assert oracle["total"] == oracle["expected_total"]
        assert oracle["messages"] == 2 * (n_nodes - 1)
        for name, result in runs.items():
            assert (result["cycles"], result["total"], result["messages"],
                    result["sim"].stats.summary_dict()) == (
                oracle["cycles"], oracle["total"], oracle["messages"],
                oracle["sim"].stats.summary_dict()), name


class TestFig2dSystemOfSystems:
    def test_statistical_backend(self):
        result = run_fig2d(2, backend="statistical")
        assert result["halted"]
        assert result["summaries_delivered"] == result["expected_summaries"]

    def test_detailed_backend(self):
        result = run_fig2d(2, backend="detailed")
        assert result["halted"]
        assert result["gateway_halted"]
        assert result["summaries_delivered"] == result["expected_summaries"]

    def test_abstraction_swap_preserves_field_tier(self):
        """The paper's §2.2 claim: swapping the backend abstraction
        leaves the upstream (field) behaviour untouched."""
        stat = run_fig2d(2, backend="statistical")
        det = run_fig2d(2, backend="detailed")
        assert stat["transmissions"] == det["transmissions"]

    def test_statistical_field_over_detailed_backend_is_rejected(self):
        """The two tiers exchange different frame types: say so at
        build time, not with an AttributeError at the first step."""
        from repro.systems.fig2d import build_fig2d
        with pytest.raises(ValueError) as excinfo:
            build_fig2d(2, backend="detailed", field="statistical")
        assert "field='statistical'" in str(excinfo.value)
        assert "backend='detailed'" in str(excinfo.value)
        for backend, field in (("statistical", "statistical"),
                               ("statistical", "detailed"),
                               ("detailed", "detailed")):
            build_fig2d(2, backend=backend, field=field)

    def test_running_node_cores_checkpoint(self):
        """fig2d-detailed's node cores are mid-instruction at step 20;
        their state is a plain record, so the snapshot pickles."""
        import pickle
        from repro import build_simulator
        from repro.systems.fig2d import build_fig2d
        spec = build_fig2d(4, backend="detailed", field="detailed")[0]
        with build_simulator(spec, seed=0) as sim:
            sim.run(20)
            state = pickle.loads(pickle.dumps(sim.state_dict()))
        cores = {path: own for path, own in state["instances"].items()
                 if path.endswith("/core")}
        assert cores and all("_gen" not in own for own in cores.values())
        assert any(own["_pending"] is not None for own in cores.values())

    @pytest.mark.parametrize("backend", ["statistical", "detailed"])
    def test_engines_agree_cycle_for_cycle(self, backend):
        """Differential run: all three engines produce byte-identical
        statistics on the full system-of-systems model."""
        from repro import build_simulator
        from repro.systems.fig2d import build_fig2d

        reports = {}
        for engine in ("worklist", "levelized", "batched"):
            spec, _ = build_fig2d(2, backend=backend)
            sim = build_simulator(spec, engine=engine, seed=0)
            sim.run(400)
            reports[engine] = (sim.stats.report(), sim.transfers_total)
        assert reports["worklist"] == reports["levelized"]
        assert reports["worklist"] == reports["batched"]
