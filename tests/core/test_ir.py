"""Unit tests for the compiled-model IR (repro.core.ir)."""

import pytest

from repro.core import compile_cache as cc
from repro.core.constructor import build_design
from repro.core.ir import BoundModel, CompiledModel, compile_model
from repro.core.optimize import build_schedule, build_signal_graph

from ..conftest import simple_pipe_spec


@pytest.fixture(autouse=True)
def private_cache(tmp_path):
    cache = cc.configure(disk_dir=str(tmp_path / "cache"))
    yield cache
    cc.configure()


def _design(**kw):
    return build_design(simple_pipe_spec(**kw))


class TestCompileModel:
    def test_miss_compiles_and_stores(self, private_cache):
        bound = compile_model(_design())
        assert isinstance(bound, BoundModel)
        assert not bound.from_cache
        assert private_cache.stats["stores"] == 1
        assert bound.model.fingerprint
        assert bound.schedule
        assert len(bound.cluster_slots) == len(bound.schedule)

    def test_hit_rebinds_the_cached_artifact(self, private_cache):
        first = compile_model(_design())
        second = compile_model(_design())
        assert second.from_cache
        assert second.model is first.model  # memory layer shares the object
        # ... but the binding is live on the second design.
        assert second.design is not first.design
        assert second.schedule[0].instances[0] \
            is not first.schedule[0].instances[0]

    def test_carries_the_wire_partition(self):
        bound = compile_model(_design())
        design = bound.design
        assert bound.partition.begin_unknown == bound.model.begin_unknown
        assert len(design.store.consts) == len(bound.model.const_keys)
        assert len(bound.partition.transfer) == len(bound.model.transfer_keys)
        assert len(design.store) == len(design.wires)
        assert bound.partition.begin_unknown == sum(
            w.begin_step() for w in design.wires)

    def test_metadata_tables_cover_design(self):
        model = compile_model(_design()).model
        assert set(model.deps) == {"src", "q", "snk"}
        assert model.controls == {}  # no control functions on the pipe

    def test_stepper_attached_on_demand(self, private_cache):
        bound = compile_model(_design())
        assert bound.model.stepper_source is None
        again = compile_model(_design(), need_stepper=True)
        assert again.model is bound.model
        assert "make_stepper" in again.model.stepper_source
        assert again.model.code is not None

    def test_disabled_cache_compiles_fresh(self):
        cc.configure(enabled=False)
        first = compile_model(_design())
        second = compile_model(_design())
        assert first.model.fingerprint == ""
        assert not second.from_cache
        assert second.model is not first.model


class TestPayloadRoundtrip:
    def test_roundtrip_preserves_everything_but_code(self):
        model = compile_model(_design(), need_stepper=True).model
        clone = CompiledModel.from_payload(model.to_payload())
        assert clone.fingerprint == model.fingerprint
        assert clone.schedule == model.schedule
        assert clone.stepper_source == model.stepper_source
        assert clone.design_name == model.design_name
        assert clone.graph_edges == model.graph_edges
        assert clone.const_keys == model.const_keys
        assert clone.transfer_keys == model.transfer_keys
        assert clone.begin_unknown == model.begin_unknown
        assert clone.deps == model.deps
        assert clone.controls == model.controls
        assert clone.code is None  # never serialized

    def test_roundtripped_entry_binds_and_schedules(self):
        model = compile_model(_design()).model
        clone = CompiledModel.from_payload(model.to_payload())
        design = _design()
        bound = clone.bind(design)
        fresh = build_schedule(design)
        assert [e.cluster for e in bound.schedule] \
            == [e.cluster for e in fresh]
        assert [[i.path for i in e.instances] for e in bound.schedule] \
            == [[i.path for i in e.instances] for e in fresh]


class TestSignalGraphMaterialization:
    def test_matches_fresh_graph(self):
        model = compile_model(_design()).model
        design = _design()
        materialized = model.signal_graph(design)
        fresh = build_signal_graph(design)
        assert set(materialized.nodes) == set(fresh.nodes)
        assert set(materialized.edges) == set(fresh.edges)
        for node in fresh.nodes:
            assert materialized.nodes[node]["const"] \
                == fresh.nodes[node]["const"]
            assert materialized.nodes[node]["driver"] \
                is fresh.nodes[node]["driver"]

    def test_graphless_entry_returns_none(self):
        model = CompiledModel("fp", [])
        assert model.signal_graph(_design()) is None


class TestBindValidation:
    def test_partition_mismatch_raises(self):
        model = compile_model(_design()).model
        clone = CompiledModel.from_payload(model.to_payload())
        clone.begin_unknown = (clone.begin_unknown or 0) + 1
        with pytest.raises(ValueError, match="partition does not match"):
            clone.bind(_design())

    def test_mismatched_entry_is_evicted_on_hit(self, private_cache):
        bound = compile_model(_design())
        fingerprint = bound.model.fingerprint
        # Corrupt the cached summary in place: the next hit must refuse
        # the binding, evict, and recompile rather than crash.
        bound.model.begin_unknown += 1
        again = compile_model(_design())
        assert not again.from_cache
        assert again.model is not bound.model
        assert private_cache.lookup(fingerprint) is again.model
