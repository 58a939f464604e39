"""Unit tests for the engine registry (repro.core.backends)."""

import pytest

from repro import SpecificationError, build_simulator
from repro.core import backends
from repro.core.backends import (ALIASES, DEFAULT_ENGINE, default_engine,
                                 engine_choices, engine_names, get_backend,
                                 register_backend, resolve_engine)
from repro.core.batched import BatchedSimulator
from repro.core.engine import Simulator
from repro.core.optimize import LevelizedSimulator

from ..conftest import simple_pipe_spec


class TestRegistry:
    def test_builtins_registered(self):
        assert engine_names() == ("worklist", "levelized", "batched")

    def test_former_names_resolve_unlisted(self, monkeypatch):
        assert resolve_engine("codegen") is LevelizedSimulator
        assert resolve_engine("batched-vec") is BatchedSimulator
        assert engine_choices() == engine_names() + tuple(ALIASES)
        monkeypatch.setenv("REPRO_ENGINE", "codegen")
        assert default_engine() == "codegen"
        sim = build_simulator(simple_pipe_spec())
        assert type(sim) is LevelizedSimulator
        sim.close()

    def test_resolution_is_lazy_then_cached(self):
        backend = get_backend("levelized")
        assert backend.cls() is LevelizedSimulator
        assert backend.cls() is LevelizedSimulator  # cached

    def test_resolve_engine_classes(self):
        assert resolve_engine("worklist") is Simulator
        assert resolve_engine("levelized") is LevelizedSimulator
        assert resolve_engine("batched") is BatchedSimulator

    def test_typo_error_lists_registered_names(self):
        with pytest.raises(SpecificationError) as err:
            get_backend("levelzied")
        message = str(err.value)
        assert "levelzied" in message
        for name in engine_names():
            assert name in message

    def test_duplicate_registration_refused(self):
        with pytest.raises(SpecificationError):
            register_backend("worklist", "repro.core.engine:Simulator")

    def test_replace_allows_override(self):
        original = backends._REGISTRY["worklist"]
        try:
            register_backend("worklist", "repro.core.engine:Simulator",
                             replace=True)
            assert resolve_engine("worklist") is Simulator
        finally:
            backends._REGISTRY["worklist"] = original

    def test_custom_backend_builds_simulators(self):
        register_backend("custom-lev",
                         "repro.core.optimize:LevelizedSimulator")
        try:
            sim = build_simulator(simple_pipe_spec(), engine="custom-lev")
            assert isinstance(sim, LevelizedSimulator)
            sim.run(5)
            sim.close()
        finally:
            del backends._REGISTRY["custom-lev"]


class TestDefaultEngine:
    def test_default_is_levelized(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert DEFAULT_ENGINE == "levelized"
        assert default_engine() == DEFAULT_ENGINE
        sim = build_simulator(simple_pipe_spec())
        assert type(sim) is LevelizedSimulator
        sim.close()

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "worklist")
        assert default_engine() == "worklist"
        sim = build_simulator(simple_pipe_spec())
        assert type(sim) is Simulator
        sim.close()

    def test_explicit_engine_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "levelized")
        sim = build_simulator(simple_pipe_spec(), engine="worklist")
        assert type(sim) is Simulator
        sim.close()

    def test_env_typo_raises_with_listing(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "levelzied")
        with pytest.raises(SpecificationError, match="registered engines"):
            build_simulator(simple_pipe_spec())


class TestBuildSimulatorErrors:
    def test_unknown_engine_message(self):
        with pytest.raises(SpecificationError, match="registered engines"):
            build_simulator(simple_pipe_spec(), engine="nope")
