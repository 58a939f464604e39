"""Property tests over random hierarchical specifications.

Hypothesis builds random trees of nested hierarchical templates around
PCL stages; flattening plus all three engines must agree on the
observable behaviour, and hierarchy must be semantically transparent
(a wrapped stage behaves exactly like the unwrapped stage).
"""

from hypothesis import given, settings, strategies as st

from repro import (HierTemplate, LSS, PortDecl, INPUT, OUTPUT, build_design,
                   build_simulator, engine_names)
from repro.pcl import Monitor, PipelineReg, Queue, Sink, Source

ENGINES = engine_names()

_STAGE_KINDS = ("queue", "reg", "monitor")


def _make_stage(body, name, kind):
    if kind == "queue":
        return body.instance(name, Queue, depth=2)
    if kind == "reg":
        return body.instance(name, PipelineReg)
    return body.instance(name, Monitor)


def _wrap(kinds, depth):
    """A HierTemplate chaining ``kinds``, nested ``depth`` levels deep."""

    class Chain(HierTemplate):
        PORTS = (PortDecl("in", INPUT), PortDecl("out", OUTPUT))

        def build(self, body, p):
            if depth > 1:
                inner = body.instance("inner", _wrap(kinds, depth - 1))
                body.export("in", inner, "in")
                body.export("out", inner, "out")
                return
            prev = None
            first = None
            for i, kind in enumerate(kinds):
                stage = _make_stage(body, f"s{i}", kind)
                if prev is None:
                    first = stage
                else:
                    body.connect(prev.port("out"), stage.port("in"))
                prev = stage
            body.export("in", first, "in")
            body.export("out", prev, "out")

    return Chain


def _spec(kinds, depth, flat):
    spec = LSS("prop")
    src = spec.instance("src", Source, pattern="counter")
    snk = spec.instance("snk", Sink)
    if flat:
        prev = src.port("out")
        for i, kind in enumerate(kinds):
            stage = _make_stage(spec, f"s{i}", kind)
            spec.connect(prev, stage.port("in"))
            prev = stage.port("out")
        spec.connect(prev, snk.port("in"))
    else:
        chain = spec.instance("chain", _wrap(kinds, depth))
        spec.connect(src.port("out"), chain.port("in"))
        spec.connect(chain.port("out"), snk.port("in"))
    return spec


@settings(max_examples=25, deadline=None)
@given(kinds=st.lists(st.sampled_from(_STAGE_KINDS), min_size=1,
                      max_size=4),
       depth=st.integers(1, 4),
       cycles=st.integers(5, 60))
def test_hierarchy_is_semantically_transparent(kinds, depth, cycles):
    """Wrapping a chain in N levels of hierarchy changes nothing."""
    flat_sim = build_simulator(_spec(kinds, depth, flat=True))
    flat_sim.run(cycles)
    nested_sim = build_simulator(_spec(kinds, depth, flat=False))
    nested_sim.run(cycles)
    assert nested_sim.stats.counter("snk", "consumed") \
        == flat_sim.stats.counter("snk", "consumed")
    assert nested_sim.stats.counter("src", "emitted") \
        == flat_sim.stats.counter("src", "emitted")
    # Same leaf count regardless of nesting depth.
    assert len(nested_sim.design.leaves) == len(flat_sim.design.leaves)


@settings(max_examples=15, deadline=None)
@given(kinds=st.lists(st.sampled_from(_STAGE_KINDS), min_size=1,
                      max_size=4),
       depth=st.integers(1, 3),
       cycles=st.integers(5, 50))
def test_engines_agree_on_nested_specs(kinds, depth, cycles):
    results = []
    for engine in ENGINES:
        sim = build_simulator(_spec(kinds, depth, flat=False),
                              engine=engine)
        sim.run(cycles)
        results.append((sim.stats.counter("snk", "consumed"),
                        sim.transfers_total))
    assert results[0] == results[1] == results[2]


@settings(max_examples=15, deadline=None)
@given(kinds=st.lists(st.sampled_from(_STAGE_KINDS), min_size=1,
                      max_size=3),
       depth=st.integers(1, 4))
def test_flattened_paths_reflect_nesting(kinds, depth):
    design = build_design(_spec(kinds, depth, flat=False))
    stage_paths = [p for p in design.leaves if p.startswith("chain")]
    assert len(stage_paths) == len(kinds)
    # Paths carry one "inner/" segment per extra nesting level.
    expected_prefix = "chain/" + "inner/" * (depth - 1)
    assert all(p.startswith(expected_prefix) for p in stage_paths)
