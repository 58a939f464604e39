"""Property-based tests of the core semantics (hypothesis).

The load-bearing invariants:

* the three engines implement *identical* semantics on arbitrary
  dataflow graphs built from library primitives;
* queues are lossless and order-preserving under arbitrary
  source/sink behaviour;
* signal monotonicity: whatever a module does, a resolved signal
  never changes within a timestep.
"""

from hypothesis import given, settings, strategies as st

from repro import LSS, build_simulator, engine_names
from repro.pcl import (Arbiter, Monitor, PipelineReg, Queue, Sink, Source,
                       Splitter, Tee)

ENGINES = engine_names()


def _chain_spec(stages, rate, sink_rate, seed):
    """source -> [stage templates...] -> sink, parametrized."""
    spec = LSS("prop")
    src = spec.instance("src", Source, pattern="bernoulli", rate=rate,
                        payload=lambda now, i: now, seed=seed)
    prev = src.port("out")
    for i, kind in enumerate(stages):
        if kind == "queue":
            stage = spec.instance(f"st{i}", Queue, depth=1 + (i % 3))
        elif kind == "reg":
            stage = spec.instance(f"st{i}", PipelineReg)
        else:
            stage = spec.instance(f"st{i}", Monitor)
        spec.connect(prev, stage.port("in"))
        prev = stage.port("out")
    snk = spec.instance("snk", Sink, accept="bernoulli", rate=sink_rate,
                        seed=seed + 1, record_values=True)
    spec.connect(prev, snk.port("in"))
    return spec


@settings(max_examples=30, deadline=None)
@given(
    stages=st.lists(st.sampled_from(["queue", "reg", "monitor"]),
                    min_size=0, max_size=5),
    rate=st.floats(0.1, 1.0),
    sink_rate=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**16),
    cycles=st.integers(1, 120),
)
def test_engines_agree_on_random_chains(stages, rate, sink_rate, seed,
                                        cycles):
    """All three engines produce identical observable behaviour."""
    outcomes = []
    for engine in ENGINES:
        sim = build_simulator(_chain_spec(stages, rate, sink_rate, seed),
                              engine=engine)
        sim.run(cycles)
        outcomes.append((sim.stats.counter("snk", "consumed"),
                         sim.stats.counter("src", "emitted"),
                         sim.transfers_total))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@settings(max_examples=30, deadline=None)
@given(
    stages=st.lists(st.sampled_from(["queue", "reg", "monitor"]),
                    min_size=0, max_size=5),
    rate=st.floats(0.1, 1.0),
    sink_rate=st.floats(0.1, 1.0),
    seed=st.integers(0, 2**16),
    cycles=st.integers(1, 120),
)
def test_chains_are_lossless_and_ordered(stages, rate, sink_rate, seed,
                                         cycles):
    """Conservation: emitted = consumed + in flight; order preserved."""
    spec = _chain_spec(stages, rate, sink_rate, seed)
    sim = build_simulator(spec)
    probe = None
    # Probe the last connection into the sink.
    last = "src" if not stages else f"st{len(stages) - 1}"
    probe = sim.probe_between(last, "out", "snk", "in")
    sim.run(cycles)
    emitted = sim.stats.counter("src", "emitted")
    consumed = sim.stats.counter("snk", "consumed")
    capacity = sum(sim.instance(f"st{i}").p.get("depth", 1)
                   for i, kind in enumerate(stages) if kind != "monitor")
    assert consumed <= emitted <= consumed + capacity
    # Values are timestamps: order must be strictly increasing.
    values = probe.values()
    assert values == sorted(values)
    assert len(set(values)) == len(values)


@settings(max_examples=20, deadline=None)
@given(
    n_sources=st.integers(1, 4),
    rate=st.floats(0.2, 1.0),
    seed=st.integers(0, 2**16),
    cycles=st.integers(10, 100),
)
def test_arbiter_conservation_and_engine_agreement(n_sources, rate, seed,
                                                   cycles):
    """Arbitration never duplicates or invents data, on any engine."""
    def build():
        spec = LSS("arbprop")
        arb = spec.instance("arb", Arbiter)
        for i in range(n_sources):
            src = spec.instance(f"s{i}", Source, pattern="bernoulli",
                                rate=rate, payload=i, seed=seed + i)
            spec.connect(src.port("out"), arb.port("in"))
        snk = spec.instance("snk", Sink)
        spec.connect(arb.port("out"), snk.port("in"))
        return spec

    outcomes = []
    for engine in ENGINES:
        sim = build_simulator(build(), engine=engine)
        sim.run(cycles)
        emitted = sum(sim.stats.counter(f"s{i}", "emitted")
                      for i in range(n_sources))
        consumed = sim.stats.counter("snk", "consumed")
        assert consumed == emitted  # arbiter is combinational: no storage
        outcomes.append((emitted, consumed,
                         sim.stats.counter("arb", "grants")))
    assert outcomes[0] == outcomes[1] == outcomes[2]


@settings(max_examples=20, deadline=None)
@given(
    fanout=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    cycles=st.integers(5, 60),
)
def test_tee_replicates_to_all(fanout, seed, cycles):
    """Tee 'all' mode: every sink sees every datum exactly once."""
    spec = LSS("tee")
    src = spec.instance("src", Source, pattern="counter")
    tee = spec.instance("tee", Tee, mode="all")
    spec.connect(src.port("out"), tee.port("in"))
    for i in range(fanout):
        snk = spec.instance(f"k{i}", Sink)
        spec.connect(tee.port("out"), snk.port("in"))
    sim = build_simulator(spec)
    sim.run(cycles)
    counts = {sim.stats.counter(f"k{i}", "consumed") for i in range(fanout)}
    assert counts == {sim.stats.counter("src", "emitted")}


@settings(max_examples=20, deadline=None)
@given(
    fanout=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    cycles=st.integers(5, 80),
)
def test_splitter_partitions(fanout, seed, cycles):
    """Splitter: each datum goes to exactly one destination."""
    spec = LSS("split")
    src = spec.instance("src", Source, pattern="bernoulli", rate=0.9,
                        seed=seed)
    split = spec.instance("split", Splitter)
    spec.connect(src.port("out"), split.port("in"))
    for i in range(fanout):
        snk = spec.instance(f"k{i}", Sink)
        spec.connect(split.port("out"), snk.port("in"))
    sim = build_simulator(spec)
    sim.run(cycles)
    total = sum(sim.stats.counter(f"k{i}", "consumed")
                for i in range(fanout))
    assert total == sim.stats.counter("src", "emitted")
