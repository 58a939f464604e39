"""Cross-engine differential tests.

Every registered engine implements the same reactive semantics; they
may only differ in *scheduling*.  These tests run identical designs —
the canonical pipe and the paper's four Figure 2 systems — on the
worklist, levelized and batched (batch of one) engines and
assert the observable outcomes are bit-identical: statistics, total
transfers, per-wire transfer counts and relaxations.  Any divergence
is a scheduler-sensitivity bug (typically a module collecting
statistics in a non-idempotent ``react``).
"""

from __future__ import annotations

import pytest

from repro import build_simulator
from repro.systems.fig2a import build_fig2a_cmp
from repro.systems.fig2b import build_fig2b_sensors
from repro.systems.fig2c import build_fig2c_grid

from ..conftest import ENGINES, simple_pipe_spec

CYCLES = 120

#: Everything compared against the worklist reference, including the
#: lockstep engine animating a batch of one.
COMPARED = tuple(e for e in ENGINES if e != "worklist")


def _wire_transfer_map(sim):
    """``"src.port->dst.port[n]" -> transfers`` over real wires."""
    counts = {}
    for wire in sim.design.real_wires:
        src = f"{wire.src.instance.path}.{wire.src.port}" if wire.src else "-"
        dst = f"{wire.dst.instance.path}.{wire.dst.port}" if wire.dst else "-"
        key = f"{src}->{dst}"
        n = counts.setdefault(key, [])
        n.append(sim.design.store.transfers[wire.wid])
    return {k: sorted(v) for k, v in counts.items()}


class ParityCase:
    """Differential harness: one system, every engine, same observables."""

    CYCLES = CYCLES
    SEED = 7

    @staticmethod
    def make_spec():
        raise NotImplementedError

    @pytest.fixture(scope="class")
    def sims(self):
        sims = {}
        for engine in ENGINES:
            sim = build_simulator(self.make_spec(), engine=engine,
                                  seed=self.SEED)
            sim.run(self.CYCLES)
            sims[engine] = sim
        return sims

    def test_stats_identical(self, sims):
        base = sims["worklist"].stats.summary_dict()
        assert base  # non-trivial run
        for engine in COMPARED:
            assert sims[engine].stats.summary_dict() == base, engine

    def test_transfer_totals_identical(self, sims):
        totals = {e: s.transfers_total for e, s in sims.items()}
        assert len(set(totals.values())) == 1, totals

    def test_per_wire_transfers_identical(self, sims):
        base = _wire_transfer_map(sims["worklist"])
        for engine in COMPARED:
            assert _wire_transfer_map(sims[engine]) == base, engine

    def test_relaxations_identical(self, sims):
        totals = {e: s.relaxations_total for e, s in sims.items()}
        assert len(set(totals.values())) == 1, totals

    def test_progress_was_made(self, sims):
        # Guard against vacuous parity (identical dead simulators).
        assert sims["worklist"].transfers_total > 0


class TestPipeParity(ParityCase):
    @staticmethod
    def make_spec():
        return simple_pipe_spec(depth=2, rate=0.6, seed=3)


class TestFig2aParity(ParityCase):
    """Figure 2(a) CMP: 88 leaves, caches, a mesh network, arbiters."""

    CYCLES = 80
    SEED = 11

    @staticmethod
    def make_spec():
        spec, _info = build_fig2a_cmp(width=2, height=2)
        return spec


class TestFig2bParity(ParityCase):
    """Figure 2(b) sensor network: shared wireless medium, CSMA MAC."""

    SEED = 13

    @staticmethod
    def make_spec():
        spec, _info = build_fig2b_sensors(n_nodes=3, loss=0.1, seed=2)
        return spec


class TestFig2cParity(ParityCase):
    """Figure 2(c) grid-in-a-box: routed bus, ring reduction."""

    CYCLES = 200
    SEED = 17

    @staticmethod
    def make_spec():
        spec, _info = build_fig2c_grid(n_nodes=4, k_words=4)
        return spec
