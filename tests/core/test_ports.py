"""Unit tests for port declarations and runtime views (repro.core.ports)."""

import pytest

from repro import LSS, build_design
from repro.core.errors import ContractViolationError, WiringError
from repro.core.ports import (INPUT, OUTPUT, InView, OutView, PortDecl,
                              in_port, out_port)
from repro.core.signals import CtrlStatus, DataStatus, SignalStore
from repro.pcl import Queue, Sink, Source


class TestPortDecl:
    def test_direction_validated(self):
        with pytest.raises(WiringError):
            PortDecl("p", "sideways")

    def test_width_bounds_validated(self):
        with pytest.raises(WiringError):
            PortDecl("p", INPUT, min_width=3, max_width=2)

    def test_helpers(self):
        assert in_port("a").direction == INPUT
        assert out_port("b").direction == OUTPUT

    def test_defaults(self):
        decl = in_port("a")
        assert decl.default_data is DataStatus.NOTHING
        assert decl.default_enable is CtrlStatus.DEASSERTED
        assert decl.default_ack is CtrlStatus.ASSERTED


def _design():
    spec = LSS("views")
    src = spec.instance("src", Source, pattern="counter")
    q = spec.instance("q", Queue, depth=2)
    snk = spec.instance("snk", Sink)
    spec.connect(src.port("out"), q.port("in"))
    spec.connect(q.port("out"), snk.port("in"))
    return build_design(spec)


class TestViews:
    def test_widths(self):
        design = _design()
        q = design.leaves["q"]
        assert q.port("in").width == 1
        assert len(q.port("out")) == 1

    def test_direction_guards(self):
        design = _design()
        q = design.leaves["q"]
        with pytest.raises(ContractViolationError):
            q.port("in").send(0, 1)
        with pytest.raises(ContractViolationError):
            q.port("out").set_ack(0, True)

    def test_index_out_of_range(self):
        design = _design()
        q = design.leaves["q"]
        with pytest.raises(ContractViolationError):
            q.port("in").status(5)

    def test_unknown_reads(self):
        design = _design()
        q = design.leaves["q"]
        inp = q.port("in")
        assert inp.status(0) is DataStatus.UNKNOWN
        assert not inp.known(0)
        assert not inp.present(0)
        assert not inp.absent(0)  # unknown is not 'affirmatively absent'

    def test_send_resolves_data_and_enable(self):
        design = _design()
        src = design.leaves["src"]
        out = src.port("out")
        out.send(0, 99)
        q_in = design.leaves["q"].port("in")
        assert q_in.present(0)
        assert q_in.value(0) == 99

    def test_send_nothing_is_absent(self):
        design = _design()
        src = design.leaves["src"]
        src.port("out").send_nothing(0)
        q_in = design.leaves["q"].port("in")
        assert q_in.absent(0)
        assert q_in.known(0)

    def test_ack_roundtrip(self):
        design = _design()
        q = design.leaves["q"]
        src = design.leaves["src"]
        q.port("in").set_ack(0, True)
        assert src.port("out").accepted(0)
        assert src.port("out").ack_known(0)

    def test_indices_present(self):
        design = _design()
        src = design.leaves["src"]
        src.port("out").send(0, 1)
        assert design.leaves["q"].port("in").indices_present() == [0]


def _store(n_slots):
    """A store with ``n_slots`` unconnected slots, planes allocated."""
    store = SignalStore()
    store.ends.extend([(None, None)] * n_slots)
    store.control.extend([None] * n_slots)
    store.allocate()
    return store


class TestStoreBoundViews:
    """Views bind ``(decl, store, slots)``: they index the store's planes
    by slot and hold no wire objects."""

    def test_views_over_shared_slots_see_each_other(self):
        store = _store(3)
        out = OutView(out_port("out"), store, [2, 0])
        inp = InView(in_port("in"), store, [0, 2])
        out.send(0, "x")           # slot 2
        out.send_nothing(1)        # slot 0
        assert store.dv[2] == "x" and store.ds[0] is DataStatus.NOTHING
        assert inp.present(1) and inp.value(1) == "x"
        assert inp.absent(0)
        inp.set_ack(1, True)
        assert out.accepted(0) and out.took(0) and inp.took(1)
        assert store.ak[1] is CtrlStatus.UNKNOWN  # untouched slot

    def test_bad_index_is_a_contract_violation(self):
        store = _store(1)
        inp = InView(in_port("in"), store, [0])
        with pytest.raises(ContractViolationError, match="width 1"):
            inp.status(1)
        empty = OutView(out_port("out"), store, [])
        assert empty.width == 0
        with pytest.raises(ContractViolationError, match="width 0"):
            empty.send(0, 1)
