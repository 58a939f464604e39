"""Stateful test of the signal store against a reference contract model.

``SignalStore`` (with the port views' inlined first-drive shortcuts) is
the one place the three-signal contract's state and checks live.  Here
random interleavings of every write the views offer — over slots with
and without control functions and stub constants — are replayed on a
deliberately naive per-slot model; after every operation the committed
and raw planes, both ``took`` predicates, the ``unknown`` counter and
the hook notifications must agree, and every conflicting re-drive must
raise ``MonotonicityError`` naming the wire's endpoints.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.constructor import _claim_slot
from repro.core.control import compose, map_data, never_ack, squash_when
from repro.core.errors import MonotonicityError, WiringError
from repro.core.netlist import Design
from repro.core.ports import InView, OutView, in_port, out_port
from repro.core.signals import (SIG_ACK, SIG_DATA, SIG_ENABLE, CtrlStatus,
                                DataStatus, Endpoint, SignalStore)

U, N, S = DataStatus.UNKNOWN, DataStatus.NOTHING, DataStatus.SOMETHING
CU, D, A = CtrlStatus.UNKNOWN, CtrlStatus.DEASSERTED, CtrlStatus.ASSERTED


class Conflict(Exception):
    """The reference model's verdict: this drive violates monotonicity."""


# Reference transforms, written independently of repro.core.control.
def _squash(ds, dv, en):
    return (N, None, D) if ds is S and dv == 1 else (ds, dv, en)


def _block(ds, dv, en):
    return ds, dv, (D if en is A else en)


def _tag(ds, dv, en):
    return ds, ((dv, "m") if ds is S else dv), en


def _same(ack):
    return ack


#: slot -> (control function, reference forward, reference backward,
#:          stub constants (data, value, enable, ack))
SLOTS = [
    (None, None, None, (None, None, None, None)),
    (None, None, None, (None, None, None, None)),
    (squash_when(lambda v: v == 1), _squash, _same, (None,) * 4),
    (never_ack(), _block, lambda ack: D, (None,) * 4),
    (map_data(lambda v: (v, "m")), _tag, _same, (None,) * 4),
    (compose(map_data(lambda v: (v, "m")), never_ack()),
     lambda *f: _block(*_tag(*f)), lambda ack: D, (None,) * 4),
    (None, None, None, (N, None, D, None)),        # unconnected input
    (None, None, None, (S, 42, A, None)),          # input fed a constant
    (None, None, None, (None, None, None, A)),     # unconnected output
]


class RefSlot:
    """The contract for one wire, as plainly as it can be written."""

    def __init__(self, forward, backward, consts):
        self.forward, self.backward, self.consts = forward, backward, consts
        self.reset()

    def reset(self):
        data, value, enable, ack = self.consts
        self.rds = self.ds = U if data is None else data
        self.rdv = self.dv = None if data is None else value
        self.ren = self.en = CU if enable is None else enable
        self.rak = self.ak = CU if ack is None else ack

    def _commit_forward(self):
        if self.forward is None:
            ds, dv, en = self.rds, self.rdv, self.ren
        elif self.rds is U or self.ren is CU:
            return
        else:
            ds, dv, en = self.forward(self.rds, self.rdv, self.ren)
        if self.ds is U and ds is not U:
            self.ds, self.dv = ds, (dv if ds is S else None)
        if self.en is CU:
            self.en = en

    def data(self, status, value):
        value = value if status is S else None
        if status is U:
            raise Conflict
        if self.rds is not U:
            if (self.rds, self.rdv) != (status, value):
                raise Conflict
            return
        self.rds, self.rdv = status, value
        self._commit_forward()

    def enable(self, asserted):
        want = A if asserted else D
        if self.ren is not CU:
            if self.ren is not want:
                raise Conflict
            return
        self.ren = want
        self._commit_forward()

    def set_ack(self, accept):
        want = A if accept else D
        if self.rak is not CU:
            if self.rak is not want:
                raise Conflict
            return
        self.rak = want
        self.ak = want if self.backward is None else self.backward(want)

    def force(self, signal):
        if signal == SIG_DATA and self.ds is U:
            self.rds = N if self.rds is U else self.rds
            self.ds, self.dv = N, None
        elif signal == SIG_ENABLE and self.en is CU:
            self.ren = D if self.ren is CU else self.ren
            self.en = D
        elif signal == SIG_ACK and self.ak is CU:
            self.rak = D if self.rak is CU else self.rak
            self.ak = D

    def committed(self):
        return self.ds, self.en, self.ak


class _Inst:
    def __init__(self, path):
        self.path = path


slots = st.integers(0, len(SLOTS) - 1)
values = st.sampled_from([0, 1, 2, (1, 2), "x"])


class StoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.a, self.b = _Inst("a"), _Inst("b")
        self.store = store = SignalStore()
        for slot, (control, _, _, consts) in enumerate(SLOTS):
            # Claim the slot, then set its constants, as wiring does.
            store.ends.append((Endpoint(self.a, "out", slot),
                               Endpoint(self.b, "in", slot)))
            store.control.append(control)
            for field, value in enumerate(consts):
                store.set_const(slot, field, value)
        store.allocate()
        slots = list(range(len(SLOTS)))
        self.out = OutView(out_port("out"), store, slots)
        self.inp = InView(in_port("in"), store, slots)
        self.hooked = set()
        self.store.hook = lambda slot, is_ack: self.hooked.add((slot, is_ack))
        self.model = [RefSlot(fwd, bwd, consts)
                      for _, fwd, bwd, consts in SLOTS]
        self.begin()

    def _apply(self, slot, model_ops, real_op):
        """Run one operation on both sides and compare the outcome."""
        model = self.model[slot]
        before = model.committed()
        self.hooked.clear()
        try:
            for op in model_ops:
                op(model)
        except Conflict:
            with pytest.raises(MonotonicityError) as err:
                real_op()
            assert f"a.out[{slot}]" in str(err.value)
            assert f"b.in[{slot}]" in str(err.value)
        else:
            real_op()
        after = model.committed()
        expected = {(slot, i == 2) for i in range(3)
                    if before[i] is not after[i]}
        assert self.hooked == expected

    @rule()
    def begin(self):
        for model in self.model:
            model.reset()
        self.store.reset(self.store.begin_unknown())

    @rule(slot=slots, value=values)
    def send(self, slot, value):
        self._apply(slot, [lambda m: m.data(S, value),
                           lambda m: m.enable(True)],
                    lambda: self.out.send(slot, value))

    @rule(slot=slots)
    def send_nothing(self, slot):
        self._apply(slot, [lambda m: m.data(N, None),
                           lambda m: m.enable(False)],
                    lambda: self.out.send_nothing(slot))

    @rule(slot=slots, status=st.sampled_from([U, N, S]), value=values)
    def drive_data(self, slot, status, value):
        self._apply(slot, [lambda m: m.data(status, value)],
                    lambda: self.out.drive_data(slot, status, value))

    @rule(slot=slots, asserted=st.booleans())
    def drive_enable(self, slot, asserted):
        self._apply(slot, [lambda m: m.enable(asserted)],
                    lambda: self.out.drive_enable(slot, asserted))

    @rule(slot=slots, accept=st.booleans())
    def set_ack(self, slot, accept):
        self._apply(slot, [lambda m: m.set_ack(accept)],
                    lambda: self.inp.set_ack(slot, accept))

    @rule(slot=slots,
          signal=st.sampled_from([SIG_DATA, SIG_ENABLE, SIG_ACK]))
    def force_default(self, slot, signal):
        self._apply(slot, [lambda m: m.force(signal)],
                    lambda: self.store.force_default(slot, signal))

    @invariant()
    def planes_match_the_model(self):
        store = self.store
        for slot, model in enumerate(self.model):
            assert (store.ds[slot], store.dv[slot], store.en[slot],
                    store.ak[slot]) == (model.ds, model.dv, model.en,
                                        model.ak), slot
            assert (store.rds[slot], store.rdv[slot], store.ren[slot],
                    store.rak[slot]) == (model.rds, model.rdv, model.ren,
                                         model.rak), slot
            took_src = model.rds is S and model.ren is A and model.ak is A
            took_dst = model.ds is S and model.en is A and model.rak is A
            assert self.out.took(slot) is took_src
            assert self.inp.took(slot) is took_dst
            assert store.took_src(slot) is took_src
            assert store.took_dst(slot) is took_dst
        assert store.unknown == sum(
            signal in (U, CU)
            for model in self.model for signal in model.committed())


TestSignalStoreContract = StoreMachine.TestCase
TestSignalStoreContract.settings = settings(
    max_examples=200, stateful_step_count=50, deadline=None)


class TestStoreShape:
    def test_wire_ids_are_slots(self):
        design = Design("d")
        assert _claim_slot(design, None, None, None).wid == 0
        design.store.ends.append((None, None))  # a slot no wire claimed
        with pytest.raises(WiringError, match="next slot"):
            _claim_slot(design, None, None, None)

    def test_park_survives_reset_and_unpark_restores_constants(self):
        store = SignalStore()
        plain, stub = 0, 1
        store.ends.extend([(None, None)] * 2)
        store.control.extend([None] * 2)
        store.set_const(stub, 3, A)
        store.allocate()
        store.park([plain, stub])
        store.reset(0)
        assert (store.ds[plain], store.en[plain], store.ak[plain]) \
            == (N, D, D)
        assert store.ak[stub] is D
        assert store.begin_unknown() == 5      # structural, not parked
        store.unpark([plain, stub])
        store.reset(store.begin_unknown())
        assert (store.ds[plain], store.en[plain], store.ak[plain]) \
            == (U, CU, CU)
        assert store.ak[stub] is A and store.unknown == 5
