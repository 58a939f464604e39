"""Unit tests for the three-signal contract (repro.core.signals).

Every check goes through the slot API of a :class:`SignalStore`, the one
signal interface; :func:`make_store` claims a single slot (:data:`S`).
"""

import numpy as np
import pytest

from repro.core.errors import MonotonicityError
from repro.core.signals import (ALL_SIGNALS, CtrlStatus, DataStatus, SIG_ACK,
                                SIG_DATA, SIG_ENABLE, SignalStore,
                                values_equal)

#: The one slot of :func:`make_store`.
S = 0


def make_store():
    """A store with one unconnected slot, its planes allocated."""
    store = SignalStore()
    store.ends.append((None, None))
    store.control.append(None)
    store.allocate()
    return store


def begin(store):
    """Start a timestep; returns the signals left UNKNOWN."""
    unknown = store.begin_unknown()
    store.reset(unknown)
    return unknown


class TestBeginStep:
    def test_resets_all_signals_unknown(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, 5)
        store.drive_enable(S, True)
        store.drive_ack(S, True)
        unknown = begin(store)
        assert unknown == 3 and store.unknown == 3
        assert store.ds[S] is DataStatus.UNKNOWN
        assert store.dv[S] is None
        assert store.en[S] is CtrlStatus.UNKNOWN
        assert store.ak[S] is CtrlStatus.UNKNOWN

    def test_const_data_preresolves(self):
        store = make_store()
        store.set_const(S, 0, DataStatus.NOTHING)
        store.set_const(S, 2, CtrlStatus.DEASSERTED)
        assert begin(store) == 1  # only ack remains
        assert store.ds[S] is DataStatus.NOTHING
        assert store.en[S] is CtrlStatus.DEASSERTED

    def test_const_ack_preresolves(self):
        store = make_store()
        store.set_const(S, 3, CtrlStatus.ASSERTED)
        assert begin(store) == 2
        assert store.ak[S] is CtrlStatus.ASSERTED

    def test_const_value_carried(self):
        store = make_store()
        store.set_const(S, 0, DataStatus.SOMETHING)
        store.set_const(S, 1, 42)
        begin(store)
        assert store.dv[S] == 42


class TestMonotonicity:
    def test_data_idempotent_redrive_ok(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, 7)
        store.drive_data(S, DataStatus.SOMETHING, 7)  # no raise
        assert store.dv[S] == 7

    def test_data_conflicting_value_raises(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, 7)
        with pytest.raises(MonotonicityError):
            store.drive_data(S, DataStatus.SOMETHING, 8)

    def test_data_status_flip_raises(self):
        store = make_store()
        store.drive_data(S, DataStatus.NOTHING)
        with pytest.raises(MonotonicityError):
            store.drive_data(S, DataStatus.SOMETHING, 1)

    def test_cannot_drive_data_to_unknown(self):
        store = make_store()
        with pytest.raises(MonotonicityError):
            store.drive_data(S, DataStatus.UNKNOWN)

    def test_enable_idempotent(self):
        store = make_store()
        store.drive_enable(S, True)
        store.drive_enable(S, True)
        with pytest.raises(MonotonicityError):
            store.drive_enable(S, False)

    def test_ack_idempotent(self):
        store = make_store()
        store.drive_ack(S, False)
        store.drive_ack(S, False)
        with pytest.raises(MonotonicityError):
            store.drive_ack(S, True)

    def test_equal_value_objects_allowed(self):
        """Value-equal (not identical) payloads may be re-driven."""
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, (1, 2))
        store.drive_data(S, DataStatus.SOMETHING, (1, 2))


class TestPayloadEquality:
    """Regression: re-drive equality must survive rich payload types.

    The old check was ``raw_data_value == value``, which raises
    ``ValueError`` for numpy arrays ("truth value of an array is
    ambiguous") and wrongly treats a NaN re-drive as a conflict.
    """

    def test_numpy_array_redrive_identical_object(self):
        store = make_store()
        payload = np.array([1.0, 2.0, 3.0])
        store.drive_data(S, DataStatus.SOMETHING, payload)
        store.drive_data(S, DataStatus.SOMETHING, payload)  # no ValueError
        assert store.dv[S] is payload

    def test_numpy_array_redrive_equal_copy(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, np.array([1.0, 2.0]))
        store.drive_data(S, DataStatus.SOMETHING, np.array([1.0, 2.0]))

    def test_numpy_array_conflicting_redrive_raises(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, np.array([1.0, 2.0]))
        with pytest.raises(MonotonicityError):
            store.drive_data(S, DataStatus.SOMETHING, np.array([1.0, 9.0]))

    def test_numpy_shape_mismatch_is_conflict_not_crash(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, np.array([1.0, 2.0]))
        with pytest.raises(MonotonicityError):
            store.drive_data(S, DataStatus.SOMETHING,
                             np.array([1.0, 2.0, 3.0]))

    def test_nan_redrive_same_object_is_idempotent(self):
        store = make_store()
        nan = float("nan")
        store.drive_data(S, DataStatus.SOMETHING, nan)
        store.drive_data(S, DataStatus.SOMETHING, nan)  # identity wins

    def test_nan_redrive_equal_nan_is_idempotent(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, float("nan"))
        store.drive_data(S, DataStatus.SOMETHING, float("nan"))

    def test_comparison_raising_payload_treated_as_conflict(self):
        class Grumpy:
            def __eq__(self, other):
                raise RuntimeError("no comparisons, please")

            __hash__ = None

        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, Grumpy())
        with pytest.raises(MonotonicityError):
            store.drive_data(S, DataStatus.SOMETHING, Grumpy())

    def test_values_equal_helper(self):
        sentinel = object()
        assert values_equal(sentinel, sentinel)
        assert values_equal(3, 3.0)
        assert not values_equal(3, 4)
        assert values_equal(float("nan"), float("nan"))
        assert values_equal(np.array([1, 2]), np.array([1, 2]))
        assert not values_equal(np.array([1, 2]), np.array([1, 3]))
        assert not values_equal(np.array([1, 2]), np.array([1, 2, 3]))
        assert not values_equal(np.array([]), np.array([1]))


class TestTransfer:
    def test_transfer_requires_all_three(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, 1)
        store.drive_enable(S, True)
        store.drive_ack(S, True)
        assert store.took_dst(S)

    @pytest.mark.parametrize("data,enable,ack", [
        (DataStatus.NOTHING, True, True),
        (DataStatus.SOMETHING, False, True),
        (DataStatus.SOMETHING, True, False),
    ])
    def test_no_transfer_when_any_component_missing(self, data, enable, ack):
        store = make_store()
        store.drive_data(S, data, 1 if data is DataStatus.SOMETHING else None)
        store.drive_enable(S, enable)
        store.drive_ack(S, ack)
        assert not store.took_dst(S)

    def test_unresolved_wire_is_not_a_transfer(self):
        assert not make_store().took_dst(S)


class TestForceDefault:
    def test_force_data_yields_nothing(self):
        store = make_store()
        store.force_default(S, SIG_DATA)
        assert store.ds[S] is DataStatus.NOTHING

    def test_force_enable_and_ack_deassert(self):
        store = make_store()
        store.force_default(S, SIG_ENABLE)
        store.force_default(S, SIG_ACK)
        assert store.en[S] is CtrlStatus.DEASSERTED
        assert store.ak[S] is CtrlStatus.DEASSERTED

    def test_forcing_resolved_signal_is_noop(self):
        store = make_store()
        store.drive_data(S, DataStatus.SOMETHING, 3)
        store.force_default(S, SIG_DATA)
        assert store.ds[S] is DataStatus.SOMETHING

    def test_forced_signals_never_make_transfers(self):
        store = make_store()
        for signal in ALL_SIGNALS:
            store.force_default(S, signal)
        assert not store.took_dst(S)


class TestUnresolved:
    def test_fresh_wire_lists_all(self):
        store = make_store()
        assert store.unresolved(S) == [SIG_DATA, SIG_ENABLE, SIG_ACK]

    def test_fully_resolved(self):
        store = make_store()
        store.drive_data(S, DataStatus.NOTHING)
        store.drive_enable(S, False)
        store.drive_ack(S, False)
        assert store.unresolved(S) == []
        assert store.first_unresolved(S) is None
