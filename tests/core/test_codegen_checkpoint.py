"""Static-engine checkpointing under instrumentation churn.

The generated stepper hoists each instance's bound ``react`` into
closure locals, so both checkpoint restore and monitor attach/detach
must leave the compiled function observing the *current* state and
methods.  These tests pin the three interactions the parametrized
round-trip suite (``test_checkpoint.py``) cannot see:

* a ``state_dict`` round-trip on the static engine continues
  identically to an uninterrupted run even after the stepper has been
  rebuilt by an instrumentation change;
* a snapshot taken *while* a :class:`ContractMonitor` is attached is
  engine state only — restoring it into a bare simulator works and the
  monitor wrapper does not leak into the snapshot;
* attach → detach restores the original reacts, so the generated code
  after detach is equivalent to never having attached.
"""

import pickle

from repro import build_simulator
from repro.analysis import ContractMonitor

from ..conftest import simple_pipe_spec
from .test_checkpoint import stochastic_pipe


class TestCodegenRoundTrip:
    def test_round_trip_survives_stepper_rebuild(self):
        interrupted = build_simulator(stochastic_pipe(), engine="levelized",
                                      seed=7)
        interrupted.run(120)
        state = pickle.loads(pickle.dumps(interrupted.state_dict()))

        resumed = build_simulator(stochastic_pipe(), engine="levelized")
        # Force a stepper regeneration before the restore: attach and
        # detach a monitor so the closure has been rebuilt at least once.
        ContractMonitor(resumed).detach()
        resumed.load_state_dict(state)
        assert resumed.now == 120

        reference = build_simulator(stochastic_pipe(), engine="levelized",
                                    seed=7)
        reference.run(300)
        resumed.run(180)
        assert resumed.stats.report() == reference.stats.report()
        assert resumed.transfers_total == reference.transfers_total

    def test_snapshot_taken_under_monitor_is_clean(self):
        sim = build_simulator(stochastic_pipe(), engine="levelized", seed=4)
        mon = ContractMonitor(sim, mode="record")
        sim.run(90)
        state = sim.state_dict()
        mon.detach()

        fresh = build_simulator(stochastic_pipe(), engine="levelized")
        fresh.load_state_dict(state)
        reference = build_simulator(stochastic_pipe(), engine="levelized",
                                    seed=4)
        reference.run(200)
        fresh.run(110)
        assert fresh.stats.report() == reference.stats.report()

    def test_detach_restores_uninstrumented_behaviour(self):
        plain = build_simulator(stochastic_pipe(), engine="levelized", seed=2)
        plain.run(250)

        churned = build_simulator(stochastic_pipe(), engine="levelized", seed=2)
        mon = ContractMonitor(churned, mode="record")
        churned.run(100)
        mon.detach()
        churned.run(150)
        assert churned.stats.report() == plain.stats.report()
        assert churned.transfers_total == plain.transfers_total

    def test_round_trip_preserves_wire_counters(self):
        sim = build_simulator(simple_pipe_spec(), engine="levelized")
        sim.run(40)
        state = sim.state_dict()
        fresh = build_simulator(simple_pipe_spec(), engine="levelized")
        fresh.load_state_dict(state)
        assert (list(fresh.design.store.transfers)
                == list(sim.design.store.transfers))
