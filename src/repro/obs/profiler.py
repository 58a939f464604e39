"""The engine profiler: per-instance, per-wire, per-timestep costs.

Mahmood's thesis on verification of component-based simulators argues
the right place to instrument is the *composition seams* — the
handshake and scheduling layer the framework owns — not the component
internals.  That is exactly what this profiler does: it attaches to any
:class:`~repro.core.engine.SimulatorBase` (worklist or static engine
alike, or one lane of a ``batched`` batch) and observes

* **per-instance cost** — every ``react()`` dispatch is wrapped, so
  invoke counts are exact and wall time is measured on *sampled*
  timesteps (the ``sample_every`` knob bounds overhead: only every
  N-th timestep pays for ``perf_counter_ns`` pairs);
* **per-wire pressure** — transfer counts already live on the wires;
  the profiler adds relaxation attribution (which wires the cycle
  policy had to force) on top;
* **per-timestep shape** — reacts per step (worklist pressure),
  signals unknown at step start, transfers per step, and sampled step
  wall time.

Attachment is reversible and structural: every engine pre-binds
``react`` into each instance dict, and the profiler swaps that value
for a wrapper (and back on :meth:`Profiler.detach`) without ever
changing the dict's shape — so attach/detach cycles leave CPython's
shared-key instance dicts split and the engine byte-for-byte back on
its unprofiled path (the only residue is one ``is not None`` test per
timestep).

On a ``batched`` lane the batch keeps its vectorized plan: an
instance the plan vectorizes never calls its own ``react``, so the
batch reports for it instead (see
:mod:`repro.core.batched`).  Its ``calls`` (steps × schedule
occurrences, what a scalar lane counts), ``sampled_calls`` and ``ns``
are credited in bulk at the end of each run, and ``ns`` is the lane's
share of the array op that served the whole batch — the op's sampled
wall time divided by the batch size.  The step figures (reacts,
unknown signals, transfers) are the ones a scalar lane would report.
Trace slices of such an op go to every lane sampling that step.

Usage::

    sim = build_simulator(spec, engine="levelized")
    prof = Profiler(sim, sample_every=4, trace=True)
    sim.run(10_000)
    prof.detach()
    print(hotspot_report(prof))                 # repro.obs.report
    write_chrome_trace(prof, "trace.json")      # repro.obs.chrometrace
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from ..core.collector import Histogram
from ..core.errors import SimulationError
from .metrics import MetricsRegistry

#: Default sampling period: time every 4th timestep.  Invoke counts are
#: always exact; only wall-clock measurement is sampled.
DEFAULT_SAMPLE_EVERY = 4

#: Default cap on stored trace events (react slices dominate).
DEFAULT_TRACE_LIMIT = 200_000


class InstanceProfile:
    """Accumulated cost of one leaf instance."""

    __slots__ = ("index", "path", "template", "calls", "sampled_calls", "ns")

    def __init__(self, index: int, path: str, template: str):
        self.index = index
        self.path = path
        self.template = template
        self.calls = 0          # exact react() dispatch count
        self.sampled_calls = 0  # dispatches that were wall-timed
        self.ns = 0             # wall time over sampled dispatches

    def summary(self) -> Dict[str, Any]:
        return {"template": self.template, "calls": self.calls,
                "sampled_calls": self.sampled_calls, "ns": self.ns}

    def __repr__(self) -> str:
        return (f"InstanceProfile({self.path!r}, calls={self.calls}, "
                f"sampled_ns={self.ns})")


def _wrap_react(prof: "Profiler", rec: InstanceProfile, react):
    """Build the instrumented dispatch for one instance.

    The closure binds everything it touches so the per-call cost is a
    few attribute updates; timing happens only on sampled steps.
    """
    perf = time.perf_counter_ns

    def profiled_react():
        rec.calls += 1
        prof._step_reacts += 1
        if prof._sampling:
            t0 = perf()
            react()
            t1 = perf()
            rec.sampled_calls += 1
            rec.ns += t1 - t0
            if prof._tracing:
                prof._trace_react(rec.index, t0, t1)
        else:
            react()

    profiled_react._obs_original = react
    return profiled_react


class Profiler:
    """Attachable engine profiler; see module docstring.

    Parameters
    ----------
    sim:
        Engine to attach to immediately (or ``None``; call
        :meth:`attach` later).
    sample_every:
        Wall-time sampling period in timesteps: 1 times every step
        (full fidelity, highest overhead), N times every N-th.  Invoke
        and transfer counts are exact regardless.
    trace:
        Keep per-event timeline data (step and react slices) for the
        Chrome trace-event exporter.  Off by default — slices cost
        memory proportional to sampled activity.
    trace_limit:
        Hard cap on stored react slices; beyond it events are counted
        as dropped instead of stored.
    """

    def __init__(self, sim=None, *, sample_every: int = DEFAULT_SAMPLE_EVERY,
                 trace: bool = False, trace_limit: int = DEFAULT_TRACE_LIMIT):
        if sample_every < 1:
            raise SimulationError(
                f"sample_every must be >= 1, got {sample_every}")
        self.sample_every = sample_every
        self.trace = trace
        self.trace_limit = trace_limit
        self.sim = None

        # Per-instance records (filled at attach).
        self.instances: List[InstanceProfile] = []
        self._by_path: Dict[str, InstanceProfile] = {}

        # Per-step accumulators.
        self.steps = 0
        self.sampled_steps = 0
        self.reacts_total = 0
        self.relaxations = 0
        self._relaxed_wires: Dict[int, int] = {}    # wid -> forced count
        self.step_ns = Histogram()                  # sampled step wall time
        self.reacts_per_step = Histogram()
        self.unknown_per_step = Histogram()
        self.transfers_per_step = Histogram()

        # Live per-step state read by the react wrappers.
        self._sampling = False
        self._tracing = False
        self._step_reacts = 0
        self._step_unknown = 0
        self._step_transfers = 0    # credited outside the engine's scan
        self._step_t0 = 0

        # Timeline storage for the Chrome trace exporter.
        self._origin_ns = 0
        self._react_events: List[Tuple[int, int, int]] = []
        self._step_events: List[Tuple[int, int, int, int, int, int]] = []
        self._trace_dropped = 0

        # Engine counters at attach, for delta reporting.
        self._now_at_attach = 0
        self._transfers_at_attach = 0
        self._relax_at_attach = 0
        self._elapsed_ns = 0

        if sim is not None:
            self.attach(sim)

    # ------------------------------------------------------------------
    # Attachment lifecycle
    # ------------------------------------------------------------------
    def attach(self, sim) -> "Profiler":
        """Install the profiler on ``sim`` (one profiler per engine)."""
        if self.sim is not None:
            raise SimulationError("profiler is already attached")
        if getattr(sim, "profiler", None) is not None:
            raise SimulationError(
                f"simulator for design {sim.design.name!r} already has a "
                f"profiler attached; detach it first")
        self.sim = sim
        self._origin_ns = time.perf_counter_ns()
        self._now_at_attach = sim.now
        self._transfers_at_attach = sim.transfers_total
        self._relax_at_attach = sim.relaxations_total
        if not self.instances:
            for index, inst in enumerate(sim._instances):
                rec = InstanceProfile(index, inst.path,
                                      type(inst).template_name())
                self.instances.append(rec)
                self._by_path[rec.path] = rec
        for inst, rec in zip(sim._instances, self.instances):
            inst.react = _wrap_react(self, rec, inst.react)
        sim.profiler = self
        sim._instrumentation_changed()
        return self

    def detach(self) -> "Profiler":
        """Remove all instrumentation; collected data stays readable."""
        sim = self.sim
        if sim is None:
            return self
        self._elapsed_ns = time.perf_counter_ns() - self._origin_ns
        for inst in sim._instances:
            wrapped = inst.__dict__.get("react")
            original = getattr(wrapped, "_obs_original", None)
            if original is not None:
                # Restore by assignment, not deletion: deleting a key
                # would un-split the shared-key instance dict.
                inst.react = original
        sim.profiler = None
        sim._instrumentation_changed()
        self.sim = None
        return self

    def __enter__(self) -> "Profiler":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()

    # ------------------------------------------------------------------
    # Engine hooks (called by SimulatorBase when a profiler is present)
    # ------------------------------------------------------------------
    def _on_step_begin(self, now: int, unknown: int) -> None:
        self._step_reacts = 0
        self._step_transfers = 0
        self._step_unknown = unknown
        self._sampling = (self.steps % self.sample_every) == 0
        if self._sampling:
            self._tracing = self.trace
            self._step_t0 = time.perf_counter_ns()

    def _credit_step(self, reacts: int, transfers: int) -> None:
        """Count reacts and transfers the engine did for this step
        outside the wrappers and its own transfer scan — a vectorized
        batch's array ops (called before the step's ``_on_step_end``)."""
        self._step_reacts += reacts
        self._step_transfers += transfers

    def _trace_react(self, index: int, t0: int, t1: int) -> None:
        """Store one react slice of instance ``index`` (or count it as
        dropped beyond ``trace_limit``)."""
        events = self._react_events
        if len(events) < self.trace_limit:
            events.append((index, t0, t1))
        else:
            self._trace_dropped += 1

    def _on_step_end(self, now: int, transfers: int) -> None:
        reacts = self._step_reacts
        transfers += self._step_transfers
        self.steps += 1
        self.reacts_total += reacts
        self.reacts_per_step.add(reacts)
        self.unknown_per_step.add(self._step_unknown)
        self.transfers_per_step.add(transfers)
        if self._sampling:
            t1 = time.perf_counter_ns()
            self.step_ns.add(t1 - self._step_t0)
            self.sampled_steps += 1
            if self._tracing:
                self._step_events.append(
                    (now, self._step_t0, t1, reacts, transfers,
                     self._step_unknown))
            self._sampling = False
            self._tracing = False

    def _on_relax(self, wire) -> None:
        self.relaxations += 1
        self._relaxed_wires[wire.wid] = self._relaxed_wires.get(wire.wid, 0) + 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def elapsed_ns(self) -> int:
        """Wall time since attach (frozen by :meth:`detach`)."""
        if self.sim is not None:
            return time.perf_counter_ns() - self._origin_ns
        return self._elapsed_ns

    def hotspots(self, top: Optional[int] = None) -> List[InstanceProfile]:
        """Instances ranked by sampled wall time (then call count)."""
        ranked = sorted(self.instances,
                        key=lambda r: (-r.ns, -r.calls, r.path))
        return ranked if top is None else ranked[:top]

    def wire_activity(self, top: Optional[int] = None) -> List[Tuple[Any, int]]:
        """Non-stub wires of the attached design ranked by transfers.

        Requires the profiler to still be attached (wire objects belong
        to the live design).
        """
        if self.sim is None:
            return []
        transfers = self.sim.design.store.transfers
        wires = sorted(self.sim.design.real_wires,
                       key=lambda w: -transfers[w.wid])
        pairs = [(w, transfers[w.wid]) for w in wires if transfers[w.wid]]
        return pairs if top is None else pairs[:top]

    def relaxed_wires(self) -> Dict[int, int]:
        """``wire id -> forced-signal count`` for the relax cycle policy."""
        return dict(self._relaxed_wires)

    def metrics(self) -> MetricsRegistry:
        """Materialize the collected data as a structured registry."""
        reg = MetricsRegistry()
        reg.counter("engine.steps").inc(self.steps)
        reg.counter("engine.sampled_steps").inc(self.sampled_steps)
        reg.counter("engine.reacts").inc(self.reacts_total)
        reg.counter("engine.relaxations").inc(self.relaxations)
        reg.gauge("engine.sample_every").set(self.sample_every)
        reg.gauge("engine.elapsed_ns").set(self.elapsed_ns)
        if self.sim is not None:
            reg.counter("engine.transfers").inc(
                self.sim.transfers_total - self._transfers_at_attach)
        step_timer = reg.timer("engine.step_ns")
        if self.step_ns.count:
            step_timer.count = self.step_ns.count
            step_timer.total_ns = int(self.step_ns.total)
            step_timer.min_ns = int(self.step_ns.min)
            step_timer.max_ns = int(self.step_ns.max)
        reg.gauge("engine.reacts_per_step.mean").set(self.reacts_per_step.mean)
        reg.gauge("engine.unknown_per_step.mean").set(self.unknown_per_step.mean)
        reg.gauge("engine.transfers_per_step.mean").set(
            self.transfers_per_step.mean)
        for rec in self.instances:
            reg.counter(f"instance.{rec.path}.reacts").inc(rec.calls)
            timer = reg.timer(f"instance.{rec.path}.react_ns")
            if rec.sampled_calls:
                timer.count = rec.sampled_calls
                timer.total_ns = rec.ns
                timer.min_ns = 0
                timer.max_ns = rec.ns
        return reg

    def summary_dict(self, top: Optional[int] = None) -> Dict[str, Any]:
        """JSON-friendly roll-up shipped through the campaign ledger.

        ``top`` keeps only the hottest N instances (by sampled time,
        then calls) so ledger lines stay bounded on large designs.
        """
        instances = {rec.path: rec.summary() for rec in self.hotspots(top)}
        out: Dict[str, Any] = {
            "sample_every": self.sample_every,
            "steps": self.steps,
            "sampled_steps": self.sampled_steps,
            "elapsed_ns": self.elapsed_ns,
            "reacts": self.reacts_total,
            "relaxations": self.relaxations,
            "step_ns": self.step_ns.summary(),
            "reacts_per_step": self.reacts_per_step.summary(),
            "unknown_per_step": self.unknown_per_step.summary(),
            "transfers_per_step": self.transfers_per_step.summary(),
            "instances": instances,
        }
        if self.sim is not None:
            out["engine"] = type(self.sim).__name__
            out["design"] = self.sim.design.name
            out["transfers"] = (self.sim.transfers_total
                                - self._transfers_at_attach)
        if self._relaxed_wires:
            out["relaxed_wires"] = {str(wid): n for wid, n
                                    in sorted(self._relaxed_wires.items())}
        if self._trace_dropped:
            out["trace_dropped"] = self._trace_dropped
        return out

    def __repr__(self) -> str:
        state = "attached" if self.sim is not None else "detached"
        return (f"<Profiler {state}: {self.steps} steps, "
                f"{self.sampled_steps} sampled, "
                f"{len(self.instances)} instances>")
