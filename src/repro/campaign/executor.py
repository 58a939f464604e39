"""The campaign executor: a fault-tolerant multiprocess worker pool.

Each sweep point runs in its **own worker process** (not a reusable
pool worker) so the orchestrator can enforce a hard per-run timeout by
killing the process, and so a crashed or killed worker poisons nothing
but its own run.  Failures are retried with exponential backoff up to a
bound; a point that exhausts its retries is recorded as ``failed`` and
the campaign continues — one poisoned point never sinks the sweep.

Run payloads are described declaratively by :class:`RunTask` so they
cross the process boundary cleanly; the ``target`` may be a callable or
a ``"pkg.mod:attr"`` dotted path resolved in the child.  Three task
kinds are supported:

``fn``
    ``target(**params) -> dict`` — an arbitrary workload returning
    metrics (how the ablation benchmarks ride the subsystem).
``spec``
    ``target(**params) -> LSS`` — the campaign builds the simulator
    (``engine``, per-point ``seed``), runs ``cycles`` timesteps with
    optional periodic checkpoints, and returns the stats summary.
``lss``
    ``lss_text`` is parsed against the shipped library environment,
    ``params`` (dotted ``"inst.param"`` keys) override instance
    bindings, then as ``spec``.
``batch``
    A whole group of structurally identical sweep points (same design
    fingerprint, different parameters) executed in **one** worker by a
    single lockstep :class:`~repro.core.batched.BatchedSimulator` —
    the campaign fast path.  ``points`` carries the per-lane run ids,
    params and seeds; ``batch_kind`` says how each lane's spec is built
    (``spec`` or ``lss``).  The result maps every lane's run id to a
    payload shaped exactly like a standalone simulator run's.

:class:`InlineExecutor` runs the same tasks serially in-process — the
baseline for scaling measurements and the debug path (no kill-based
timeout there).
"""

from __future__ import annotations

import heapq
import importlib
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..core.backends import DEFAULT_ENGINE
from .checkpoint import clear as clear_checkpoint
from .checkpoint import run_with_checkpoints
from .errors import CampaignError

#: Orchestrator poll interval (seconds); bounds timeout detection lag.
_POLL_S = 0.02


def resolve_target(target: Union[str, Callable]) -> Callable:
    """Resolve a ``"pkg.mod:attr"`` path (or return the callable as-is)."""
    if callable(target):
        return target
    if not isinstance(target, str) or ":" not in target:
        raise CampaignError(
            f"target {target!r} is neither callable nor a 'pkg.mod:attr' "
            f"dotted path")
    modname, _, attr = target.partition(":")
    try:
        module = importlib.import_module(modname)
    except ImportError as exc:
        raise CampaignError(f"cannot import target module {modname!r}: {exc}")
    obj: Any = module
    for part in attr.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise CampaignError(
                f"module {modname!r} has no attribute {attr!r}") from None
    if not callable(obj):
        raise CampaignError(f"target {target!r} resolved to non-callable {obj!r}")
    return obj


@dataclass
class RunTask:
    """Everything a worker needs to execute one sweep point once."""

    run_id: str
    index: int
    params: Dict[str, Any]
    seed: int
    target: Union[str, Callable, None] = None
    kind: str = "fn"                      # fn | spec | lss
    engine: str = DEFAULT_ENGINE
    opt: Optional[int] = None             # IR optimizer level (None = env)
    cycles: int = 1000
    lss_text: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    checkpoint_every: Optional[int] = None
    profile: bool = False                 # attach an engine profiler
    profile_sample: int = 4               # profiler sampling period
    profile_top: int = 25                 # hottest instances kept per run
    attempt: int = 1
    #: kind="batch" only: per-lane descriptors, each a dict with
    #: "run_id" / "index" / "params" / "seed".
    points: Optional[List[Dict[str, Any]]] = None
    #: kind="batch" only: how each lane's spec is built (spec | lss).
    batch_kind: Optional[str] = None

    def checkpoint_path(self) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"{self.run_id}.ckpt")


@dataclass
class RunOutcome:
    """Terminal record of one sweep point across all its attempts."""

    run_id: str
    status: str                            # done | failed
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0


def _coerce_spec(obj):
    """Accept builders returning an LSS or an ``(LSS, info)`` tuple."""
    from ..core.lss import LSS
    if isinstance(obj, tuple) and obj and isinstance(obj[0], LSS):
        return obj[0]
    return obj


def build_point_spec(kind: str, target, lss_text: Optional[str],
                     params: Dict[str, Any], run_id: str = "?"):
    """Build one sweep point's LSS — the shared spec-construction path.

    ``kind="spec"`` calls the builder with the point's params;
    ``kind="lss"`` parses ``lss_text`` and applies dotted
    ``"instance.parameter"`` overrides.  Used by the per-run simulate
    path, the batch path, and the campaign's fingerprint grouping.
    """
    if kind == "spec":
        fn = resolve_target(target)
        return _coerce_spec(fn(**params))
    if kind == "lss":
        from .. import library_env, parse_lss
        if lss_text is None:
            raise CampaignError(f"run {run_id}: lss task without lss_text")
        spec = parse_lss(lss_text, library_env())
        for dotted, value in params.items():
            inst_name, _, param = dotted.partition(".")
            if not param:
                raise CampaignError(
                    f"run {run_id}: LSS override {dotted!r} is not of "
                    f"the form 'instance.parameter'")
            spec.get_instance(inst_name).bindings[param] = value
        return spec
    raise CampaignError(f"unknown simulator task kind {kind!r}")


def _lane_result(sim, profiler, top: int) -> Dict[str, Any]:
    """One simulator's result payload (shared per-run / per-lane shape)."""
    result = {"cycles": sim.now, "transfers": sim.transfers_total,
              "relaxations": sim.relaxations_total,
              "stats": sim.stats.summary_dict()}
    if profiler is not None:
        result["profile"] = profiler.summary_dict(top=top)
    return result


def _simulate(task: RunTask, spec) -> Dict[str, Any]:
    from ..core.constructor import build_simulator
    sim = build_simulator(_coerce_spec(spec), engine=task.engine,
                          seed=task.seed, opt=task.opt)
    try:
        profiler = None
        if task.profile:
            from ..obs import Profiler
            profiler = Profiler(sim, sample_every=task.profile_sample)
        path = task.checkpoint_path()
        run_with_checkpoints(sim, task.cycles, every=task.checkpoint_every,
                             path=path)
        clear_checkpoint(path)
        return _lane_result(sim, profiler, task.profile_top)
    finally:
        sim.close()  # release the design (and detach any profiler)


def _simulate_batch(task: RunTask) -> Dict[str, Any]:
    """Run a whole fingerprint group in one lockstep batched simulator.

    Returns ``{"batch": True, "lanes": {run_id: result, ...}}`` where
    every lane result is shaped exactly like a standalone
    :func:`_simulate` payload, so the campaign can journal and
    aggregate the lanes as ordinary per-point runs.
    """
    from ..core.batched import BatchedSimulator
    from ..core.constructor import build_design
    if not task.points:
        raise CampaignError(f"batch task {task.run_id} has no points")
    designs = [build_design(build_point_spec(
        task.batch_kind, task.target, task.lss_text,
        point["params"], point["run_id"])) for point in task.points]
    engine_kw: Dict[str, Any] = {}
    if task.opt is not None:
        engine_kw["opt"] = task.opt
    sim = BatchedSimulator(
        designs, seeds=[point["seed"] for point in task.points], **engine_kw)
    try:
        profilers: Dict[str, Any] = {}
        if task.profile:
            from ..obs import Profiler
            for i, point in enumerate(task.points):
                profilers[point["run_id"]] = Profiler(
                    sim.lane(i), sample_every=task.profile_sample)
        sim.run(task.cycles)
        lanes = {point["run_id"]: _lane_result(
                     sim.lane(i), profilers.get(point["run_id"]),
                     task.profile_top)
                 for i, point in enumerate(task.points)}
        return {"batch": True, "lanes": lanes}
    finally:
        sim.close()


def execute_task(task: RunTask) -> Dict[str, Any]:
    """Run one task to completion in the current process."""
    if task.kind == "fn":
        fn = resolve_target(task.target)
        result = fn(**task.params)
        if result is None:
            result = {}
        if not isinstance(result, dict):
            result = {"value": result}
        return result
    if task.kind == "batch":
        return _simulate_batch(task)
    if task.kind in ("spec", "lss"):
        return _simulate(task, build_point_spec(
            task.kind, task.target, task.lss_text, task.params, task.run_id))
    raise CampaignError(f"unknown task kind {task.kind!r}")


def _worker_entry(conn, task: RunTask) -> None:
    """Child-process entry: run the task, ship back (status, payload)."""
    try:
        result = execute_task(task)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - ship every failure home
        conn.send(("error",
                   f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Events: the executors narrate through a callback so the campaign can
# journal every lifecycle transition as it happens.
# ----------------------------------------------------------------------
def _emit(callback, event: Dict[str, Any]) -> None:
    if callback is not None:
        callback(event)


class InlineExecutor:
    """Serial in-process execution with the same retry envelope.

    No per-run timeout (a hung run hangs the caller) — use
    :class:`ProcessExecutor` for untrusted or long workloads.
    """

    def __init__(self, retries: int = 0, backoff: float = 0.0):
        self.retries = retries
        self.backoff = backoff

    def run(self, tasks: Sequence[RunTask], callback=None) -> List[RunOutcome]:
        outcomes = []
        for task in tasks:
            t0 = time.monotonic()
            last_error = "never ran"
            for attempt in range(1, self.retries + 2):
                task = replace(task, attempt=attempt)
                _emit(callback, {"event": "start", "run_id": task.run_id,
                                 "attempt": attempt})
                try:
                    result = execute_task(task)
                except Exception as exc:  # framework + user errors alike
                    last_error = f"{type(exc).__name__}: {exc}"
                    _emit(callback, {"event": "failed", "run_id": task.run_id,
                                     "attempt": attempt, "kind": "error",
                                     "error": last_error})
                    if attempt <= self.retries and self.backoff > 0:
                        time.sleep(self.backoff * 2 ** (attempt - 1))
                    continue
                duration = time.monotonic() - t0
                _emit(callback, {"event": "done", "run_id": task.run_id,
                                 "attempt": attempt, "duration": duration,
                                 "result": result})
                outcomes.append(RunOutcome(task.run_id, "done", result=result,
                                           attempts=attempt, duration=duration))
                break
            else:
                _emit(callback, {"event": "gave_up", "run_id": task.run_id,
                                 "attempts": self.retries + 1})
                outcomes.append(RunOutcome(
                    task.run_id, "failed", error=last_error,
                    attempts=self.retries + 1,
                    duration=time.monotonic() - t0))
        return outcomes


class _Active:
    """Book-keeping for one in-flight worker process."""

    __slots__ = ("proc", "conn", "task", "deadline", "started")

    def __init__(self, proc, conn, task, deadline, started):
        self.proc = proc
        self.conn = conn
        self.task = task
        self.deadline = deadline
        self.started = started


class ProcessExecutor:
    """Bounded pool of single-run worker processes.

    Parameters
    ----------
    workers:
        Maximum concurrent worker processes.
    timeout:
        Per-*attempt* wall-clock budget in seconds; an attempt past its
        deadline is killed and recorded as a ``timeout`` failure.
    retries:
        Extra attempts granted to a failed point (0 = one attempt).
    backoff:
        Base of the exponential retry delay: attempt ``k`` waits
        ``backoff * 2**(k-1)`` seconds before relaunching.
    mp_context:
        ``multiprocessing`` start-method context; defaults to ``fork``
        where available (callable targets then need no pickling),
        otherwise the platform default.
    """

    def __init__(self, workers: int = 2, timeout: Optional[float] = None,
                 retries: int = 1, backoff: float = 0.25, mp_context=None):
        if workers < 1:
            raise CampaignError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise CampaignError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise CampaignError(f"retries must be >= 0, got {retries}")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
        self._ctx = mp_context

    # -- lifecycle of one attempt ---------------------------------------
    def _launch(self, task: RunTask) -> _Active:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(target=_worker_entry,
                                 args=(child_conn, task),
                                 name=f"campaign-{task.run_id}-a{task.attempt}",
                                 daemon=True)
        proc.start()
        child_conn.close()
        now = time.monotonic()
        deadline = None if self.timeout is None else now + self.timeout
        return _Active(proc, parent_conn, task, deadline, now)

    def _reap(self, active: _Active):
        """Poll one worker; return (status, payload) once it is settled.

        status is ``None`` (still running), ``"ok"``, or a failure kind
        (``"error"``/``"crash"``/``"timeout"``) with a message payload.
        """
        # Liveness is sampled *before* the pipe: a worker that sends its
        # result and exits between the two samples is then seen as
        # running with a result, never as dead without one.
        alive = active.proc.is_alive()
        settled = None
        if active.conn.poll():
            try:
                settled = active.conn.recv()
            except EOFError:
                settled = None  # died between connect and send
        if settled is not None:
            active.proc.join(timeout=5)
            active.conn.close()
            return settled
        if not alive:
            active.proc.join()
            active.conn.close()
            return ("crash",
                    f"worker died without a result "
                    f"(exitcode {active.proc.exitcode})")
        if active.deadline is not None and time.monotonic() > active.deadline:
            active.proc.kill()
            active.proc.join(timeout=5)
            active.conn.close()
            return ("timeout",
                    f"attempt exceeded timeout of {self.timeout:g}s")
        return None

    @staticmethod
    def _sweep_orphans(active: List[_Active]) -> None:
        """Kill and join every still-running worker process.

        Runs on the abnormal exits of :meth:`run` (KeyboardInterrupt,
        unexpected orchestrator error) so a dying campaign never strands
        simulator processes: they are daemonic, but a long-lived caller
        — a fabric worker, a notebook — would otherwise accumulate live
        orphans burning CPU until *it* exits.
        """
        for worker in active:
            try:
                if worker.proc.is_alive():
                    worker.proc.terminate()
            except (OSError, ValueError):
                pass
        for worker in active:
            try:
                worker.proc.join(timeout=5)
                if worker.proc.is_alive():  # ignored terminate: force it
                    worker.proc.kill()
                    worker.proc.join(timeout=5)
            except (OSError, ValueError, AssertionError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
        active.clear()

    # -- the orchestration loop -----------------------------------------
    def run(self, tasks: Sequence[RunTask], callback=None) -> List[RunOutcome]:
        """Execute every task; returns outcomes in input order.

        On *any* exceptional exit — ``KeyboardInterrupt`` included —
        every in-flight worker process is terminated and joined before
        the exception propagates; an interrupted campaign leaves no
        orphaned simulators behind.
        """
        order = {task.run_id: i for i, task in enumerate(tasks)}
        # (ready_time, tiebreak, task) — backoff delays live in ready_time.
        ready: List = [(0.0, i, replace(task, attempt=1))
                       for i, task in enumerate(tasks)]
        heapq.heapify(ready)
        tiebreak = len(ready)
        active: List[_Active] = []
        first_start: Dict[str, float] = {}
        outcomes: Dict[str, RunOutcome] = {}

        try:
            while ready or active:
                now = time.monotonic()
                while (ready and len(active) < self.workers
                        and ready[0][0] <= now):
                    _, _, task = heapq.heappop(ready)
                    first_start.setdefault(task.run_id, now)
                    _emit(callback, {"event": "start", "run_id": task.run_id,
                                     "attempt": task.attempt})
                    active.append(self._launch(task))

                still_running: List[_Active] = []
                for worker in active:
                    settled = self._reap(worker)
                    if settled is None:
                        still_running.append(worker)
                        continue
                    status, payload = settled
                    task = worker.task
                    elapsed = time.monotonic() - first_start[task.run_id]
                    if status == "ok":
                        _emit(callback, {"event": "done",
                                         "run_id": task.run_id,
                                         "attempt": task.attempt,
                                         "duration": elapsed,
                                         "result": payload})
                        outcomes[task.run_id] = RunOutcome(
                            task.run_id, "done", result=payload,
                            attempts=task.attempt, duration=elapsed)
                        continue
                    message = (str(payload).strip().splitlines()[0]
                               if payload else status)
                    _emit(callback, {"event": "failed",
                                     "run_id": task.run_id,
                                     "attempt": task.attempt, "kind": status,
                                     "error": message})
                    if task.attempt <= self.retries:
                        delay = self.backoff * 2 ** (task.attempt - 1)
                        tiebreak += 1
                        heapq.heappush(
                            ready, (time.monotonic() + delay, tiebreak,
                                    replace(task, attempt=task.attempt + 1)))
                    else:
                        _emit(callback, {"event": "gave_up",
                                         "run_id": task.run_id,
                                         "attempts": task.attempt})
                        outcomes[task.run_id] = RunOutcome(
                            task.run_id, "failed", error=message,
                            attempts=task.attempt, duration=elapsed)
                active = still_running
                if active or (ready and ready[0][0] > time.monotonic()):
                    time.sleep(_POLL_S)
        except BaseException:
            # KeyboardInterrupt or an orchestrator bug: do not strand
            # in-flight simulator processes.
            self._sweep_orphans(active)
            raise

        return sorted(outcomes.values(), key=lambda o: order[o.run_id])
