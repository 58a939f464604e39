"""The seven workloads of the perf ledger.

Every workload drives the program only through its public entry points
(see ``perf/README.md`` for the list) and has the same shape:

* ``setup()`` — what a user pays before the timed region (private
  cache, cold construction, warm-up, worker boot).  The harness calls
  it several times and reports the median, so it must be repeatable;
  ``unsetup()`` releases what one call made.
* ``construct_probe()`` — repeated cold and warm constructions of the
  workload's own design(s) for the ``construct_*`` metrics, taken
  outside the set-up clock.
* ``one_pass()`` — one timed unit of work.  The harness repeats passes
  until ``--seconds`` have gone by and reports medians over passes, so
  every pass does the same work.
* ``reference(op_ids)`` — the same operations under the worklist
  reference interpreter (opt 0, unbatched, inline), never under the
  engine being measured.

Sizes are the ISSUE's definition-time sizes scaled down so that one
pass takes 1-2 s and a whole run fits the driver's per-run budget; the
workload table in ``perf/README.md`` records each factor.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import os
import random
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro import (LSS, build_simulator, engine_names, library_env,
                   parse_lss)
from repro.campaign import Campaign, GridSweep
from repro.campaign.executor import RunTask, execute_task
from repro.core import compile_cache
from repro.fabric import (Coordinator, CoordinatorThread, FabricClient,
                          job_from_sweep, worker_main)
from repro.pcl import MemoryArray
from repro.systems import (build_fig2a_cmp, build_fig2b_sensors,
                           build_fig2c_grid, build_fig2d, build_stage)
from repro.upl import OoOCore, programs

#: The fast solo configuration.  If the engine name is ever folded away
#: the solo workloads run the default engine at the same opt level and
#: report ``config.engine_fallback = 1``.
FAST_SOLO = ("codegen", 2)
#: The oracle every digest is checked against.
REFERENCE = ("worklist", 0)

#: Cold (empty-cache) and warm (memory-hit) constructions per design in
#: one construction probe.  Fixed counts: how fast a build is must not
#: change how many of them a run makes.
COLD_BUILDS = 4
WARM_BUILDS = 10
#: Sweep points re-run live under the reference for a non-golden seed.
LIVE_SAMPLE = 8
#: Sweep points re-checked live even when the golden file applies.
GOLDEN_LIVE_SAMPLE = 2
#: Hard limit on joining fork workers and the coordinator thread.
REAP_TIMEOUT_S = 10.0

FIG2D_TARGET = "repro.systems.fig2d:build_fig2d"

class Pass(NamedTuple):
    """One timed pass: host seconds, simulated steps, op id -> digest.

    A digest of ``None`` marks an operation the program reported failed.
    """

    elapsed_s: float
    steps: int
    ops: Dict[str, Optional[str]]


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile."""
    return sorted(values)[int(0.9 * (len(values) - 1))]


def _digest(payload: Dict[str, Any]) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def sim_digest(sim, **extra) -> str:
    """Digest of everything a run's result is judged by."""
    return _digest(dict(extra, cycles=sim.now, transfers=sim.transfers_total,
                        relaxations=sim.relaxations_total,
                        stats=sim.stats.summary_dict()))


def result_digest(result: Optional[Dict[str, Any]]) -> Optional[str]:
    """The same digest from a campaign/fabric result payload."""
    if not result:
        return None
    return _digest({key: result.get(key) for key in
                    ("cycles", "transfers", "relaxations", "stats")})


def build_fast(spec, seed: int):
    """A simulator under ``FAST_SOLO`` (or the fallback, see above)."""
    engine, opt = FAST_SOLO
    if engine in engine_names():
        return build_simulator(spec, engine, opt=opt, seed=seed)
    return build_simulator(spec, opt=opt, seed=seed)


def build_reference(spec, seed: int):
    engine, opt = REFERENCE
    return build_simulator(spec, engine, opt=opt, seed=seed)


class Env:
    """What one run shares with its workload: seed, scale, temp dir."""

    def __init__(self, seed: int, scale: float, tmp: str, tracer):
        self.seed = seed
        self.scale = scale
        self.tmp = tmp
        self.tracer = tracer
        self._dirs = 0
        #: Construction samples in ms: phase -> design -> one per build.
        self.construct_ms: Dict[str, Dict[str, List[float]]] = {
            "cold": {}, "mem": {}}

    def scaled(self, n: int, floor: int = 1) -> int:
        return max(floor, int(round(n * self.scale)))

    def path(self, stem: str) -> str:
        self._dirs += 1
        return os.path.join(self.tmp, f"{stem}{self._dirs}")

    def fresh_cache(self):
        """Point the process-wide compile cache at a new empty dir."""
        return compile_cache.configure(enabled=True, disk_enabled=True,
                                       disk_dir=self.path("cache"))

    def sample_construct(self, design: str, make_spec: Callable[[], Any],
                         build: Callable[[Any], Any]) -> None:
        """Time ``COLD_BUILDS`` cold, then ``WARM_BUILDS`` warm builds.

        Spec building is outside the timing: the metric is spec ->
        ready-to-step.  Leaves the compile cache pointing at a dir of
        its own, so every ``setup()`` starts with ``fresh_cache()``.
        """
        cache = self.fresh_cache()
        for phase, builds in (("cold", COLD_BUILDS), ("mem", WARM_BUILDS)):
            samples = self.construct_ms[phase].setdefault(design, [])
            for _ in range(builds):
                if phase == "cold":
                    cache.clear()
                spec = make_spec()
                t0 = time.perf_counter()
                sim = build(spec)
                samples.append((time.perf_counter() - t0) * 1e3)
                sim.close()


class Workload:
    name = ""

    def __init__(self, env: Env):
        self.env = env

    def setup(self) -> None:
        raise NotImplementedError

    def unsetup(self) -> None:
        """Release what the last :meth:`setup` made, if anything."""

    def construct_probe(self) -> None:
        """Sample cold and warm construction of this workload's design(s).

        Feeds ``construct_*_ms_p50`` through ``env.sample_construct``.
        The harness calls it between ``unsetup()`` and ``setup()``,
        outside the set-up clock: these are builds no user pays for.
        """
        raise NotImplementedError

    def one_pass(self) -> Pass:
        raise NotImplementedError

    def all_ops(self) -> List[str]:
        """Every operation id a run can yield (``--regen-golden``)."""
        raise NotImplementedError

    def reference(self, op_ids: Sequence[str]) -> Dict[str, str]:
        raise NotImplementedError

    def live_ops(self, op_ids: Sequence[str], golden: bool) -> List[str]:
        """Which of ``op_ids`` to re-run live under the reference.

        ``golden`` says the golden file already covers this run; by
        default nothing more is re-run then, and everything otherwise.
        """
        return [] if golden else list(op_ids)


# ----------------------------------------------------------------------
# Solo workloads
# ----------------------------------------------------------------------
class SoloDetailed(Workload):
    """fig2d, detailed field and backend: the scalar signal layer.

    Every pass steps the same cycles of a freshly built simulator
    (warm-up, then ``PASS_WINDOWS`` windows), so passes do equal work
    and the one checkpoint they reach is re-run whole by the reference.
    Firmware stays active for ~25.9k cycles, far beyond a pass.
    """

    name = "solo_detailed"
    WARMUP = 200
    WINDOW = 100
    PASS_WINDOWS = 15

    def __init__(self, env: Env):
        super().__init__(env)
        self.windows = env.scaled(self.PASS_WINDOWS)
        self.warmup = env.scaled(self.WARMUP, floor=10)
        self.sim = None
        #: Modelled statistics at the checkpoint (repeat exactly).
        self.model: Dict[str, Dict[str, float]] = {}

    def make_spec(self):
        return build_fig2d(4, backend="detailed", field="detailed",
                           readings_per_node=1200, aggregate_every=4,
                           seed=self.env.seed)[0]

    def construct_probe(self) -> None:
        self.env.sample_construct(
            "fig2d", self.make_spec,
            lambda spec: build_fast(spec, self.env.seed))

    def _start(self) -> None:
        self.sim = build_fast(self.make_spec(), self.env.seed)
        self.sim.run(self.warmup)

    def setup(self) -> None:
        self.env.fresh_cache()
        self._start()

    def unsetup(self) -> None:
        if self.sim is not None:
            self.sim.close()
            self.sim = None

    def one_pass(self) -> Pass:
        if self.sim.now != self.warmup:     # the pass before used it up
            self.sim.close()
            self._start()
        sim = self.sim
        elapsed = 0.0
        for _ in range(self.windows):
            with self.env.tracer.span("engine.window"):
                t0 = time.perf_counter()
                sim.run(self.WINDOW)
                elapsed += time.perf_counter() - t0
        self.model["run"] = {"cycles": sim.now,
                             "transfers": sim.transfers_total}
        return Pass(elapsed, self.windows * self.WINDOW,
                    {f"run@{sim.now}": sim_digest(sim)})

    def all_ops(self) -> List[str]:
        return [f"run@{self.warmup + self.windows * self.WINDOW}"]

    def reference(self, op_ids) -> Dict[str, str]:
        out = {}
        for op in op_ids:
            sim = build_reference(self.make_spec(), self.env.seed)
            try:
                sim.run(int(op.split("@")[1]))
                out[op] = sim_digest(sim)
            finally:
                sim.close()
        return out


#: LibertyRISC programs of the OoO workload, ~11k cycles in total.
OOO_PROGRAMS = {
    "sieve": {"limit": 60},
    "ilp_chains": {"iters": 150},
    "memcpy": {"src": 1024, "dst": 2048, "words": 150},
    "vector_sum": {"base": 1024, "words": 200},
    "call_return": {"depth": 100, "stack": 4000},
}
_OOO_MEMORY = {1024 + i: 10 + i for i in range(512)}


class SoloOoo(Workload):
    """The out-of-order core running real programs: template bodies."""

    name = "solo_ooo"
    WINDOW = 500
    MAX_WINDOWS = 200

    def __init__(self, env: Env):
        super().__init__(env)
        self.programs = {
            name: programs.assemble_named(name, **{
                key: (value if key in ("src", "dst", "base", "stack")
                      else env.scaled(value, floor=4))
                for key, value in kw.items()})
            for name, kw in OOO_PROGRAMS.items()}
        #: Per-program modelled statistics of the last pass.
        self.model: Dict[str, Dict[str, float]] = {}

    def make(self, name: str):
        """``(spec, box)``; ``box[0]`` is the core's shared state."""
        box: list = []
        spec = LSS("ooo")
        core = spec.instance("core", OoOCore, program=self.programs[name],
                             n_alu=2, window_depth=16, rob_depth=32,
                             shared_out=box)
        mem = spec.instance("mem", MemoryArray, size=4096, latency=1,
                            init=dict(_OOO_MEMORY))
        spec.connect(core.port("dmem_req"), mem.port("req"))
        spec.connect(mem.port("resp"), core.port("dmem_resp"))
        return spec, box

    def construct_probe(self) -> None:
        for name in self.programs:
            self.env.sample_construct(
                name, lambda: self.make(name)[0],
                lambda spec: build_fast(spec, self.env.seed))

    def setup(self) -> None:
        # Cold construction of every program; passes then bind warm.
        self.env.fresh_cache()
        for name in self.programs:
            build_fast(self.make(name)[0], self.env.seed).close()

    def _run_to_halt(self, sim, shared) -> float:
        elapsed = 0.0
        for _ in range(self.MAX_WINDOWS):
            if shared.halted:
                break
            with self.env.tracer.span("engine.window"):
                t0 = time.perf_counter()
                sim.run(self.WINDOW)
                elapsed += time.perf_counter() - t0
        return elapsed

    def _digest(self, sim, shared) -> Optional[str]:
        if not shared.halted:
            return None
        return sim_digest(sim, halted_at=shared.halted_at,
                          committed=shared.committed, regs=list(shared.regs))

    def one_pass(self) -> Pass:
        elapsed, steps, ops = 0.0, 0, {}
        for name in self.programs:
            spec, box = self.make(name)
            sim = build_fast(spec, self.env.seed)
            try:
                elapsed += self._run_to_halt(sim, box[0])
                steps += sim.now
                ops[name] = self._digest(sim, box[0])
                self.model[name] = {
                    "cycles": box[0].halted_at or 0,
                    "committed": box[0].committed,
                    "transfers": sim.transfers_total}
            finally:
                sim.close()
        return Pass(elapsed, steps, ops)

    def all_ops(self) -> List[str]:
        return list(self.programs)

    def reference(self, op_ids) -> Dict[str, str]:
        out = {}
        for name in op_ids:
            spec, box = self.make(name)
            sim = build_reference(spec, self.env.seed)
            try:
                self._run_to_halt(sim, box[0])
                out[name] = self._digest(sim, box[0])
            finally:
                sim.close()
        return out


# ----------------------------------------------------------------------
# Construction churn
# ----------------------------------------------------------------------
def _lss_chain(n: int, rng: random.Random) -> str:
    """A generated textual LSS pipeline of ``n`` queues."""
    lines = [f"system chain{n};",
             f'instance src : Source(pattern="bernoulli", '
             f'rate={rng.uniform(0.5, 0.9):.3f}, seed={rng.randrange(1000)});']
    prev = "src.out"
    for i in range(n):
        lines.append(f"instance q{i} : Queue(depth={1 + rng.randrange(4)});")
        lines.append(f"connect {prev} -> q{i}.in;")
        prev = f"q{i}.out"
    lines.append(f'instance snk : Sink(accept="bernoulli", '
                 f'rate={rng.uniform(0.5, 0.9):.3f}, '
                 f'seed={rng.randrange(1000)});')
    lines.append(f"connect {prev} -> snk.in;")
    return "\n".join(lines)


def churn_designs(seed: int) -> List[tuple]:
    """24 structurally distinct ``(name, make_spec)`` pairs.

    The structures are fixed — stratified over the shipped families and
    their size ranges — so the metrics do not move with the seed; the
    seed draws what does not change a design's size (model seeds, rates,
    queue depths, memory images) and the order of construction.
    fig2d with a detailed backend over a statistical field is left out:
    the two tiers exchange different frame types and the model raises.
    """
    rng = random.Random(seed)
    env = library_env()
    designs: List[tuple] = []

    def add(name: str, make: Callable[[], Any]) -> None:
        designs.append((name, make))

    for w, h in ((2, 2), (3, 2), (3, 3)):
        words = rng.randrange(6, 11)
        add(f"fig2a_{w}x{h}", lambda w=w, h=h, words=words:
            build_fig2a_cmp(w, h, seg_words=words)[0])
    for n in (2, 4, 6, 8):
        s = rng.randrange(1000)
        add(f"fig2b_{n}", lambda n=n, s=s: build_fig2b_sensors(n, seed=s)[0])
    for n in (2, 4, 6, 8):
        words = rng.randrange(6, 11)
        add(f"fig2c_{n}", lambda n=n, words=words:
            build_fig2c_grid(n, k_words=words)[0])
    for n, backend, field in ((2, "statistical", "statistical"),
                              (12, "statistical", "statistical"),
                              (2, "detailed", "detailed"),
                              (4, "detailed", "detailed"),
                              (8, "detailed", "detailed"),
                              (4, "statistical", "detailed")):
        s = rng.randrange(1000)
        add(f"fig2d_{n}{backend[0]}{field[0]}",
            lambda n=n, backend=backend, field=field, s=s:
            build_fig2d(n, backend=backend, field=field, seed=s)[0])
    for stage in (1, 2, 3, 4, 5):
        add(f"stage{stage}", lambda stage=stage: build_stage(stage)[0])
    for n in (8, 32):
        text = _lss_chain(n, rng)
        add(f"lss{n}", lambda text=text: parse_lss(text, env))
    rng.shuffle(designs)
    return designs


class ConstructChurn(Workload):
    """Construct 24 designs cold, from disk and from memory."""

    name = "construct_churn"
    STEPS = 10
    PHASES = ("cold", "disk", "mem")

    def __init__(self, env: Env):
        super().__init__(env)
        self.designs = churn_designs(env.seed)
        self.designs = self.designs[:env.scaled(len(self.designs), floor=3)]

    def construct_probe(self) -> None:
        """Nothing to add: every pass times each design cold and warm."""

    def setup(self) -> None:
        self.env.fresh_cache()

    def one_pass(self) -> Pass:
        cache = compile_cache.get_cache()
        tracer = self.env.tracer
        lookups = dict(cache.stats)
        elapsed, steps, ops = 0.0, 0, {}
        for name, make in self.designs:
            digests = set()
            for phase in self.PHASES:
                if phase == "cold":
                    cache.clear()
                elif phase == "disk":
                    cache.clear(disk=False)
                # Collecting the previous design's garbage is not this
                # design's cost; left alone it lands on whichever design
                # the seed's order puts next (+30 ms on a 17 ms build).
                gc.collect()
                with tracer.span(f"churn.{phase}", design=name):
                    t0 = time.perf_counter()
                    spec = make()
                    t1 = time.perf_counter()
                    sim = build_fast(spec, self.env.seed)
                    t2 = time.perf_counter()
                    sim.run(self.STEPS)
                    elapsed += time.perf_counter() - t0
                if phase in self.env.construct_ms:
                    self.env.construct_ms[phase].setdefault(name, []).append(
                        (t2 - t1) * 1e3)
                steps += self.STEPS
                digests.add(sim_digest(sim))
                sim.close()
            # One operation per design: all three constructions must
            # simulate identically.
            ops[name] = digests.pop() if len(digests) == 1 else None
        #: Cache lookups of the last pass, by outcome.
        self.last_lookups = {key: cache.stats[key] - lookups[key]
                             for key in lookups}
        return Pass(elapsed, steps, ops)

    def all_ops(self) -> List[str]:
        return [name for name, _ in self.designs]

    def reference(self, op_ids) -> Dict[str, str]:
        makers = dict(self.designs)
        out = {}
        for name in op_ids:
            sim = build_reference(makers[name](), self.env.seed)
            try:
                sim.run(self.STEPS)
                out[name] = sim_digest(sim)
            finally:
                sim.close()
        return out


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class Sweep(Workload):
    """A fig2d parameter sweep; subclasses say how it is executed."""

    RATES = 16
    SEEDS = 2
    CYCLES = 0
    #: Engine and opt level the executing path builds each point with.
    ENGINE = "levelized"
    OPT: Optional[int] = 2

    def __init__(self, env: Env):
        super().__init__(env)
        self.cycles = env.scaled(self.CYCLES, floor=10)
        rates = env.scaled(self.RATES)
        self.sweep = GridSweep({
            "backend_rate": [round(0.10 + 0.05 * i, 2) for i in range(rates)],
            "aggregate_every": [2, 3, 4, 6],
            "seed": list(range(self.SEEDS)),
            "field": ["statistical"],
            "n_sensors": [8],
        }, base_seed=env.seed)
        self.points = {p.run_id: p for p in self.sweep.points()}
        self.passes = 0

    def construct_probe(self) -> None:
        first = next(iter(self.points.values()))
        self.env.sample_construct(
            "point0", lambda: build_fig2d(**first.params)[0],
            lambda spec: build_simulator(spec, self.ENGINE, opt=self.OPT,
                                         seed=first.seed))

    def setup(self) -> None:
        self.env.fresh_cache()

    def all_ops(self) -> List[str]:
        return list(self.points)

    def live_ops(self, op_ids, golden):
        k = GOLDEN_LIVE_SAMPLE if golden else LIVE_SAMPLE
        ids = sorted(op_ids)
        return random.Random(self.env.seed).sample(ids, min(k, len(ids)))

    def reference(self, op_ids) -> Dict[str, str]:
        engine, opt = REFERENCE
        out = {}
        for rid in op_ids:
            point = self.points[rid]
            out[rid] = result_digest(execute_task(RunTask(
                run_id=rid, index=point.index, params=dict(point.params),
                seed=point.seed, target=FIG2D_TARGET, kind="spec",
                engine=engine, opt=opt, cycles=self.cycles)))
        return out


class CampaignSweep(Sweep):
    """A sweep run by a local :class:`Campaign`.

    Every pass starts from an empty private compile cache, as the first
    ``repro campaign`` in a fresh checkout does, so passes are alike.
    ``retries`` stays at the Campaign default (1): with ``retries=0``
    about one point in 800 is reported failed by a race in
    ``ProcessExecutor._reap`` (see README, findings).
    """

    KWARGS: Dict[str, Any] = {}

    def campaign(self) -> Campaign:
        self.passes += 1
        self.ledger_path = os.path.join(
            self.env.tmp, f"{self.name}-{self.passes}.jsonl")
        return Campaign(self.name, self.sweep, target=FIG2D_TARGET,
                        kind="spec", workers=2, cycles=self.cycles,
                        ledger_path=self.ledger_path, **self.KWARGS)

    def one_pass(self) -> Pass:
        campaign = self.campaign()
        compile_cache.get_cache().clear()
        with self.env.tracer.span("campaign.run"):
            t0 = time.perf_counter()
            result = campaign.run()
            elapsed = time.perf_counter() - t0
        self.last_result = result
        ops = {row.run_id: (result_digest(row.result)
                            if row.status == "done" else None)
               for row in result.rows}
        return Pass(elapsed, len(ops) * self.cycles, ops)


class SweepBatch(CampaignSweep):
    """128 points in two 64-lane lockstep batches: the vec engine."""

    name = "sweep_batch"
    CYCLES = 400
    KWARGS = {"batch": True, "batch_max": 64, "opt": 2}


class SweepObserved(CampaignSweep):
    """The same batches with profilers attached: scalar lockstep."""

    name = "sweep_observed"
    CYCLES = 40
    KWARGS = {"batch": True, "batch_max": 64, "opt": 2, "profile": True}


class SweepPoints(CampaignSweep):
    """One fork per 50-cycle point: executor and ledger overhead."""

    name = "sweep_points"
    RATES = 8
    CYCLES = 50
    OPT = None


class SweepFabric(Sweep):
    """The sweep as a job on a loopback fabric with two fork workers."""

    name = "sweep_fabric"
    RATES = 4
    CYCLES = 100
    OPT = None
    WORKERS = 2

    def __init__(self, env: Env):
        super().__init__(env)
        self.hosted: Optional[CoordinatorThread] = None
        self.procs: List[Any] = []
        self.client: Optional[FabricClient] = None
        self.setups = 0

    def job(self, name: str, cycles: int):
        return job_from_sweep(name, self.sweep, target=FIG2D_TARGET,
                              batch_max=len(self.points), cycles=cycles,
                              retries=0, ledger_path=f"{name}.jsonl")

    def submit_and_wait(self, job) -> Dict[str, Any]:
        with self.env.tracer.span("fabric.client.submit"):
            reply = self.client.submit(job)
        self.last_submit = reply
        with self.env.tracer.span("fabric.client.wait"):
            return self.client.wait(reply["job_id"], timeout=120, poll=0.01)

    def setup(self) -> None:
        self.env.fresh_cache()
        self.ledger_dir = self.env.path("ledgers")
        self.coordinator = Coordinator(ledger_dir=self.ledger_dir)
        self.hosted = CoordinatorThread(self.coordinator).start()
        host, port = self.coordinator.host, self.coordinator.port
        # Fork, as ``repro serve --workers N`` does.  Workers run with
        # their defaults; the private cache dir stands for a remote
        # host, so compiled artifacts really cross the wire.
        ctx = multiprocessing.get_context("fork")
        self.procs = [ctx.Process(
            target=worker_main, args=(host, port),
            kwargs={"worker_id": f"w{i}",
                    "cache_dir": self.env.path("worker-cache")},
            daemon=True) for i in range(self.WORKERS)]
        for proc in self.procs:
            proc.start()
        self.client = FabricClient(host, port)
        # Prewarm: one-cycle job, so workers hold the artifacts.
        self.setups += 1
        self.submit_and_wait(self.job(f"warm{self.setups}", 1))

    def unsetup(self) -> None:
        if self.hosted is None:
            return
        # Draining lets idle workers exit by themselves at their next
        # poll; whoever is still there after that is terminated.
        self.client.shutdown()
        for proc in self.procs:
            proc.join(1.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(REAP_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join(REAP_TIMEOUT_S)
        self.procs = []
        self.hosted.stop()
        self.hosted = None

    def one_pass(self) -> Pass:
        self.passes += 1
        job = self.job(f"pass{self.passes}", self.cycles)
        self.ledger_path = os.path.join(self.ledger_dir, job.ledger_path)
        counters = self.coordinator.metrics.to_dict()["counters"]
        t0 = time.perf_counter()
        final = self.submit_and_wait(job)
        elapsed = time.perf_counter() - t0
        self.last_wall_s = elapsed
        after = self.coordinator.metrics.to_dict()["counters"]
        # Per-pass deltas; artifacts are only served while prewarming,
        # so that one counts from coordinator boot.
        self.last_counters = {
            name: after.get(f"fabric.{name}", 0)
            - (0 if name == "artifacts_served"
               else counters.get(f"fabric.{name}", 0))
            for name in ("leases_granted", "shards_split", "heartbeats",
                         "artifacts_served")}
        ops = {row["run_id"]: (result_digest(row.get("result"))
                               if row.get("status") == "done" else None)
               for row in final["rows"]}
        return Pass(elapsed, len(ops) * self.cycles, ops)


WORKLOADS = {cls.name: cls for cls in (
    SoloDetailed, SoloOoo, ConstructChurn, SweepBatch, SweepObserved,
    SweepPoints, SweepFabric)}
