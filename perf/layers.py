"""Per-layer metrics of the traced run.

``BENCHMARK.json`` lists every layer metric with its unit and direction;
the table in ``perf/README.md`` says which end-to-end metric each one
should move, on which workload, and which workloads measure it.

The probes time calls into the program's public functions from outside
— nothing under ``src/`` is patched — so a stage that is only reachable
through a larger call is derived by subtracting the stages measured
separately (noted at each formula; these are estimates, and have no
regression bound).
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

from repro import (build_design, build_simulator, compile_model, elaborate,
                   engine_names)
from repro.campaign import Ledger
from repro.campaign.executor import RunTask, execute_task
from repro.core import compile_cache
from repro.core.backends import resolve_engine
from repro.core.ir import CompileOptions
from repro.core.opt.pipeline import optimize_model, react_calls
from repro.core.optimize import build_schedule, build_signal_graph
from repro.core.typesys import infer_types
from repro.fabric import (export_artifact, install_artifact, one_shot,
                          plan_shards)
from repro.fabric.protocol import decode_body, encode_message
from repro.obs import Profiler
from repro.systems import build_fig2d

from . import workloads as wl

SOLO = ("solo_detailed", "solo_ooo")
CAMPAIGNS = ("sweep_batch", "sweep_observed", "sweep_points")
SOLO_ENGINES = ("worklist", "levelized", "codegen")
LANE_COUNTS = (2, 16, 64, 128)

#: Source path fragment -> share group, first match wins.
SHARE_GROUPS = (
    ("core/signals.py", "share.core.signals"),
    ("core/ports.py", "share.core.ports"),
    ("core/engine.py", "share.core.engine"),
    ("core/optimize.py", "share.core.optimize"),
    ("core/codegen.py", "share.core.codegen"),
    ("<generated", "share.core.codegen"),
    ("core/control.py", "share.core.control"),
    ("core/collector.py", "share.core.collector"),
    ("core/vec.py", "share.core.vec"),
    ("core/batched", "share.core.vec"),
    ("repro/pcl/", "share.pcl"),
    ("repro/upl/", "share.upl"),
    ("repro/nil/", "share.nil"),
    ("repro/ccl/", "share.ccl"),
    ("repro/mpl/", "share.mpl"),
)
SHARE_NAMES = tuple(dict.fromkeys(g for _, g in SHARE_GROUPS)) + ("share.other",)


def _timed(fn: Callable[[], Any]):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# ----------------------------------------------------------------------
# Construction stages (construct_churn)
# ----------------------------------------------------------------------
def _construct_stages(workload) -> Dict[str, float]:
    """Time each public construction stage on every churn design.

    Values are means per design, in ms.  Each stage gets a freshly
    built spec/design, so no call sees state another one left behind.
    """
    tracer = workload.env.tracer
    span = tracer.span
    fast_opt = wl.FAST_SOLO[1]
    counts = defaultdict(list)
    # A collection landing inside one short stage would be charged to it.
    gc.collect()
    gc.disable()
    try:
        for name, make in workload.designs:
            cache = workload.env.fresh_cache()
            build_design(make())    # first-call costs are not a stage's own
            with span("core.parser.parse" if name.startswith("lss")
                      else "systems.build_spec", design=name):
                spec = make()
            with span("core.constructor.elaborate"):
                flat = elaborate(spec)
            with span("core.typesys.infer"):
                infer_types(flat.connections)
            spec = make()
            with span("core.constructor.build_design"):
                design = build_design(spec)
            with span("core.compile_cache.fingerprint"):
                compile_cache.design_fingerprint(design)
            with span("core.optimize.signal_graph"):
                graph = build_signal_graph(design)
            with span("core.optimize.schedule"):
                schedule = build_schedule(design, graph=graph)
            counts["before"].append(react_calls(schedule))
            for level in (1, 2):
                design = build_design(make())
                graph = build_signal_graph(design)
                schedule = build_schedule(design, graph=graph)
                with span(f"core.opt.pipeline_l{level}"):
                    result = optimize_model(design, level=level, graph=graph,
                                            schedule=schedule)
            counts["after"].append(react_calls(result.schedule))

            # The same stages as compile_model runs them, cache-aware.
            stepper = CompileOptions(opt_level=fast_opt, need_stepper=True)
            for stage, options in (
                    ("compile.base_cold", CompileOptions()),
                    # base entry warm:
                    ("compile.opt_cold", CompileOptions(opt_level=fast_opt)),
                    # opt entry warm, no stepper yet:
                    ("compile.stepper_attach", stepper),
                    # opt entry warm, no plan yet:
                    ("compile.vec_cold",
                     CompileOptions(opt_level=fast_opt, vec=True)),
                    # everything warm:
                    ("compile.hit", stepper)):
                design = build_design(make())
                with span(stage):
                    hit = compile_model(design, options)
            spec = make()
            with span("construct.warm"):
                sim = wl.build_fast(spec, workload.env.seed)
            sim.close()
            key = hit.model.fingerprint
            with span("core.compile_cache.store"):
                cache.store(hit.model)
            with span("core.compile_cache.lookup_mem"):
                cache.lookup(key)
            cache.clear(disk=False)
            with span("core.compile_cache.lookup_disk"):
                cache.lookup(key)
            files = [os.path.join(cache.disk_dir, f)
                     for f in os.listdir(cache.disk_dir)]
            counts["entry_kb"].append(
                sum(os.path.getsize(f) for f in files) / 1024 / len(files))
    finally:
        gc.enable()

    n = len(workload.designs)
    per_design = {name: sum(tracer.durations_ms(name)) / n for name in (
        "systems.build_spec", "core.parser.parse",
        "core.constructor.elaborate", "core.typesys.infer",
        "core.constructor.build_design", "core.compile_cache.fingerprint",
        "core.optimize.signal_graph", "core.optimize.schedule",
        "core.opt.pipeline_l1", "core.opt.pipeline_l2",
        "compile.base_cold", "compile.opt_cold", "compile.stepper_attach",
        "compile.hit", "compile.vec_cold", "construct.warm",
        "core.compile_cache.store",
        "core.compile_cache.lookup_mem", "core.compile_cache.lookup_disk")}
    ms = per_design.__getitem__
    out = {f"{name}_ms": value for name, value in per_design.items()
           if not name.startswith(("compile.", "construct."))}
    del out["core.constructor.build_design_ms"]
    out.update({
        # build_design self: the wiring phase.
        "core.constructor.wire_ms": ms("core.constructor.build_design")
        - ms("core.constructor.elaborate") - ms("core.typesys.infer"),
        # compile_model(opt 0) on an empty cache, minus the stages above.
        "core.ir.compile_base_ms": ms("compile.base_cold")
        - ms("core.compile_cache.fingerprint")
        - ms("core.optimize.signal_graph") - ms("core.optimize.schedule")
        - ms("core.compile_cache.store"),
        # The opt stage as compile_model runs it (passes + lowering).
        "core.opt.pipeline_ms": ms("compile.opt_cold") - ms("compile.hit")
        - ms("core.compile_cache.store"),
        "core.codegen.stepper_ms": ms("compile.stepper_attach")
        - ms("compile.hit") - ms("core.compile_cache.store"),
        "core.vec.plan_ms": ms("compile.vec_cold") - ms("compile.hit")
        - ms("core.compile_cache.store"),
        "core.ir.bind_ms": ms("compile.hit")
        - ms("core.compile_cache.fingerprint")
        - ms("core.compile_cache.lookup_mem"),
        # build_simulator on a memory-warm cache, minus the stages above.
        "core.engine.init_ms": ms("construct.warm")
        - ms("core.constructor.build_design") - ms("compile.hit"),
        "core.opt.react_calls_before": sum(counts["before"]),
        "core.opt.react_calls_after": sum(counts["after"]),
        "core.compile_cache.entry_kb": statistics.fmean(counts["entry_kb"]),
    })
    return out


# ----------------------------------------------------------------------
# Stepping (solo workloads)
# ----------------------------------------------------------------------
def _shares(fn: Callable[[], Any]) -> Dict[str, float]:
    """Self-time share per module group under cProfile around ``fn``.

    A builtin's time goes to the group of the function that called it.
    """
    def group(filename: str) -> str:
        filename = filename.replace(os.sep, "/")
        for fragment, name in SHARE_GROUPS:
            if fragment in filename:
                return name
        return "share.other"

    profile = cProfile.Profile()
    profile.enable()
    fn()
    profile.disable()
    totals: Dict[str, float] = dict.fromkeys(SHARE_NAMES, 0.0)
    for (filename, _, _), (_, _, own, _, callers) in \
            pstats.Stats(profile).stats.items():
        if filename == "~" and callers:
            for (caller_file, _, _), (_, _, caller_own, _) in callers.items():
                totals[group(caller_file)] += caller_own
        else:
            totals[group(filename)] += own
    whole = sum(totals.values())
    return {name: value / whole for name, value in totals.items()}


def _solo_probe(workload) -> Dict[str, float]:
    env = workload.env
    seed = env.seed
    if workload.name == "solo_ooo":
        def make_spec():
            return workload.make("sieve")[0]
        window = env.scaled(1500, floor=50)
    else:
        make_spec = workload.make_spec
        window = env.scaled(300, floor=50)
    warmup = env.scaled(200, floor=10)

    def rate(sim, prepare=None) -> float:
        try:
            sim.run(warmup)
            if prepare is not None:
                prepare(sim)
            with env.tracer.span("probe.window"):
                elapsed, _ = _timed(lambda: sim.run(window))
            return window / elapsed
        finally:
            sim.close()

    out: Dict[str, float] = {}
    for engine in SOLO_ENGINES:
        for opt in (0, 2):
            if engine in engine_names():
                out[f"engine.{engine}.opt{opt}.steps_per_s"] = rate(
                    build_simulator(make_spec(), engine, opt=opt, seed=seed))

    windows = env.tracer.durations_ms("engine.window")
    out["engine.window_ms_p50"] = statistics.median(windows)
    out["engine.window_ms_p90"] = wl.p90(windows)

    def probe_all(sim):
        for wire in sim.design.wires:
            if wire.src is not None and wire.dst is not None:
                sim.probe(wire)

    bare = rate(wl.build_fast(make_spec(), seed))
    out["obs.probe_steps_ratio"] = rate(
        wl.build_fast(make_spec(), seed), probe_all) / bare
    out["obs.profiler_steps_ratio"] = rate(
        wl.build_fast(make_spec(), seed),
        lambda sim: Profiler(sim, sample_every=4)) / bare

    sim = wl.build_fast(make_spec(), seed)
    try:
        sim.run(warmup)
        out.update(_shares(lambda: sim.run(window)))
        profiler = Profiler(sim, sample_every=1)
        sim.run(window)
        summary = profiler.summary_dict(top=0)
        profiler.detach()
        out.update({
            "engine.react_calls_per_step": summary["reacts"] / summary["steps"],
            "engine.transfers_per_step":
                summary["transfers"] / summary["steps"],
            "engine.relaxations": sim.relaxations_total,
            # 0 on every shipped system: none has a combinational cluster.
            "engine.fallback_steps": getattr(sim, "fallback_steps", 0),
            "design.leaves": len(sim.design.leaves),
            "design.wires": len(sim.design.wires),
            "design.stub_wires": len(sim.design.stub_wires),
            "design.schedule_entries": len(getattr(sim, "schedule", ())),
        })
        if workload.name == "solo_ooo":
            # fig2d-detailed cannot be checkpointed (its custom Source
            # holds a generator), so checkpoint cost is measured here.
            elapsed, state = _timed(sim.state_dict)
            out["core.engine.state_dict_ms"] = elapsed * 1e3
            elapsed, _ = _timed(lambda: sim.load_state_dict(state))
            out["core.engine.load_state_dict_ms"] = elapsed * 1e3
    finally:
        sim.close()

    model = workload.model
    out["model.cycles"] = sum(m["cycles"] for m in model.values())
    out["model.transfers"] = sum(m["transfers"] for m in model.values())
    if workload.name == "solo_ooo":
        out["model.committed"] = sum(m["committed"] for m in model.values())
        out["model.ipc"] = out["model.committed"] / out["model.cycles"]
        for program, m in model.items():
            out[f"model.{program}.cycles"] = m["cycles"]
            out[f"model.{program}.committed"] = m["committed"]
    return out


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _campaign_probe(workload, wall_s: float) -> Dict[str, float]:
    """What ``Campaign.run`` does, piece by piece and inline."""
    env = workload.env
    span = env.tracer.span
    sweep = workload.sweep
    with span("campaign.sweep.points"):
        elapsed, points = _timed(sweep.points)
    out = {"campaign.sweep.points_ms": elapsed * 1e3}

    # Parent side: one spec + design + fingerprint per point.
    def group():
        for point in points:
            compile_cache.design_fingerprint(
                build_design(build_fig2d(**point.params)[0]))
    with span("campaign.group"):
        out["campaign.group_ms"] = _timed(group)[0] * 1e3

    # Worker side: the tasks the campaign dispatches, run inline.
    kw = workload.KWARGS
    common = dict(target=wl.FIG2D_TARGET, opt=kw.get("opt"),
                  cycles=workload.cycles, profile=kw.get("profile", False))
    if kw.get("batch"):
        lanes = [{"run_id": p.run_id, "index": p.index, "params": p.params,
                  "seed": p.seed} for p in points]
        size = kw["batch_max"]
        tasks = [RunTask(run_id=f"batch{k}", index=k, params={},
                         seed=lanes[k]["seed"], kind="batch",
                         batch_kind="spec", points=lanes[k:k + size], **common)
                 for k in range(0, len(lanes), size)]
    else:
        tasks = [RunTask(run_id=p.run_id, index=p.index, params=p.params,
                         seed=p.seed, kind="spec", **common) for p in points]
    task_s = 0.0
    for task in tasks:
        with span("campaign.executor.task"):
            task_s += _timed(lambda: execute_task(task))[0]
    out["campaign.executor.task_s"] = task_s
    out["campaign.dispatch_ms_per_point"] = (
        (wall_s * 2 - task_s) / len(points) * 1e3)
    out["campaign.executor.retried_points"] = sum(
        1 for row in workload.last_result.rows if row.attempts > 1)

    out["campaign.ledger.kb_per_point"] = (
        os.path.getsize(workload.ledger_path) / 1024 / len(points))
    done = {"event": "done", "run_id": "probe", "attempt": 1, "duration": 0.1,
            "result": workload.last_result.rows[0].result}
    records = 200
    with Ledger(os.path.join(env.tmp, "probe.jsonl")).open() as ledger:
        with span("campaign.ledger.record"):
            elapsed, _ = _timed(
                lambda: [ledger.record(done) for _ in range(records)])
    out["campaign.ledger.record_us"] = elapsed / records * 1e6
    return out


def _lane_probe(workload) -> Dict[str, float]:
    """The batched engines alone: lane scaling, coverage, observation."""
    env = workload.env
    points = list(workload.points.values())
    cycles = env.scaled(200, floor=10)
    out: Dict[str, float] = {}

    def batch(engine: str, n: int):
        chosen = [points[i % len(points)] for i in range(n)]
        designs = [build_design(build_fig2d(**p.params)[0]) for p in chosen]
        with env.tracer.span(f"{engine}.construct", lanes=n):
            elapsed, sim = _timed(lambda: resolve_engine(engine)(
                designs, seeds=[p.seed for p in chosen], opt=2))
        return elapsed, sim

    def lane_rate(sim, n: int, steps: int) -> float:
        with env.tracer.span("batched.run", lanes=n):
            elapsed, _ = _timed(lambda: sim.run(steps))
        return n * steps / elapsed

    for n in LANE_COUNTS:
        elapsed, sim = batch("batched-vec", n)
        try:
            out[f"core.batched_vec.lanes{n}.lane_steps_per_s"] = lane_rate(
                sim, n, cycles)
            if n == 64:
                out["core.batched_vec.construct_ms"] = elapsed * 1e3
                plan = sim.vec_plan
                vec = plan.n_wires if plan else 0
                demoted = len(plan.demotions) if plan else 0
                out["core.vec.coverage"] = vec / max(1, vec + demoted)
                out["core.vec.demoted"] = demoted
                out["core.vec.fallback_steps"] = sim.fallback_steps
                out["core.vec.plan_adopted"] = int(
                    plan is not None and plan.origin == "adopted")
                out.update(_shares(lambda: sim.run(cycles)))
        finally:
            sim.close()

    few = max(10, cycles // 4)   # the scalar paths are ~10x slower
    _, sim = batch("batched", 64)
    try:
        out["core.batched.lanes64.lane_steps_per_s"] = lane_rate(sim, 64, few)
    finally:
        sim.close()
    _, sim = batch("batched-vec", 64)
    try:
        for i in range(64):
            Profiler(sim.lane(i), sample_every=4)
        out["obs.batch_profile_ratio"] = (
            lane_rate(sim, 64, few)
            / out["core.batched_vec.lanes64.lane_steps_per_s"])
    finally:
        sim.close()
    return out


# ----------------------------------------------------------------------
# Fabric
# ----------------------------------------------------------------------
def _fabric_probe(workload) -> Dict[str, float]:
    env = workload.env
    span = env.tracer.span
    host, port = workload.coordinator.host, workload.coordinator.port
    out: Dict[str, float] = {}

    rtts = []
    for _ in range(200):
        with span("fabric.protocol.rtt"):
            rtts.append(_timed(
                lambda: one_shot(host, port, {"type": "status"}))[0])
    out["fabric.protocol.rtt_us"] = statistics.median(rtts) * 1e6

    # The last pass, from its ledger: one completion per lease, and
    # every lane of a completion carries that lease's elapsed time.
    runs = Ledger.load(workload.ledger_path).runs
    lanes_by_elapsed: Dict[float, int] = defaultdict(int)
    for run in runs.values():
        lanes_by_elapsed[run.duration] += 1
    busy = sum(lanes_by_elapsed)          # one key per lease
    pass_wall = workload.last_wall_s
    out.update({
        "fabric.lanes_per_lease_p50":
            statistics.median(lanes_by_elapsed.values()),
        "fabric.worker.busy_share": busy / (workload.WORKERS * pass_wall),
        "fabric.overhead_s": pass_wall - busy / workload.WORKERS,
        "fabric.ledger.kb": os.path.getsize(workload.ledger_path) / 1024,
        "fabric.client.submit_ms": statistics.median(
            env.tracer.durations_ms("fabric.client.submit")),
    })
    for name, value in workload.last_counters.items():
        out[f"fabric.coordinator.{name}"] = value

    completion = {"type": "complete", "lease_id": "l1", "shard_id": "s1",
                  "job_id": "j1", "elapsed": 0.1,
                  "lanes": {rid: {"ok": True, "result": run.result}
                            for rid, run in runs.items()}}
    reps = 20
    frame = encode_message(completion)
    with span("fabric.protocol.codec"):
        elapsed, _ = _timed(lambda: [
            decode_body(encode_message(completion)[4:])
            for _ in range(reps)])
    out["fabric.protocol.codec_mb_per_s"] = len(frame) * reps / elapsed / 1e6

    job = workload.job("probe", workload.cycles)
    with span("fabric.shards.plan"):
        elapsed, plan = _timed(lambda: plan_shards(job, "probe"))
    out["fabric.shards.plan_ms"] = elapsed * 1e3
    with span("fabric.artifacts.export"):
        elapsed, blobs = _timed(
            lambda: [export_artifact(key) for key in plan.fingerprints])
    blobs = [blob for blob in blobs if blob is not None]
    out["fabric.artifacts.export_ms"] = elapsed * 1e3
    out["fabric.artifacts.kb"] = sum(len(b["blob"]) for b in blobs) / 1024
    env.fresh_cache()   # a worker that has none of them yet
    with span("fabric.artifacts.install"):
        out["fabric.artifacts.install_ms"] = _timed(
            lambda: [install_artifact(blob) for blob in blobs])[0] * 1e3
    return out


# ----------------------------------------------------------------------
def probe(workload, *, wall_s: float, overhead: float) -> Dict[str, float]:
    """Every per-layer value this workload's traced run measures."""
    out = {"trace.overhead_ratio": overhead,
           "config.engine_fallback": int(
               wl.FAST_SOLO[0] not in engine_names()),
           "host.nproc": os.cpu_count() or 1}
    name = workload.name
    if name == "construct_churn":
        lookups = workload.last_lookups
        hits = lookups["memory_hits"] + lookups["disk_hits"]
        out["core.compile_cache.hit_ratio"] = hits / (hits + lookups["misses"])
        out.update(_construct_stages(workload))
    elif name in SOLO:
        out.update(_solo_probe(workload))
    elif name in CAMPAIGNS:
        out.update(_campaign_probe(workload, wall_s))
        if name == "sweep_batch":
            out.update(_lane_probe(workload))
    elif name == "sweep_fabric":
        out.update(_fabric_probe(workload))
    return {key: float(value) for key, value in out.items()}
