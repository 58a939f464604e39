#!/usr/bin/env python3
"""The perf ledger: run the benchmark workloads and print their metrics.

    python3 perf/run.py --workload NAME|all [--seed N] [--seconds S]
                        [--trace 0|1] [--json OUT]
    python3 perf/run.py --repeat 2 --check-agreement
    python3 perf/run.py --selfcheck
    python3 perf/run.py --regen-golden

One workload runs in this process; ``all`` runs each workload in a
child process of its own, one after the other, so set-up time and peak
memory are each workload's own.  The last line of standard output of a
single-workload run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is non-zero
when any result differs from the worklist reference.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Fewest timed passes a run reports medians over.
MIN_PASSES = 3
SELFCHECK_SCALE = 0.05
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def _prepare_imports() -> None:
    """Make ``repro`` importable from this checkout, and only from it."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit(f"perf/run.py: no program to measure: "
                 f"{os.path.join(ROOT, 'src', 'repro')} is missing")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def _exit_on_sigterm() -> None:
    """Turn SIGTERM into a normal exit, so temp dirs and workers go too.

    Fork children inherit the handler but must not unwind a copy of
    this process's stack (its ``finally`` blocks delete the temp dir),
    so they leave at once.
    """
    owner = os.getpid()

    def handler(signum, frame):
        if os.getpid() != owner:
            os._exit(128 + signum)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, handler)


def reimport_s() -> float:
    """Import time of the program and the benchmark in a fresh interpreter.

    This process can import only once; the other set-ups of a run take
    their import sample from a child that does nothing else.
    """
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {ROOT!r}]; "
            "from perf import workloads; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          stdout=subprocess.PIPE, text=True, timeout=120)
    return float(done.stdout)


def manifest() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def best_quartile(seconds) -> float:
    """The lower quartile of pass times (the only pass, if there is one).

    Not the median: this host's noise only ever adds time and comes in
    spells of seconds to minutes.  Over ten runs the lower quartile of
    the passes moved half as much as their median (3.7 % against 7.9 %
    of quartile spread on construct_churn, 4.8 % against 11.4 % on
    solo_ooo), in a quiet hour as much.
    """
    seconds = list(seconds)
    if len(seconds) == 1:
        return seconds[0]
    return statistics.quantiles(seconds, n=4)[0]


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def load_golden(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


def verify(workload, passes, *, golden_ops):
    """Check every operation; returns (attempted, failed, notes).

    An operation fails when the program reported it failed, when two
    passes disagree on its digest, or when its digest differs from the
    reference: the golden file when it applies, and a live worklist
    re-run of ``workload.live_ops`` in every case.
    """
    seen = {}
    attempted = failed = 0
    for one in passes:
        for op, digest in one.ops.items():
            attempted += 1
            if digest is None or seen.setdefault(op, digest) != digest:
                failed += 1
                seen[op] = None
    notes = []
    expected = dict(golden_ops or {})
    if golden_ops is not None and not set(golden_ops) & set(seen):
        failed += 1
        notes.append("golden file holds none of this run's operations; "
                     "regenerate it with --regen-golden")
    live = workload.live_ops(sorted(seen), golden=golden_ops is not None)
    for op, digest in workload.reference(live).items():
        if expected.setdefault(op, digest) != digest:
            failed += 1
            notes.append(f"{op}: golden and live reference disagree")
    for op, digest in sorted(seen.items()):
        if digest is not None and op in expected and expected[op] != digest:
            failed += 1
            notes.append(f"{op}: digest {digest} != reference {expected[op]}")
    checked = sum(1 for op in seen if op in expected)
    notes.append(f"{checked} of {len(seen)} distinct operations checked "
                 f"against the worklist reference "
                 f"({'golden + ' if golden_ops is not None else ''}"
                 f"{len(live)} live)")
    return attempted, failed, notes


def measure(workload, tracer, seconds: float, trace: bool):
    """Set up and run timed passes; returns the raw samples.

    The untraced run spreads its ``SETUP_REPS`` set-ups evenly over the
    measuring time instead of doing them back to back, so that one slow
    spell of the host cannot shift every set-up and construction sample
    at once; before each set-up, outside its clock, it takes the
    workload's construction samples.  The traced run sets up once,
    discards a first pass (it pays one-time costs such as lazy imports,
    which would skew a single pair) and alternates untraced and traced
    passes for the tracing overhead; end-to-end metrics are only ever
    taken from a run whose tracer is off throughout.
    """
    setup_s, passes, traced_passes, warmup = [], [], [], []
    reps = 1 if trace else SETUP_REPS
    budget = seconds / 3 if trace else seconds   # probes take the rest
    began = time.perf_counter()
    unmeasured = 0.0        # set-ups and construction probes
    while True:
        spent = time.perf_counter() - began - unmeasured
        if len(setup_s) < reps and spent >= len(setup_s) * budget / reps:
            t0 = time.perf_counter()
            workload.unsetup()
            if not trace:
                workload.construct_probe()
            t1 = time.perf_counter()
            with tracer.span("setup"):
                workload.setup()
            setup_s.append(time.perf_counter() - t1)
            if trace:
                warmup.append(workload.one_pass())
            unmeasured += time.perf_counter() - t0
            continue
        if spent >= budget and len(passes) >= (1 if trace else MIN_PASSES):
            return setup_s, passes, traced_passes, warmup
        for traced in ((False, True) if trace else (False,)):
            tracer.enabled = traced
            gc.collect()    # no pass pays for the garbage of the one before
            with tracer.span("pass"):
                one = workload.one_pass()
            (traced_passes if traced else passes).append(one)
        tracer.enabled = trace


def run_workload(name: str, *, seed: int, seconds: float, trace: bool,
                 golden_path: str, import_s, scale: float = 1.0) -> dict:
    """Run one workload; returns the full record (see ``--json``).

    ``scale`` shrinks the workload for ``--selfcheck``; only a full-size
    run of seed 0 is checked against the golden file.
    """
    from perf import layers, workloads
    from perf.trace import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR)
    tracer = Tracer(name, enabled=trace)
    env = workloads.Env(seed, scale, tmp, tracer)
    workload = workloads.WORKLOADS[name](env)
    try:
        setup_s, passes, traced_passes, warmup = measure(
            workload, tracer, seconds, trace)
        rss_mb = peak_rss_mb()          # before the import children below
        if import_s is None:            # in-process self-check: not timed
            import_s = [0.0] * len(setup_s)
        elif not trace:                 # one import sample per set-up
            import_s = [import_s] + [reimport_s() for _ in setup_s[1:]]

        wall_s = best_quartile(p.elapsed_s for p in passes)
        if trace:
            overhead = (best_quartile(p.elapsed_s for p in traced_passes)
                        / wall_s)
            values = layers.probe(workload, wall_s=wall_s, overhead=overhead)
            tracer.write_chrome(os.path.join(OUT_DIR, f"trace_{name}.json"))
            listed = manifest()["per_layer"]
            unknown = set(values) - {m["name"] for m in listed}
            if unknown:
                raise KeyError(f"probe values that BENCHMARK.json does not "
                               f"list: {sorted(unknown)}")
            # A workload reports 0 for the layers it does not measure.
            metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                                   "unit": m["unit"]} for m in listed}
        else:
            # A design's construction time is the fastest of its repeats
            # (host noise only ever adds; a 3 ms build is hit whole or
            # not at all); the metric is the median over designs.
            cold = [min(v) for v in env.construct_ms["cold"].values()]
            warm = [min(v) for v in env.construct_ms["mem"].values()]
            measured = {
                "setup_s": statistics.median(
                    a + b for a, b in zip(import_s, setup_s)),
                "wall_s": wall_s,
                "steps_per_s": 1 / best_quartile(
                    p.elapsed_s / p.steps for p in passes),
                "construct_cold_ms_p50": statistics.median(cold),
                "construct_warm_ms_p50": statistics.median(warm),
                "peak_rss_mb": rss_mb,
            }
            metrics = {m["name"]: {"value": measured[m["name"]],
                                   "unit": m["unit"]}
                       for m in manifest()["end_to_end"]}

        use_golden = seed == 0 and scale == 1.0
        golden_ops = (load_golden(golden_path).get(name, {})
                      if use_golden else None)
        attempted, failed, notes = verify(
            workload, warmup + passes + traced_passes, golden_ops=golden_ops)
    finally:
        try:
            workload.unsetup()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    record = {"workload": name, "seed": seed, "trace": int(trace), "passes": len(passes),
              "reference": "golden" if use_golden else "live",
              "correct": failed == 0, "attempted": attempted,
              "failed": failed, "failed_share": failed / attempted,
              "metrics": metrics, "notes": notes}
    if trace:
        record["span_self_ms"] = tracer.self_ms()
    else:
        record["detail"] = {
            "construct_cold_ms_p90": workloads.p90(cold),
            "construct_warm_ms_p90": workloads.p90(warm),
            "designs": len(cold), "setup_s_samples": setup_s,
            "import_s_samples": import_s,
            "pass_wall_s": [p.elapsed_s for p in passes]}
    return record


def print_record(record: dict) -> None:
    print(f"# {record['workload']}  seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']} "
          f"reference={record['reference']}")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:16s} {name:44s} "
              f"{metric['value']:14.6g} {metric['unit']}")
    detail = record.get("detail", {})
    for key in ("construct_cold_ms_p90", "construct_warm_ms_p90"):
        if key in detail:
            print(f"{record['workload']:16s} {key:44s} {detail[key]:14.6g} "
                  f"ms (n={detail['designs']} designs)")
    print(f"{record['workload']:16s} {'failed_share':44s} "
          f"{record['failed_share']:14.6g} "
          f"({record['failed']}/{record['attempted']})")
    for note in record["notes"]:
        print(f"#   {note}")


# ----------------------------------------------------------------------
# Every workload, each in a child process
# ----------------------------------------------------------------------
def run_child(name: str, args) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    fd, path = tempfile.mkstemp(prefix="record-", suffix=".json", dir=OUT_DIR)
    os.close(fd)
    try:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--golden", args.golden, "--json", path]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        if not text:
            sys.stdout.write(proc.stdout)
            sys.exit(f"perf/run.py: workload {name} produced no record "
                     f"(exit {proc.returncode})")
        return json.loads(text)
    finally:
        os.unlink(path)


def run_set(args) -> dict:
    records = {}
    for name in (w["name"] for w in manifest()["workloads"]):
        records[name] = run_child(name, args)
        print_record(records[name])
    return records


def check_agreement(sets) -> bool:
    """Print metric x workload for two sets; False on a disagreement."""
    bounds = {m["name"]: m["bound"] for m in manifest()["end_to_end"]}
    first, second = sets[0], sets[1]
    agreed = True
    print(f"{'workload':16s} {'metric':24s} {'set 1':>12s} {'set 2':>12s} "
          f"{'rel diff':>9s} {'bound':>6s}")
    for name in first:
        for metric, bound in bounds.items():
            a = first[name]["metrics"][metric]["value"]
            b = second[name]["metrics"][metric]["value"]
            diff = abs(b - a) / a
            flag = "" if diff <= bound else "  DISAGREE"
            agreed = agreed and diff <= bound
            print(f"{name:16s} {metric:24s} {a:12.5g} {b:12.5g} "
                  f"{diff:9.3%} {bound:6.0%}{flag}")
    return agreed


# ----------------------------------------------------------------------
# Self-check and golden regeneration
# ----------------------------------------------------------------------
def selfcheck(args) -> int:
    """Every workload at 1/20 size: names, counts and correctness."""
    spec = manifest()
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    for group, limit in (("workloads", 8), ("end_to_end", 16),
                         ("per_layer", 128)):
        listed = [entry["name"] for entry in spec[group]]
        if len(listed) > limit:
            problems.append(f"{len(listed)} {group} > {limit}")
        if len(set(listed)) != len(listed):
            problems.append(f"duplicate names in {group}")
        problems += [f"bad name {n!r} in {group}" for n in listed
                     if not NAME_RE.match(n)]
    from perf import workloads
    if names != list(workloads.WORKLOADS):
        problems.append(f"workloads {list(workloads.WORKLOADS)} != "
                        f"BENCHMARK.json {names}")
    for name in names:
        for trace in (False, True):
            record = run_workload(
                name, seed=args.seed, seconds=0.0, trace=trace,
                golden_path=args.golden, import_s=None, scale=SELFCHECK_SCALE)
            group = "per_layer" if trace else "end_to_end"
            want = [m["name"] for m in spec[group]]
            if list(record["metrics"]) != want:
                problems.append(f"{name}: emitted {group} names differ")
            if not trace and any(m["value"] <= 0
                                 for m in record["metrics"].values()):
                problems.append(f"{name}: an end-to-end metric is not > 0")
            if not record["correct"]:
                problems.append(f"{name} trace={int(trace)}: "
                                f"{record['failed']} operations failed")
            print(f"selfcheck {name:16s} trace={int(trace)} "
                  f"attempted={record['attempted']} failed={record['failed']}")
    for problem in problems:
        print(f"selfcheck: {problem}")
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def regen_golden(args) -> int:
    """Reference digests for seed 0, from the worklist engine only."""
    from perf import workloads
    from perf.trace import Tracer
    os.makedirs(OUT_DIR, exist_ok=True)
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        tmp = tempfile.mkdtemp(prefix=f"golden-{name}-", dir=OUT_DIR)
        try:
            env = workloads.Env(0, 1.0, tmp, Tracer(name, enabled=False))
            env.fresh_cache()
            workload = cls(env)
            out[name] = workload.reference(workload.all_ops())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        print(f"golden {name:16s} {len(out[name])} operations")
    with open(args.golden, "w", encoding="utf-8") as handle:
        json.dump({"seed": 0, "engine": list(workloads.REFERENCE),
                   "workloads": out}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, which reports the "
                             "per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the full record(s) to OUT")
    parser.add_argument("--golden", default=GOLDEN,
                        help="reference digests for seed 0")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--check-agreement", action="store_true")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)

    _prepare_imports()
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    if args.regen_golden:
        return regen_golden(args)
    if args.selfcheck:
        return selfcheck(args)

    if args.workload != "all":
        _exit_on_sigterm()
        from perf import workloads  # noqa: F401 - importing is set-up
        record = run_workload(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), golden_path=args.golden,
            import_s=time.perf_counter() - _PROCESS_START)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
        print_record(record)
        print(json.dumps({key: record[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1

    sets = [run_set(args) for _ in range(args.repeat)]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(sets, handle, indent=1)
    correct = all(r["correct"] for one in sets for r in one.values())
    if args.check_agreement:
        if len(sets) < 2 or args.trace:
            sys.exit("--check-agreement needs --repeat 2 and an untraced run")
        correct = check_agreement(sets) and correct
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
