"""``python -m repro {serve,submit,status,results,work}`` — the fabric CLI.

``serve`` stands up the coordinator (optionally with local worker
processes — a one-command loopback fabric); ``work`` attaches a worker
from any host that can reach the coordinator; ``submit`` queues a
sweep as a job and can wait for the merged results; ``status`` and
``results`` are the monitoring endpoints.  Many clients may submit
concurrently against one coordinator — jobs interleave in the shard
queue and every job keeps its own ledger.

Examples::

    python -m repro serve --port 7461 --workers 2
    python -m repro submit examples/pipeline.lss \
        --grid s1.depth=1,2,4,8 --connect 127.0.0.1:7461 --wait
    python -m repro status --connect 127.0.0.1:7461
    python -m repro results j1 --connect 127.0.0.1:7461
    python -m repro work --connect 10.0.0.5:7461   # from another host
"""

from __future__ import annotations

import os
import time
from typing import Tuple

from ..campaign.cli import add_sweep_arguments, sweep_from_args
from .client import FabricClient, job_from_sweep, result_from_rows
from .protocol import FabricError

#: Default coordinator port (overridable everywhere with --port/--connect).
DEFAULT_PORT = 7461


def _parse_connect(text: str) -> Tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        host, port = text, str(DEFAULT_PORT)
    try:
        return host, int(port)
    except ValueError:
        raise FabricError(
            f"--connect {text!r}: expected HOST or HOST:PORT") from None


# ----------------------------------------------------------------------
# Parsers
# ----------------------------------------------------------------------
def add_fabric_parsers(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve", help="run the fabric coordinator (job-submission service)",
        description="Start the distributed-campaign coordinator and "
                    "serve the fabric protocol until interrupted.")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1; use 0.0.0.0 "
                            "to accept remote workers)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"bind port (default {DEFAULT_PORT}; 0 picks "
                            f"an ephemeral port)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="also spawn N local worker processes "
                            "(default 0: workers attach separately)")
    serve.add_argument("--lease-timeout", type=float, default=10.0,
                       metavar="S", help="seconds without a heartbeat "
                                         "before a lease expires "
                                         "(default 10)")
    serve.add_argument("--ledger-dir", default=None, metavar="DIR",
                       help="directory for job ledgers (default: paths "
                            "as submitted)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync every ledger event (survive power "
                            "loss, not just crashes)")

    work = subparsers.add_parser(
        "work", help="attach a fabric worker to a coordinator",
        description="Run one worker loop: lease shards, fetch compiled "
                    "artifacts, execute, report results.")
    work.add_argument("--connect", required=True, metavar="HOST:PORT",
                      help="coordinator address")
    work.add_argument("--id", default=None, metavar="NAME",
                      help="worker id (default hostname:pid)")
    work.add_argument("--poll", type=float, default=0.2, metavar="S",
                      help="how long one lease request waits for work "
                           "before an idle reply, in seconds (default 0.2)")
    work.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="private on-disk compile-cache directory")
    work.add_argument("--idle-exit", type=int, default=None, metavar="N",
                      help="exit after N consecutive idle polls "
                           "(default: keep polling)")

    submit = subparsers.add_parser(
        "submit", help="submit a sweep to a fabric coordinator",
        description="Materialize a parameter sweep and queue it as a "
                    "fabric job; with --wait, block for merged results.")
    add_sweep_arguments(submit)
    submit.add_argument("--connect", required=True, metavar="HOST:PORT")
    submit.add_argument("--retries", type=int, default=2,
                        help="re-dispatches granted to a failed or "
                             "expired shard (default 2)")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job settles and print the "
                             "result table")
    submit.add_argument("--timeout", type=float, default=3600.0,
                        help="--wait limit in seconds (default 3600)")

    status = subparsers.add_parser(
        "status", help="show fabric coordinator / job status")
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--connect", required=True, metavar="HOST:PORT")

    results = subparsers.add_parser(
        "results", help="fetch a fabric job's merged results")
    results.add_argument("job_id")
    results.add_argument("--connect", required=True, metavar="HOST:PORT")
    results.add_argument("--metrics", default="",
                         help="comma-separated metric columns")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def run_serve_command(args) -> int:
    from .coordinator import Coordinator, CoordinatorThread
    coordinator = Coordinator(args.host, args.port,
                              lease_timeout=args.lease_timeout,
                              ledger_dir=args.ledger_dir,
                              ledger_fsync=args.fsync)
    hosted = CoordinatorThread(coordinator)
    hosted.start()
    print(f"# fabric coordinator listening on "
          f"{coordinator.host}:{coordinator.port}", flush=True)
    workers = []
    if args.workers:
        import multiprocessing
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        from .worker import worker_main
        for i in range(args.workers):
            proc = ctx.Process(
                target=worker_main,
                args=(coordinator.host, coordinator.port),
                kwargs={"worker_id": f"local-{i}"},
                name=f"fabric-worker-{i}", daemon=True)
            proc.start()
            workers.append(proc)
        print(f"# spawned {len(workers)} local worker(s)", flush=True)
    try:
        while True:
            time.sleep(0.5)
    except KeyboardInterrupt:
        print("# shutting down")
        return 0
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            proc.join(timeout=5)
        hosted.stop()


def run_work_command(args) -> int:
    from .worker import worker_main
    host, port = _parse_connect(args.connect)
    stats = worker_main(host, port, worker_id=args.id,
                        cache_dir=args.cache_dir, poll=args.poll,
                        idle_exit_after=args.idle_exit)
    print(f"# worker done: {stats['shards_done']} shard(s), "
          f"{stats['points']} point(s), "
          f"{stats['artifacts_installed']} artifact(s) installed")
    return 0


def run_submit_command(args) -> int:
    sweep, kw = sweep_from_args(args, "submit")
    name = args.name
    if name is None:
        name = (os.path.splitext(os.path.basename(args.spec))[0]
                if args.spec else "fabric")
    job = job_from_sweep(name, sweep, retries=args.retries,
                         ledger_path=args.ledger, **kw)
    host, port = _parse_connect(args.connect)
    client = FabricClient(host, port)
    reply = client.submit(job, resume=args.resume)
    print(f"# submitted {reply['job_id']}: {reply['points']} point(s) in "
          f"{reply['shards']} shard(s), {reply['resumed']} already done, "
          f"ledger {reply['ledger_path']}")
    if not args.wait:
        return 0
    final = client.wait(reply["job_id"], timeout=args.timeout)
    result = result_from_rows(name, final["rows"])
    print(result.summary())
    print(result.table(metrics=[m for m in args.metrics.split(",") if m]))
    return 0 if not result.failed else 1


def run_status_command(args) -> int:
    host, port = _parse_connect(args.connect)
    reply = FabricClient(host, port).status(args.job_id)
    metrics = reply.get("metrics", {})
    gauges = metrics.get("gauges", {})
    counters = metrics.get("counters", {})
    print(f"# queue depth {reply.get('queue_depth', 0)}, "
          f"{len(reply.get('leases', []))} active lease(s), "
          f"{counters.get('fabric.leases_granted', 0):g} granted / "
          f"{counters.get('fabric.leases_expired', 0):g} expired, "
          f"{counters.get('fabric.duplicate_completions', 0):g} duplicate "
          f"completion(s)")
    for lease in reply.get("leases", []):
        print(f"  lease {lease['lease_id']}: {lease['shard_id']} -> "
              f"{lease['worker']}")
    jobs = ([reply["job"]] if "job" in reply else reply.get("jobs", []))
    for job in jobs:
        print(f"  {job['job_id']} {job['name']!r}: {job['state']} — "
              f"{job['done']}/{job['points']} done, "
              f"{job['failed']} failed, {job['pending']} pending "
              f"({job['outstanding_shards']} shard(s) outstanding)")
    timers = metrics.get("timers", {})
    latency = timers.get("fabric.shard_latency")
    if latency and latency.get("count"):
        print(f"  shard latency: n={latency['count']} "
              f"mean={latency['mean_ns'] / 1e6:.1f}ms "
              f"max={latency['max_ns'] / 1e6:.1f}ms")
    _ = gauges  # gauges are folded into the headline counts above
    return 0


def run_results_command(args) -> int:
    host, port = _parse_connect(args.connect)
    client = FabricClient(host, port)
    reply = client.results(args.job_id)
    result = result_from_rows(args.job_id, reply["rows"])
    print(result.summary())
    print(result.table(metrics=[m for m in args.metrics.split(",") if m]))
    return 0 if not result.failed else 1
