"""``python -m repro campaign`` — launch, resume, and report campaigns.

Sweeps a textual LSS specification: each ``--grid inst.param=v1,v2,...``
axis overrides one instance parameter, the cross product of all axes is
the campaign, and every point runs in its own worker process.  The
ledger is the durable record: re-invoking with ``--resume`` executes
only the points without a recorded completion, and ``--report`` prints
the aggregate table from the ledger without running anything.

Examples::

    python -m repro campaign examples/pipeline.lss \
        --grid s1.depth=1,2,4,8 --grid src.rate=0.3,0.9 \
        --cycles 2000 --workers 4 --ledger pipe.jsonl
    python -m repro campaign examples/pipeline.lss \
        --grid s1.depth=1,2,4,8 --grid src.rate=0.3,0.9 \
        --cycles 2000 --ledger pipe.jsonl --resume
    python -m repro campaign --ledger pipe.jsonl --report
"""

from __future__ import annotations

import argparse
import os
from typing import Any, Dict, List, Tuple

from .campaign import Campaign, result_from_ledger
from .errors import CampaignError
from .ledger import Ledger
from .sweep import GridSweep


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """The arguments ``campaign`` and ``submit`` share: what to sweep,
    how every point runs, and where the sweep is journaled."""
    from ..core.backends import DEFAULT_ENGINE, engine_choices
    from ..core.opt import opt_level_argument
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to the .lss specification to sweep "
                             "(omit with --builder)")
    parser.add_argument("--builder", default=None, metavar="PKG.MOD:FN",
                        help="sweep a builder callable (params become "
                             "keyword arguments; returns an LSS) instead of "
                             "a .lss file")
    parser.add_argument("--grid", action="append", default=[],
                        metavar="NAME=V1,V2,...",
                        help="one sweep axis; repeat for a cross product. "
                             "For .lss specs NAME is 'instance.parameter'")
    parser.add_argument("--name", default=None,
                        help="campaign name (default: spec file stem)")
    parser.add_argument("--cycles", type=int, default=1000,
                        help="timesteps per run (default 1000)")
    parser.add_argument("--engine", default=DEFAULT_ENGINE,
                        choices=engine_choices())
    parser.add_argument("--opt", type=opt_level_argument, default=None,
                        metavar="LEVEL",
                        help="IR optimizer level 0-2 applied to every run "
                             "(default: REPRO_OPT where the run executes, "
                             "else 0)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign base seed; per-point engine seeds "
                             "are derived from it (default 0)")
    parser.add_argument("--batch-max", type=int, default=16, metavar="N",
                        help="most points one lockstep task runs; points "
                             "sharing a structure are grouped up to it "
                             "(default 16; 1 = one task per point)")
    parser.add_argument("--ledger", default=None,
                        help="JSONL journal path, on the coordinator's "
                             "host for submit (default "
                             "<name>.campaign.jsonl)")
    parser.add_argument("--resume", action="store_true",
                        help="continue an existing ledger: run only the "
                             "points without a recorded completion")
    parser.add_argument("--metrics", default="",
                        help="comma-separated metric columns for the "
                             "result table (e.g. 'transfers,snk:consumed')")


def sweep_from_args(args, command: str) -> Tuple[GridSweep, Dict[str, Any]]:
    """The sweep the shared arguments name, and the keywords that
    :class:`Campaign` and :func:`~repro.campaign.job.job_from_sweep`
    both take for it."""
    if not args.grid:
        raise CampaignError(f"{command} needs at least one --grid axis")
    if args.builder is None and args.spec is None:
        raise CampaignError(f"{command} needs a .lss spec or --builder")
    kw: Dict[str, Any] = {"engine": args.engine, "opt": args.opt,
                          "cycles": args.cycles,
                          "batch_max": args.batch_max}
    if args.builder is not None:
        kw.update(kind="spec", target=args.builder)
    else:
        with open(args.spec) as handle:
            kw.update(kind="lss", lss_text=handle.read())
    return GridSweep(parse_grid(args.grid), base_seed=args.seed), kw


def add_campaign_parser(subparsers) -> argparse.ArgumentParser:
    """Register the ``campaign`` subcommand on a subparsers object."""
    parser = subparsers.add_parser(
        "campaign",
        help="run a parameter sweep as a parallel, resumable campaign",
        description=__doc__.split("\n\nExamples::")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    add_sweep_arguments(parser)
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = serial in-process; "
                             "default 2)")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-attempt wall-clock limit in seconds")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts for a failed point (default 1)")
    parser.add_argument("--backoff", type=float, default=0.25,
                        help="base retry delay in seconds, doubled per "
                             "attempt (default 0.25)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="N", help="snapshot engine state every N "
                                          "cycles so retries resume mid-run")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="snapshot directory (default <name>.checkpoints)")
    parser.add_argument("--profile", action="store_true",
                        help="profile every run and print a campaign-wide "
                             "hot-spot table after the results")
    parser.add_argument("--profile-sample", type=int, default=4,
                        metavar="N", help="profiler wall-time sampling "
                                          "period in timesteps (default 4)")
    parser.add_argument("--report", action="store_true",
                        help="print the aggregate table from the ledger "
                             "and exit without running")
    parser.add_argument("--strict", action="store_true",
                        help="run the static analysis passes over the "
                             "base model first and refuse to launch on "
                             "findings (warning or worse)")
    parser.add_argument("--group-by", action="append", default=[],
                        metavar="PARAM:METRIC[:AGG]",
                        help="print a reduced view per sweep value, e.g. "
                             "'q.depth:snk:consumed:mean'")
    return parser


def _parse_value(text: str) -> Any:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    return text


def parse_grid(specs: List[str]) -> Dict[str, List[Any]]:
    grid: Dict[str, List[Any]] = {}
    for axis in specs:
        name, sep, values = axis.partition("=")
        if not sep or not name:
            raise CampaignError(
                f"--grid {axis!r}: expected NAME=V1,V2,...")
        if name in grid:
            raise CampaignError(f"--grid axis {name!r} given twice")
        grid[name] = [_parse_value(v) for v in values.split(",") if v != ""]
        if not grid[name]:
            raise CampaignError(f"--grid axis {name!r} has no values")
    return grid


def run_campaign_command(args) -> int:
    name = args.name
    if name is None:
        if args.spec:
            name = os.path.splitext(os.path.basename(args.spec))[0]
        elif args.ledger:
            name = os.path.basename(args.ledger).split(".")[0]
        else:
            name = "campaign"
    ledger_path = args.ledger or f"{name}.campaign.jsonl"
    metrics = [m for m in args.metrics.split(",") if m]

    if args.report:
        state = Ledger.load(ledger_path)
        result = result_from_ledger(name, state)
        print(result.summary())
        print(result.table(metrics=metrics))
        _print_groups(result, args.group_by)
        _print_profile(result)
        return 0

    sweep, kw = sweep_from_args(args, "campaign")
    if args.strict:
        # Pre-flight the unswept base model before burning worker time.
        from ..analysis import strict_preflight
        strict_preflight(_base_spec(kw))

    campaign = Campaign(
        name, sweep, workers=args.workers, timeout=args.timeout,
        retries=args.retries, backoff=args.backoff,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir, ledger_path=ledger_path,
        profile=args.profile, profile_sample=args.profile_sample, **kw)
    result = campaign.run(resume=args.resume, progress=print)
    print(result.summary())
    print(result.table(metrics=metrics))
    _print_groups(result, args.group_by)
    _print_profile(result)
    return 0 if not result.failed else 1


def _base_spec(kw: Dict[str, Any]):
    """The unswept model a ``--strict`` campaign pre-flights."""
    if kw["kind"] == "spec":
        from .executor import _coerce_spec, resolve_target
        return _coerce_spec(resolve_target(kw["target"])())
    from .. import library_env, parse_lss
    return parse_lss(kw["lss_text"], library_env())


def _print_profile(result) -> None:
    report = result.hotspot_report()
    if report:
        print()
        print(report)


def _print_groups(result, group_specs: List[str]) -> None:
    for spec in group_specs:
        parts = spec.split(":")
        if len(parts) < 2:
            raise CampaignError(
                f"--group-by {spec!r}: expected PARAM:METRIC[:AGG]")
        agg = "mean"
        param, metric = parts[0], ":".join(parts[1:])
        tail = parts[-1]
        if len(parts) > 2 and tail in ("mean", "sum", "min", "max", "count"):
            agg = tail
            metric = ":".join(parts[1:-1])
        print(f"\n{metric} by {param} ({agg}):")
        for value, reduced in result.group_by(param, metric, agg=agg).items():
            print(f"  {param}={value}: {reduced:g}")
