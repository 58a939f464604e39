"""The ``python -m repro check`` subcommand and the strict pre-flight.

``check`` loads a model — a textual ``.lss`` file or a builder callable
(``--builder pkg.mod:fn``, same convention as ``profile`` and the
campaign runner) — runs the registered analysis passes over it, and
renders the report as text or JSON.

Exit codes: 0 when no finding reaches the ``--fail-on`` threshold
(default ``warning``), 1 when one does, 2 on usage or framework errors.
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from ..core.errors import LibertyError
from .diagnostics import Report, Severity
from .passes import PASS_REGISTRY, all_rules, check


def load_target(spec_path: Optional[str], builder: Optional[str],
                params: List[str]):
    """Materialize the LSS to analyze from a .lss path or a builder."""
    if builder is not None:
        from ..campaign.cli import _parse_value
        from ..campaign.executor import _coerce_spec, resolve_target
        kwargs = {}
        for item in params:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise LibertyError(f"--param {item!r}: expected NAME=VALUE")
            kwargs[name] = _parse_value(value)
        return _coerce_spec(resolve_target(builder)(**kwargs))
    if spec_path is None:
        raise LibertyError("check needs a .lss spec or --builder")
    if params:
        raise LibertyError("--param only applies with --builder")
    from .. import library_env, parse_lss
    with open(spec_path) as handle:
        return parse_lss(handle.read(), library_env())


def explain_schedule(spec) -> str:
    """Levelization report: depth, critical path, and the schedule."""
    from ..core.constructor import build_design
    from .passes import AnalysisContext

    design = build_design(spec)
    # One IR compilation yields both the graph and the schedule (and
    # reuses a cached CompiledModel when one exists).
    ctx = AnalysisContext(design=design)
    graph = ctx.signal_graph
    depth = len(ctx.condensation.longest_path())
    schedule = ctx.compiled.schedule
    clusters = [e for e in schedule if e.cluster]
    lines = [
        f"schedule for {design.name!r}:",
        f"  signal groups: {len(graph)} "
        f"({graph.number_of_edges()} dependencies)",
        f"  levelization depth (critical path): {depth} level(s)",
        f"  schedule entries: {len(schedule)} "
        f"({len(clusters)} combinational cluster(s))",
    ]
    longest = max((len(e.groups) for e in schedule), default=0)
    lines.append(f"  widest entry: {longest} group(s)")
    for i, entry in enumerate(schedule):
        lines.append(f"  [{i:3d}] {entry!r} ({len(entry.groups)} groups)")
    return "\n".join(lines)


def add_check_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "check",
        help="statically analyze a model and report findings",
        description="Run the repro.analysis pass suite (connectivity "
                    "lint, DEPS contract conformance, MoC cycle "
                    "analysis) over a model without simulating it.  "
                    "Exit 0 when clean, 1 on findings at or above "
                    "--fail-on, 2 on usage errors.",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to the .lss specification "
                             "(omit with --builder)")
    parser.add_argument("--builder", default=None, metavar="PKG.MOD:FN",
                        help="check the LSS returned by a builder "
                             "callable instead of a .lss file")
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="keyword argument for --builder; repeatable")
    parser.add_argument("--format", default="text",
                        choices=("text", "json"),
                        help="report rendering")
    parser.add_argument("--fail-on", default="warning", dest="fail_on",
                        choices=("info", "warning", "error"),
                        help="lowest severity that makes the exit code 1")
    parser.add_argument("--passes", default=None, metavar="NAMES",
                        help="comma-separated pass subset (default: all "
                             f"of {','.join(PASS_REGISTRY)})")
    parser.add_argument("--explain-schedule", action="store_true",
                        dest="explain_schedule",
                        help="also print the levelization/critical-path "
                             "schedule report")
    parser.add_argument("--list-rules", action="store_true",
                        dest="list_rules",
                        help="list every rule id with its description "
                             "and exit")


def run_check_command(args) -> int:
    if args.list_rules:
        catalog = dict(all_rules())
        from .monitor import MONITOR_RULES
        catalog.update(MONITOR_RULES)
        width = max(len(rule) for rule in catalog)
        for rule in sorted(catalog):
            print(f"{rule:<{width}}  {catalog[rule]}")
        return 0

    spec = load_target(args.spec, args.builder, args.param)
    passes = None
    if args.passes is not None:
        passes = [name.strip() for name in args.passes.split(",")
                  if name.strip()]
    report = check(spec, passes)

    if args.format == "json":
        if args.explain_schedule:
            import json
            payload = report.to_dict()
            payload["schedule"] = explain_schedule(spec)
            print(json.dumps(payload, indent=2))
        else:
            print(report.to_json())
    else:
        print(report.to_text())
        if args.explain_schedule:
            print()
            print(explain_schedule(spec))

    threshold = Severity.parse(args.fail_on)
    return 1 if report.at_least(threshold) else 0


def strict_preflight(spec, *, fail_on: Severity = Severity.WARNING,
                     stream=None) -> Report:
    """``--strict`` hook for ``repro run`` / ``repro campaign``.

    Runs the full pass suite over ``spec`` before any simulator is
    built; prints the report and raises :class:`LibertyError` when a
    finding reaches ``fail_on`` (default: warnings fail — strict means
    strict).  Returns the report otherwise.
    """
    import sys
    report = check(spec)
    if report.at_least(fail_on):
        print(report.to_text(), file=stream or sys.stderr)
        raise LibertyError(
            f"strict pre-flight failed: {report.summary()} "
            f"(run `python -m repro check` for details)")
    return report
