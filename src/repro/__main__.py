"""Command-line entry point.

Subcommands::

    python -m repro run SPEC.lss [--cycles N] [--engine ...] [--stats P]
                                 [--dot FILE] [--seed N] [--activity]
                                 [--vcd FILE] [--profile] [--strict]
    python -m repro campaign [SPEC.lss] --grid inst.param=v1,v2,...
                                 [--workers N] [--resume] [--report]
                                 [--profile] [--strict] ...
    python -m repro profile [SPEC.lss | --builder PKG.MOD:FN]
                                 [--param k=v ...] [--cycles N]
                                 [--out DIR] [--json F] [--trace F]
    python -m repro check [SPEC.lss | --builder PKG.MOD:FN]
                                 [--param k=v ...] [--format text|json]
                                 [--fail-on SEV] [--passes NAMES]
                                 [--explain-schedule] [--list-rules]
    python -m repro opt [SPEC.lss | --builder PKG.MOD:FN]
                                 [--param k=v ...] [--level {0,1,2}]
                                 [--explain]
    python -m repro bench [--quick] [--select SUBSTR] [--json FILE]
                                 [--compare BASELINE] [--tolerance F]
                                 [--absolute] [--update-baseline FILE]
    python -m repro serve [--host H] [--port P] [--workers N] ...
    python -m repro submit SPEC.lss --grid k=v1,v2 --connect HOST:PORT ...
    python -m repro status [JOB] --connect HOST:PORT
    python -m repro results JOB --connect HOST:PORT [--metrics ...]
    python -m repro work --connect HOST:PORT [--cache-dir DIR] ...

``run`` parses the specification against the full shipped library
environment (:func:`repro.library_env`), constructs the simulator, runs
it, and prints the statistics report — the paper's Figure-1 pipeline as
a shell command.  ``campaign`` drives a parameter sweep over a spec as
a parallel, resumable experiment campaign (see :mod:`repro.campaign`).
``profile`` runs a model under the engine profiler
(:mod:`repro.obs`) and emits a hot-spot report, a structured metrics
dump, and a Chrome trace-event timeline loadable at ui.perfetto.dev.
``check`` statically analyzes a model without simulating it
(:mod:`repro.analysis`): connectivity lint, DEPS contract conformance,
and MoC cycle analysis; ``--strict`` on ``run``/``campaign`` runs the
same passes as a pre-flight and refuses to simulate on findings.
``opt`` reports what the IR optimizer pipeline (:mod:`repro.core.opt`)
does to a model at a given ``--level`` — per-pass schedule/react-call
deltas with ``--explain`` — without simulating it; the ``--opt`` flag
on ``run``/``profile``/``campaign``/``submit`` applies the same
pipeline before execution.
``bench`` runs the ``benchmarks/`` suite, writes ``BENCH_<rev>.json``
and guards against performance regressions (:mod:`repro.bench`).
``serve``/``submit``/``status``/``results``/``work`` are the
distributed campaign fabric (:mod:`repro.fabric`): a coordinator
service that shards submitted sweeps across worker processes or hosts.

For backward compatibility, ``python -m repro SPEC.lss ...`` (no
subcommand) is interpreted as ``run``.  Framework errors exit with
code 2 and a one-line message instead of a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__, build_simulator, library_env, parse_lss
from .core.backends import DEFAULT_ENGINE, engine_choices
from .core.errors import LibertyError
from .core.opt import opt_level_argument
from .core.visualize import activity_report, design_to_dot

_SUBCOMMANDS = ("run", "campaign", "profile", "check", "opt", "bench",
                "serve", "submit", "status", "results", "work")

_ENGINES = engine_choices()


def _add_run_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "run", help="construct and run a simulator from a textual LSS file")
    parser.add_argument("spec", help="path to the .lss specification")
    parser.add_argument("--cycles", type=int, default=1000,
                        help="timesteps to simulate (default 1000)")
    parser.add_argument("--engine", default=DEFAULT_ENGINE, choices=_ENGINES)
    parser.add_argument("--opt", type=opt_level_argument, default=None,
                        metavar="LEVEL",
                        help="IR optimizer level 0-2; 2 eliminates dead "
                             "instances, 1 has no pass left (default: "
                             "REPRO_OPT environment, else 0)")
    parser.add_argument("--stats", default="",
                        help="only print statistics under this path prefix")
    parser.add_argument("--dot", default=None,
                        help="write the flattened design as Graphviz DOT")
    parser.add_argument("--seed", type=int, default=None,
                        help="engine RNG seed")
    parser.add_argument("--activity", action="store_true",
                        help="print the hottest wires after the run")
    parser.add_argument("--vcd", default=None,
                        help="dump a VCD waveform of every wire")
    parser.add_argument("--profile", action="store_true",
                        help="attach the engine profiler and print a "
                             "hot-spot report after the statistics")
    parser.add_argument("--profile-sample", type=int, default=4, metavar="N",
                        help="profiler wall-time sampling period in "
                             "timesteps (default 4)")
    parser.add_argument("--strict", action="store_true",
                        help="run the static analysis passes first and "
                             "refuse to simulate on findings "
                             "(warning or worse)")


def _add_profile_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "profile",
        help="run a model under the engine profiler and export reports",
        description="Run a model under the engine profiler and emit a "
                    "hot-spot report, a structured metrics dump and a "
                    "Chrome trace-event timeline (open the trace at "
                    "ui.perfetto.dev).")
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to the .lss specification "
                             "(omit with --builder)")
    parser.add_argument("--builder", default=None, metavar="PKG.MOD:FN",
                        help="profile the LSS returned by a builder "
                             "callable instead of a .lss file")
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="keyword argument for --builder; repeatable")
    parser.add_argument("--cycles", type=int, default=1000,
                        help="timesteps to simulate (default 1000)")
    parser.add_argument("--engine", default=DEFAULT_ENGINE, choices=_ENGINES)
    parser.add_argument("--opt", type=opt_level_argument, default=None,
                        metavar="LEVEL",
                        help="IR optimizer level 0-2; 2 eliminates dead "
                             "instances, 1 has no pass left (default: "
                             "REPRO_OPT environment, else 0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="engine RNG seed")
    parser.add_argument("--sample", type=int, default=4, metavar="N",
                        help="wall-time sampling period in timesteps: 1 "
                             "times every step, N every N-th (default 4)")
    parser.add_argument("--top", type=int, default=15,
                        help="rows in the hot-spot tables (default 15)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write report.txt, metrics.json and "
                             "trace.json into DIR")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="write the structured metrics dump to FILE")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="write a Chrome trace-event timeline to FILE")


def _add_opt_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "opt",
        help="report what the IR optimizer does to a model",
        description="Run the repro.core.opt optimizer over a model "
                    "and report the result without simulating: schedule "
                    "entries and react calls per step before and after, "
                    "parked wires and eliminated instances.  --explain "
                    "adds the eliminated paths and the vec-planning "
                    "preview per level.")
    parser.add_argument("spec", nargs="?", default=None,
                        help="path to the .lss specification "
                             "(omit with --builder)")
    parser.add_argument("--builder", default=None, metavar="PKG.MOD:FN",
                        help="optimize the LSS returned by a builder "
                             "callable instead of a .lss file")
    parser.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="keyword argument for --builder; repeatable")
    parser.add_argument("--level", type=opt_level_argument, default=None,
                        metavar="LEVEL",
                        help="optimizer level 0-2 to report: 1 runs the "
                             "observation-equivalent passes (none "
                             "remain), 2 adds dead-code elimination "
                             "(default: REPRO_OPT environment, else 2)")
    parser.add_argument("--explain", action="store_true",
                        help="print the multi-line report instead of "
                             "the one-line summary")


def _opt_command(args) -> int:
    from .core.constructor import build_design
    from .core.opt import OPT_ENV_VAR, resolve_opt_level
    from .core.opt.pipeline import (explain_report, optimize_model,
                                    react_calls)
    spec = _profile_spec(args)
    if args.level is not None:
        level = args.level
    elif os.environ.get(OPT_ENV_VAR, "").strip():
        level = resolve_opt_level(None)
    else:
        level = 2
    design = build_design(spec)
    if args.explain:
        print(explain_report(design, level))
        return 0
    if level <= 0:
        print(f"# {design.name}: --opt 0, optimizer pipeline disabled")
        return 0
    from .core.optimize import build_schedule, build_signal_graph
    graph = build_signal_graph(design)
    before = build_schedule(design, graph=graph)
    result = optimize_model(design, level=level, graph=graph,
                            schedule=before)
    block = result.block
    print(f"# {design.name}: --opt {level}: "
          f"schedule {len(before)}->{len(result.schedule)} entries, "
          f"react calls/step {react_calls(before)}->"
          f"{react_calls(result.schedule)}, "
          f"{len(block['dead_instances'])} instance(s) eliminated, "
          f"{len(block['dead_wires'])} dead wire(s) parked  "
          f"(--explain for the full report)")
    return 0


def _profile_spec(args):
    """Materialize the LSS to profile from --builder or a .lss path."""
    if args.builder is not None:
        from .campaign.cli import _parse_value
        from .campaign.executor import _coerce_spec, resolve_target
        params = {}
        for item in args.param:
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise LibertyError(
                    f"--param {item!r}: expected NAME=VALUE")
            params[name] = _parse_value(value)
        return _coerce_spec(resolve_target(args.builder)(**params))
    if args.spec is None:
        raise LibertyError("profile needs a .lss spec or --builder")
    if args.param:
        raise LibertyError("--param only applies with --builder")
    with open(args.spec) as handle:
        return parse_lss(handle.read(), library_env())


def _profile_command(args) -> int:
    from .obs import (Profiler, hotspot_report, write_chrome_trace,
                      write_metrics_json)
    spec = _profile_spec(args)
    trace_path = args.trace
    json_path = args.json
    report_path = None
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.txt")
        json_path = json_path or os.path.join(args.out, "metrics.json")
        trace_path = trace_path or os.path.join(args.out, "trace.json")
    sim = build_simulator(spec, engine=args.engine, seed=args.seed,
                          opt=args.opt)
    prof = Profiler(sim, sample_every=args.sample,
                    trace=trace_path is not None)
    sim.run(args.cycles)
    # Report while attached: wire activity needs the live design.
    report = hotspot_report(prof, top=args.top)
    print(report)
    if report_path is not None:
        with open(report_path, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if json_path is not None:
        write_metrics_json(prof, json_path)
    if trace_path is not None:
        write_chrome_trace(prof, trace_path)
    prof.detach()
    written = [p for p in (report_path, json_path, trace_path) if p]
    if written:
        print(f"# wrote {', '.join(written)}")
    if trace_path is not None:
        print("# open the trace at https://ui.perfetto.dev "
              "(or chrome://tracing)")
    return 0


def _run_command(args) -> int:
    with open(args.spec) as handle:
        text = handle.read()
    spec = parse_lss(text, library_env())
    if args.strict:
        from .analysis import strict_preflight
        strict_preflight(spec)
    sim = build_simulator(spec, engine=args.engine, seed=args.seed,
                          opt=args.opt)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(design_to_dot(sim.design))
    tracer = None
    if args.vcd:
        from .core.trace import VCDTracer
        tracer = VCDTracer(sim, path=args.vcd)
    prof = None
    if args.profile:
        from .obs import Profiler
        prof = Profiler(sim, sample_every=args.profile_sample)
    sim.run(args.cycles)
    if tracer is not None:
        tracer.close()
    print(f"# {spec.summary()}")
    print(f"# engine={args.engine} opt={sim.opt_level} cycles={sim.now} "
          f"transfers={sim.transfers_total}")
    report = sim.stats.report(prefix=args.stats)
    if report:
        print(report)
    if args.activity:
        print(activity_report(sim))
    if prof is not None:
        from .obs import hotspot_report
        print()
        print(hotspot_report(prof))
        prof.detach()
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Backward compatibility: `python -m repro SPEC.lss ...` means `run`.
    if argv and argv[0] not in _SUBCOMMANDS and argv[0] not in (
            "-h", "--help", "--version"):
        argv.insert(0, "run")

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="The Liberty Simulation Environment, reproduced: run "
                    "one simulator or a whole experiment campaign.")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(subparsers)
    from .campaign.cli import add_campaign_parser, run_campaign_command
    add_campaign_parser(subparsers)
    _add_profile_parser(subparsers)
    from .analysis.cli import add_check_parser, run_check_command
    add_check_parser(subparsers)
    _add_opt_parser(subparsers)
    from .bench import add_bench_parser, run_bench_command
    add_bench_parser(subparsers)
    from .fabric.cli import add_fabric_parsers
    add_fabric_parsers(subparsers)
    for subparser in subparsers.choices.values():
        # No prefix matching: `--batch` must not be read as `--batch-max`.
        subparser.allow_abbrev = False

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _run_command(args)
        if args.command == "profile":
            return _profile_command(args)
        if args.command == "check":
            return run_check_command(args)
        if args.command == "opt":
            return _opt_command(args)
        if args.command == "bench":
            return run_bench_command(args)
        if args.command in ("serve", "submit", "status", "results", "work"):
            from .fabric import cli as fabric_cli
            return getattr(fabric_cli, f"run_{args.command}_command")(args)
        return run_campaign_command(args)
    except BrokenPipeError:
        # Reader (e.g. `| head`) went away mid-report; not our error.
        return 0
    except (LibertyError, OSError) as exc:
        detail = str(exc).strip()
        first_line = detail.splitlines()[0] if detail else "(no detail)"
        print(f"error: {type(exc).__name__}: {first_line}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
