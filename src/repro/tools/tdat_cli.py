"""``tdat``: one command line for the whole tool suite.

The paper's Table VI tools used to ship as five separate console
scripts; they are now subcommands of a single ``tdat`` command sharing
one parser, one error discipline and one exit-code contract:

* ``tdat analyze <trace.pcap>`` — full delay analysis (the classic
  ``tdat`` invocation; a bare ``tdat <trace.pcap>`` still works);
* ``tdat campaign <name>`` — run a measurement campaign;
* ``tdat report`` — run campaigns and render the survey tables;
* ``tdat bench`` — performance benchmarks (campaign scaling, per-stage
  ingest throughput, observability/checkpoint overhead) with an
  append-only run history and regression gates;
* ``tdat fuzz`` — fault-injection harness over the ingest pipeline;
* ``tdat chaos`` — seeded chaos sweep over the execution stack
  (checkpoint journal, work pool, graceful drain);
* ``tdat anonymize / pcap2bgp / tcptrace / bgplot`` — the offline
  capture tools.

All subcommands degrade gracefully on operational input: a missing
file or a trace too damaged to read produces a one-line error on
stderr and exit code 2, never a traceback.  Analysis subcommands
report everything tolerant ingest had to drop (the
:class:`~repro.core.health.TraceHealth` ledger) and exit with code 3
when the input was readable but damaged; ``--strict`` restores
fail-fast behaviour.  Analysis runs serially in-process.

Campaigns (``tdat campaign``, ``tdat report``) fan their episodes out
with ``--workers N`` without changing any result, and run
*supervised*: ``--task-timeout`` and ``--max-retries`` bound and retry
individual episodes.  ``tdat campaign --checkpoint-dir`` journals
completed episodes so that an
interrupted run (Ctrl-C, SIGTERM, reboot) exits with code 4 and can be
continued with ``--resume`` — the merged result is byte-identical to
an uninterrupted run.

Exit codes (shared by every subcommand, also shown in ``--help``):
see :data:`EXIT_CODE_TABLE`.

A subcommand's engine loads on first call: ``tdat`` builds the options
of the invoked subcommand only and its handler imports what it runs,
so ``tdat analyze`` and ``tdat serve`` never load the simulator, the
campaign runner, chaos, fuzz or lint.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable

from repro.core.health import IngestError
from repro.wire.pcap import PcapError

EXIT_OK = 0
EXIT_NOTHING = 1
EXIT_ERROR = 2
EXIT_ISSUES = 3
EXIT_INTERRUPTED = 4
EXIT_REGRESSION = 5
EXIT_DEGRADED = 6
EXIT_DRAINED = 7

#: the one exit-code contract every subcommand shares; rendered
#: verbatim into ``--help`` so the table cannot drift from the code.
EXIT_CODE_TABLE = """\
exit codes:
  0  success
  1  nothing to analyze (no connections / no transfers)
  2  error (unreadable input, bad arguments, damaged beyond salvage)
  3  success, but tolerant ingest recorded non-benign issues
  4  interrupted; completed episodes checkpointed, re-run with --resume
  5  benchmark gate failed (tdat bench: speedup, overhead or regression)
  6  completed, but the resource budget shed state (degraded analysis)
  7  server drained on signal (tdat serve: in-flight sessions flushed)\
"""

def _guarded_call(prog: str, func, *args) -> int:
    """Turn ingest failures into one-line errors + exit code 2.

    Every subcommand runs under this guard so operational mishaps — a
    missing trace, a non-pcap file, a capture damaged beyond what the
    tolerant reader can salvage, a decode failure — end in a
    diagnostic on stderr and a nonzero status, never a traceback.
    """
    try:
        return func(*args)
    except FileNotFoundError as exc:
        name = getattr(exc, "filename", None) or exc
        print(f"{prog}: error: no such file: {name}", file=sys.stderr)
        return EXIT_ERROR
    except IsADirectoryError as exc:
        print(f"{prog}: error: is a directory: {exc.filename}", file=sys.stderr)
        return EXIT_ERROR
    except (PcapError, IngestError, ValueError, OSError) as exc:
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _budget_options(parser: argparse.ArgumentParser) -> None:
    """The three resource-budget limits (``analyze`` and ``serve``)."""
    group = parser.add_argument_group(
        "resource budget",
        "limits on live analysis state (serve: each session's default)",
    )
    group.add_argument(
        "--max-live-connections", type=int, default=None, metavar="N",
        help="finalize the coldest flows early past N simultaneously "
        "open connections (deterministic; shed state is reported, and "
        "analyze exits 6 when anything was shed)",
    )
    group.add_argument(
        "--max-state-bytes", type=int, default=None, metavar="B",
        help="cap total tracked analysis state at B modeled bytes",
    )
    group.add_argument(
        "--max-connection-packets", type=int, default=None, metavar="N",
        help="cap any single connection at N tracked packets (excess "
        "data is shed; the connection analyzes as incomplete)",
    )


def _execution_options(parser: argparse.ArgumentParser) -> None:
    """The knobs every analysis-running subcommand shares."""
    parser.add_argument(
        "--strict", action="store_true",
        help="fail fast on damaged input instead of degrading gracefully",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress and health chatter on stderr",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="enable observability and write a Chrome trace_event JSON "
        "trace (open at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="enable observability and write the metrics snapshot as "
        "JSON (render with `tdat stats FILE`)",
    )


def _json_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text",
    )


def _campaign_options(parser: argparse.ArgumentParser) -> None:
    """How a campaign's episodes fan out and are supervised."""
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="worker processes for the episodes "
        "(0 = all CPUs; results are identical)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="kill any single episode running longer than S seconds "
        "(parallel runs; the failure is contained as a health issue)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry transient episode failures (crashed worker, timeout) "
        "up to N times with the same seed (default: 0)",
    )


def _status(args, message: str) -> None:
    """Progress/summary chatter: stderr, silenced by ``--quiet``.

    Keeping every non-result line off stdout is what makes
    ``tdat ... --json | json_tool`` composable.
    """
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _make_obs(args):
    """A live observability context when an export was requested."""
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        from repro.obs import Observability

        return Observability.create()
    return None


def _write_obs(args, obs) -> None:
    """Export the requested observability artifacts."""
    if obs is None:
        return
    if args.trace_out:
        obs.tracer.write_chrome(args.trace_out)
        _status(args, f"wrote Chrome trace -> {args.trace_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(obs.metrics.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        _status(args, f"wrote metrics -> {args.metrics_out}")


#: every subcommand in ``--help`` order: name -> (help line, the function
#: that builds its options and sets its handler).
SUBCOMMANDS: dict[str, tuple[str, Callable]] = {}


def _subcommand(name: str, help_line: str):
    def register(build):
        SUBCOMMANDS[name] = (help_line, build)
        return build

    return register


@_subcommand("analyze", "delay analysis of every connection in a capture")
def _analyze_parser(p: argparse.ArgumentParser) -> None:
    from repro.analysis.series import SNIFFER_AT_RECEIVER, SNIFFER_LOCATIONS

    p.add_argument("pcap", help="input pcap trace")
    p.add_argument(
        "--sniffer-location",
        choices=SNIFFER_LOCATIONS,
        default=SNIFFER_AT_RECEIVER,
        help="where the capture was taken (default: receiver)",
    )
    p.add_argument(
        "--width", type=int, default=100, help="square-wave panel width"
    )
    p.add_argument(
        "--streaming", action="store_true",
        help="analyze each flow as it closes (bounded-memory ingest)",
    )
    _budget_options(p)
    _execution_options(p)
    _json_option(p)
    p.set_defaults(handler=_cmd_analyze)


@_subcommand("campaign", "run one measurement campaign")
def _campaign_parser(p: argparse.ArgumentParser) -> None:
    from repro.workloads.names import CAMPAIGN_NAMES

    p.add_argument(
        "name", choices=sorted(CAMPAIGN_NAMES),
        help="campaign from the paper's Table I",
    )
    p.add_argument("--transfers", type=int, help="override the transfer count")
    p.add_argument("--seed", type=int, help="override the campaign seed")
    p.add_argument(
        "--fail-episode", type=int, action="append", default=[], metavar="N",
        help="inject a transient crash into episode N (repeatable; "
        "exercises the pool's fault isolation and retry path)",
    )
    p.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="journal completed episodes under DIR; an interrupted run "
        "exits with code 4 and can be continued with --resume",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip episodes already journaled in --checkpoint-dir "
        "(config and seed must match the journal's manifest)",
    )
    _execution_options(p)
    _json_option(p)
    _campaign_options(p)
    p.set_defaults(handler=_cmd_campaign)


@_subcommand(
    "bench", "performance benchmarks with run history + regression gates"
)
def _bench_parser(p: argparse.ArgumentParser) -> None:
    # Its handler returns EXIT_OK, EXIT_ERROR (a run failed or its
    # reports diverged) or EXIT_REGRESSION (a perf gate tripped).
    from repro.tools.bench import configure_parser, run_with_args

    configure_parser(p)
    p.set_defaults(handler=run_with_args)


@_subcommand(
    "serve", "run the analysis service (long-running sessions over HTTP)"
)
def _serve_parser(p: argparse.ArgumentParser) -> None:
    from repro.analysis.series import SNIFFER_AT_RECEIVER, SNIFFER_LOCATIONS

    p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p.add_argument(
        "--port", type=int, default=8321,
        help="bind port; 0 picks an ephemeral port (default: 8321)",
    )
    p.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="most concurrently live sessions (default: 64)",
    )
    p.add_argument(
        "--sniffer-location",
        choices=SNIFFER_LOCATIONS,
        default=SNIFFER_AT_RECEIVER,
        help="default capture vantage for new sessions "
        "(default: receiver; clients can override per session)",
    )
    _budget_options(p)
    p.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="S",
        help="seconds a graceful drain waits for sessions (default: 30)",
    )
    p.add_argument(
        "--trace-requests", action="store_true",
        help="record a serve.request span per request (unbounded "
        "tracer growth; for short diagnostic runs)",
    )
    _execution_options(p)
    p.set_defaults(handler=_cmd_serve)


@_subcommand("report", "run campaigns and render the survey tables")
def _report_parser(p: argparse.ArgumentParser) -> None:
    from repro.workloads.names import CAMPAIGN_NAMES

    p.add_argument(
        "--campaign", action="append", choices=sorted(CAMPAIGN_NAMES),
        metavar="NAME", help="campaign to include (repeatable; default: all)",
    )
    p.add_argument("--transfers", type=int, help="override the transfer count")
    p.add_argument("--seed", type=int, help="override the campaign seeds")
    p.add_argument("--out", help="write the report here instead of stdout")
    _execution_options(p)
    _json_option(p)
    _campaign_options(p)
    p.set_defaults(handler=_cmd_report)


@_subcommand("stats", "render a metrics snapshot as a sorted table")
def _stats_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "metrics", help="metrics JSON written by --metrics-out",
    )
    p.add_argument(
        "--deterministic-only", action="store_true",
        help="show only metrics that are identical across worker counts "
        "(drop wall-clock / execution-substrate entries)",
    )
    p.set_defaults(handler=_cmd_stats)


@_subcommand("chaos", "seeded chaos sweep over the campaign execution stack")
def _chaos_parser(p: argparse.ArgumentParser) -> None:
    from repro.chaos.runner import configure_parser, run_with_args

    configure_parser(p)
    p.set_defaults(
        handler=lambda args: EXIT_ISSUES if run_with_args(args) else EXIT_OK
    )


@_subcommand("fuzz", "fault-injection harness over the ingest pipeline")
def _fuzz_parser(p: argparse.ArgumentParser) -> None:
    from repro.faults.fuzz import configure_parser, run_with_args

    configure_parser(p)
    p.set_defaults(
        handler=lambda args: EXIT_ISSUES if run_with_args(args) else EXIT_OK
    )


@_subcommand("anonymize", "prefix-preserving pcap anonymization")
def _anonymize_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("pcap", help="input pcap trace")
    p.add_argument("out", help="anonymized output pcap")
    p.add_argument(
        "--key", required=True,
        help="anonymization key (same key -> same mapping)",
    )
    p.add_argument(
        "--strip-payload", action="store_true",
        help="zero TCP payloads (lengths and timing preserved)",
    )
    p.set_defaults(handler=_cmd_anonymize)


@_subcommand("pcap2bgp", "reconstruct BGP messages into an MRT file")
def _pcap2bgp_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("pcap", help="input pcap trace")
    p.add_argument("mrt", help="output MRT file")
    p.add_argument("--local-as", type=int, default=0)
    p.add_argument("--peer-as", type=int, default=0)
    p.set_defaults(handler=_cmd_pcap2bgp)


@_subcommand("tcptrace", "per-connection summaries")
def _tcptrace_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("pcap", help="input pcap trace")
    p.set_defaults(handler=_cmd_tcptrace)


@_subcommand("lint", "determinism & isolation static analysis over the source")
def _lint_parser(p: argparse.ArgumentParser) -> None:
    from repro.lint.cli import LINT_EXIT_CODES, configure_parser, run_with_args

    # Lint carries its own exit-code contract (0 clean / 1 findings /
    # 2 failed to run), so it replaces the shared EXIT_CODE_TABLE.
    p.epilog = LINT_EXIT_CODES
    configure_parser(p)
    p.set_defaults(handler=run_with_args)


@_subcommand("bgplot", "event-series panels / CSV export")
def _bgplot_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("pcap", help="input pcap trace")
    p.add_argument(
        "--csv", action="store_true", help="emit CSV instead of text panels"
    )
    p.add_argument(
        "--seq", action="store_true",
        help="render a tcptrace-style time-sequence graph too",
    )
    p.add_argument("--width", type=int, default=100)
    p.set_defaults(handler=_cmd_bgplot)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``tdat`` parser: every subcommand, but only one's options.

    Each subcommand is listed with its help line; only ``command``'s
    options are built, because building them imports its engine (the
    campaign names come from the campaign module, lint's flags from
    lint).  So ``tdat serve`` loads neither the simulator nor lint.
    """
    parser = argparse.ArgumentParser(
        prog="tdat",
        description="TCP Delay Analysis Tool for BGP table transfers",
        epilog=EXIT_CODE_TABLE,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_line, build) in SUBCOMMANDS.items():
        # Every subcommand shows the same exit-code table; one source.
        p = sub.add_parser(
            name,
            help=help_line,
            epilog=EXIT_CODE_TABLE,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        if name == command:
            build(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    # Legacy compatibility: ``tdat trace.pcap`` predates subcommands.
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "analyze")
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    return _guarded_call("tdat", args.handler, args)


# ---------------------------------------------------------------------- #
# Subcommand handlers                                                     #
# ---------------------------------------------------------------------- #
def _budget_from_args(args):
    """A :class:`ResourceBudget` when any budget flag was given."""
    limits = (
        args.max_live_connections, args.max_state_bytes,
        args.max_connection_packets,
    )
    if all(limit is None for limit in limits):
        return None
    from repro.analysis.budget import ResourceBudget

    return ResourceBudget(
        max_live_connections=args.max_live_connections,
        max_state_bytes=args.max_state_bytes,
        max_connection_packets=args.max_connection_packets,
    )


def _cmd_analyze(args) -> int:
    from repro.analysis.render import report_payload
    from repro.api import Pipeline
    from repro.tools import bgplot

    obs = _make_obs(args)
    pipe = Pipeline(
        strict=args.strict, streaming=args.streaming, obs=obs,
        budget=_budget_from_args(args),
    )
    report = pipe.analyze(args.pcap, sniffer_location=args.sniffer_location)
    _write_obs(args, obs)
    # Benign issues (recoveries, resume markers) are reported but do
    # not flip the exit code; only actual failures do.  A budget that
    # actually shed state gets its own completed-degraded exit path.
    noisy = not report.health.ok
    failed = bool(report.health.failures)
    degraded = report.degradation is not None and report.degradation.degraded
    if report.degradation is not None:
        _status(args, report.degradation.summary())
    if not len(report):
        if noisy:
            _status(args, report.health.summary())
        _status(args, "no analyzable TCP connections found")
        return EXIT_DEGRADED if degraded and not failed else EXIT_NOTHING
    if args.json:
        print(json.dumps(report_payload(report), indent=2))
    else:
        for analysis in report:
            print(bgplot.render_analysis(analysis, width=args.width))
            print()
    if noisy:
        _status(args, report.health.summary())
    if failed:
        return EXIT_ISSUES
    return EXIT_DEGRADED if degraded else EXIT_OK


def _cmd_campaign(args) -> int:
    from repro.api import Pipeline
    from repro.tools.report import duration_statistics
    from repro.workloads.checkpoint import CampaignInterrupted

    overrides = {}
    if args.fail_episode:
        overrides["fail_episodes"] = tuple(args.fail_episode)
    obs = _make_obs(args)
    pipe = Pipeline(
        workers=args.workers, strict=args.strict,
        task_timeout=args.task_timeout, max_retries=args.max_retries,
        obs=obs,
    )
    try:
        result = pipe.campaign(
            args.name, seed=args.seed, transfers=args.transfers,
            overrides=overrides,
            checkpoint_dir=args.checkpoint_dir, resume=args.resume,
        )
    except CampaignInterrupted as exc:
        _write_obs(args, obs)
        print(f"tdat: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    _write_obs(args, obs)
    noisy = not result.health.ok
    failed = bool(result.health.failures)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        _status(
            args,
            f"campaign {result.name}: {len(result.records)} transfer(s), "
            f"{result.total_packets} data packets",
        )
    else:
        stats = duration_statistics(result)
        print(
            f"campaign {result.name} ({result.collector_kind} collector): "
            f"{len(result.records)} transfers, {result.routers} routers, "
            f"{result.total_packets} data packets, "
            f"{result.total_bytes} bytes"
        )
        if stats["count"]:
            print(
                f"durations: min {stats['min_s']:.1f}s / "
                f"median {stats['median_s']:.1f}s / "
                f"p80 {stats['p80_s']:.1f}s / max {stats['max_s']:.1f}s"
            )
        by_pathology: dict[str, int] = {}
        for record in result.records:
            by_pathology[record.pathology] = (
                by_pathology.get(record.pathology, 0) + 1
            )
        for pathology in sorted(by_pathology):
            print(f"  {pathology}: {by_pathology[pathology]}")
    if noisy:
        _status(args, result.health.summary())
    if not result.records:
        return EXIT_NOTHING
    return EXIT_ISSUES if failed else EXIT_OK


def _cmd_serve(args) -> int:
    """Run the analysis service until it drains.

    Startup failures (port in use, unresolvable bind address) raise
    ``OSError`` out of the bind, which the shared ``_guarded_call``
    discipline turns into a one-line stderr error and exit code 2 —
    never a traceback.
    """
    from repro.api import Pipeline, ServeRequest

    obs = _make_obs(args)
    pipe = Pipeline(
        strict=args.strict, obs=obs, budget=_budget_from_args(args),
    )
    request = ServeRequest(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        sniffer_location=args.sniffer_location,
        trace_requests=args.trace_requests,
        drain_timeout=args.drain_timeout,
    )
    drained_on_signal = pipe.serve(
        request,
        on_ready=lambda host, port: _status(
            args, f"tdat serve: listening on http://{host}:{port}"
        ),
    )
    _write_obs(args, obs)
    if drained_on_signal:
        _status(args, "tdat serve: drained on signal")
        return EXIT_DRAINED
    return EXIT_OK


def _cmd_report(args) -> int:
    from repro.api import Pipeline
    from repro.tools.report import render_markdown
    from repro.workloads.names import CAMPAIGN_NAMES

    names = args.campaign or sorted(CAMPAIGN_NAMES)
    obs = _make_obs(args)
    pipe = Pipeline(
        workers=args.workers, strict=args.strict,
        task_timeout=args.task_timeout, max_retries=args.max_retries,
        obs=obs,
    )
    results = [
        pipe.campaign(name, seed=args.seed, transfers=args.transfers)
        for name in names
    ]
    _write_obs(args, obs)
    if args.json:
        text = json.dumps([r.to_dict() for r in results], indent=2)
    else:
        text = render_markdown(results)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        _status(args, f"wrote report -> {args.out}")
    else:
        print(text)
    for result in results:
        if not result.health.ok:
            _status(args, result.health.summary())
    failed = any(r.health.failures for r in results)
    return EXIT_ISSUES if failed else EXIT_OK


def _cmd_stats(args) -> int:
    """Render a ``--metrics-out`` snapshot as a sorted table."""
    with open(args.metrics) as handle:
        snapshot = json.load(handle)
    if not isinstance(snapshot, dict):
        raise ValueError(
            f"{args.metrics}: not a metrics snapshot (expected a JSON object)"
        )
    rows = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        if not isinstance(entry, dict) or "type" not in entry:
            raise ValueError(
                f"{args.metrics}: entry {name!r} is not a metric"
            )
        if args.deterministic_only and entry.get("wall"):
            continue
        rows.append((name, entry))
    if not rows:
        print("no metrics recorded", file=sys.stderr)
        return EXIT_NOTHING
    width = max(max(len(name) for name, _ in rows), len("metric"))
    print(f"{'metric'.ljust(width)}  {'type':<10} value")
    for name, entry in rows:
        kind = entry["type"] + ("*" if entry.get("wall") else "")
        print(f"{name.ljust(width)}  {kind:<10} {_metric_summary(entry)}")
    if any(entry.get("wall") for _, entry in rows):
        _status(
            args,
            "* wall-domain metric: varies with host load and worker count",
        )
    return EXIT_OK


def _fmt_num(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "0" if value == 0 else f"{value:.6g}"


def _metric_summary(entry: dict) -> str:
    kind = entry["type"]
    if kind == "counter":
        return _fmt_num(entry.get("value", 0))
    if kind == "gauge":
        return (
            f"{_fmt_num(entry.get('value', 0))} "
            f"(peak {_fmt_num(entry.get('peak', 0))}, "
            f"{entry.get('samples', 0)} sample(s))"
        )
    return (
        f"n={entry.get('count', 0)} "
        f"mean={_fmt_num(entry.get('mean', 0))} "
        f"min={_fmt_num(entry.get('min', 0))} "
        f"max={_fmt_num(entry.get('max', 0))} "
        f"total={_fmt_num(entry.get('total', 0))}"
    )


def _cmd_anonymize(args) -> int:
    from repro.tools.anonymize import anonymize_pcap

    count = anonymize_pcap(
        args.pcap, args.out, args.key.encode(),
        strip_payload=args.strip_payload,
    )
    print(f"anonymized {count} records -> {args.out}")
    return EXIT_OK


def _cmd_pcap2bgp(args) -> int:
    from repro.tools.pcap2bgp import pcap_to_mrt

    count = pcap_to_mrt(
        args.pcap, args.mrt, local_as=args.local_as, peer_as=args.peer_as
    )
    print(f"wrote {count} MRT records to {args.mrt}")
    return EXIT_OK


def _cmd_tcptrace(args) -> int:
    from repro.tools import tcptrace_lite

    rows = tcptrace_lite.summarize(args.pcap)
    print(tcptrace_lite.format_report(rows))
    return EXIT_OK


def _cmd_bgplot(args) -> int:
    from repro.api import Pipeline
    from repro.tools import bgplot

    report = Pipeline().analyze(args.pcap)
    for analysis in report:
        if args.csv:
            print(bgplot.series_to_csv(analysis.series))
        else:
            print(bgplot.render_panel(analysis.series, width=args.width))
            if args.seq:
                print()
                print(bgplot.render_time_sequence(analysis, width=args.width))
        print()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
