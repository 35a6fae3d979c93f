"""The benchmark harness behind ``tdat bench``.

Four modes, all appending to one schema-versioned JSON history
(``--out``, default ``BENCH_campaign.json``) so the file accumulates a
comparable performance record across commits:

* ``campaign`` — the parallel campaign engine vs. the serial baseline,
  each in a fresh subprocess (clean wall time and peak RSS), with a
  byte-identity check between the two reports and an optional
  ``--assert-speedup`` gate;
* ``ingest`` — per-stage packets/sec over a capture: pcap record
  reading, frame decoding (``frames.parse_packet``), and the full
  ``analyze_pcap`` pipeline, with a ``--baseline``
  / ``--max-regression`` gate over the history;
* ``obs-overhead`` — the observability subsystem's cost: an
  obs-enabled serial campaign vs. disabled samples plus the no-op
  dispatch micro-benchmark;
* ``checkpoint-overhead`` — a serial campaign with the fsync'd
  episode journal vs. the plain run.

Exit codes follow the ``tdat`` contract
(:data:`repro.tools.tdat_cli.EXIT_CODE_TABLE`): 0 on success, 2 when
a run failed outright or its reports diverged, and
5 when a performance gate (speedup, overhead ratio, or packets/sec
regression) failed.

The harness never reads the clock for metadata: the caller supplies
``--timestamp`` (CI passes ``$(date -u -Iseconds)``), so entries are
reproducible modulo the measured wall times themselves.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2]

#: bump when the BENCH_campaign.json entry layout changes incompatibly.
SCHEMA = 1

# The slice of tdat's EXIT_CODE_TABLE this harness uses (kept numeric
# here to avoid importing the CLI module from the engine side).
_EXIT_OK = 0
_EXIT_ERROR = 2
_EXIT_REGRESSION = 5

MODES = ("campaign", "ingest", "obs-overhead", "checkpoint-overhead")


def _git_sha() -> str:
    """The repo's HEAD commit, or a CI-provided SHA, or "unknown"."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except OSError:
        pass
    return os.environ.get("GITHUB_SHA", "unknown")


def _append_history(out: Path, entry: dict) -> None:
    """Append ``entry`` to the schema-versioned run history at ``out``."""
    history = {"schema": SCHEMA, "runs": []}
    if out.exists():
        try:
            existing = json.loads(out.read_text())
            if (
                isinstance(existing, dict)
                and existing.get("schema") == SCHEMA
                and isinstance(existing.get("runs"), list)
            ):
                history = existing
        except (OSError, json.JSONDecodeError):
            pass  # non-conforming file: start a fresh history
    history["runs"].append(entry)
    out.write_text(json.dumps(history, indent=2) + "\n")


def _latest_baseline(path: Path, benchmark: str) -> dict | None:
    """The most recent ``benchmark`` entry in a history file, if any."""
    try:
        history = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(history, dict) or history.get("schema") != SCHEMA:
        return None
    runs = [
        run for run in history.get("runs", [])
        if isinstance(run, dict) and run.get("benchmark") == benchmark
    ]
    return runs[-1] if runs else None


def _status(args, message: str) -> None:
    """Progress chatter: stderr, so ``--json`` stdout stays parseable."""
    if not getattr(args, "quiet", False):
        print(message, file=sys.stderr)


def _emit(args, summary: dict, lines: list[str]) -> None:
    """The result: JSON or human-readable, on stdout."""
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------- #
# Campaign mode (serial vs parallel, obs/checkpoint overhead riders)      #
# ---------------------------------------------------------------------- #
def _child(args: argparse.Namespace) -> int:
    """One measured campaign run; emits a single JSON line on stdout."""
    from repro.api import Pipeline

    start = time.perf_counter()
    result = Pipeline(workers=args.workers, obs=args.obs).campaign(
        args.campaign,
        seed=args.seed,
        transfers=args.transfers,
        overrides={"zero_bug_episodes": 0},
        checkpoint_dir=args.checkpoint_dir or None,
    )
    wall_s = time.perf_counter() - start
    payload = json.dumps(result.to_dict(), sort_keys=True)
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        peak_rss_kb = max(usage.ru_maxrss, children.ru_maxrss)
    except ImportError:  # non-POSIX: report what we can
        peak_rss_kb = 0
    print(json.dumps({
        "wall_s": wall_s,
        "records": len(result.records),
        "digest": hashlib.sha256(payload.encode()).hexdigest(),
        "peak_rss_kb": peak_rss_kb,
        "health_ok": result.health.ok,
    }))
    return 0


def _measure(
    args: argparse.Namespace,
    workers: int,
    checkpoint_dir: str = "",
    obs: bool = False,
) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable, "-m", "repro.tools.bench",
        "--as-child",
        "--campaign", args.campaign,
        "--seed", str(args.seed),
        "--transfers", str(args.transfers),
        "--workers", str(workers),
    ]
    if checkpoint_dir:
        cmd += ["--checkpoint-dir", checkpoint_dir]
    if obs:
        cmd += ["--obs"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child run (workers={workers}) failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _noop_dispatch_ns(iterations: int = 200_000) -> float:
    """Per-operation cost of a disabled instrumentation point, in ns.

    Measures the exact disabled fast path instrumented code takes:
    ``get_obs()`` once plus an ``enabled`` check per operation — the
    "disabled costs ~nothing" contract, quantified.
    """
    from repro.obs import get_obs

    counter = get_obs().metrics.counter("bench.noop")
    start = time.perf_counter()
    for _ in range(iterations):
        obs = get_obs()
        if obs.enabled:
            counter.inc()
    elapsed = time.perf_counter() - start
    return elapsed / iterations * 1e9


def _run_campaign_mode(args) -> int:
    from repro.exec.pool import available_parallelism

    _status(args, f"serial run: {args.campaign}, {args.transfers} transfers ...")
    serial = _measure(args, workers=1)
    _status(args, f"  {serial['wall_s']:.1f}s, {serial['records']} records")
    _status(args, f"parallel run: workers={args.workers} ...")
    parallel = _measure(args, workers=args.workers)
    _status(args, f"  {parallel['wall_s']:.1f}s, {parallel['records']} records")

    identical = serial["digest"] == parallel["digest"]
    speedup = serial["wall_s"] / parallel["wall_s"]
    summary = {
        "benchmark": "campaign",
        "git_sha": _git_sha(),
        "timestamp": args.timestamp or "unknown",
        "campaign": args.campaign,
        "seed": args.seed,
        "transfers": args.transfers,
        "workers": args.workers,
        "cpus": available_parallelism(),
        "serial": {
            "wall_s": round(serial["wall_s"], 3),
            "transfers_per_s": round(serial["records"] / serial["wall_s"], 4),
            "peak_rss_kb": serial["peak_rss_kb"],
        },
        "parallel": {
            "wall_s": round(parallel["wall_s"], 3),
            "transfers_per_s": round(
                parallel["records"] / parallel["wall_s"], 4
            ),
            "peak_rss_kb": parallel["peak_rss_kb"],
        },
        "speedup": round(speedup, 3),
        "identical": identical,
    }

    if args.mode == "checkpoint-overhead" or args.checkpoint_overhead:
        with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as ckpt:
            _status(args, "checkpointed serial run (fsync'd journal) ...")
            journaled = _measure(args, workers=1, checkpoint_dir=ckpt)
        _status(
            args, f"  {journaled['wall_s']:.1f}s, {journaled['records']} records"
        )
        summary["checkpointed"] = {
            "wall_s": round(journaled["wall_s"], 3),
            "peak_rss_kb": journaled["peak_rss_kb"],
            "identical_to_serial": journaled["digest"] == serial["digest"],
            # >1.0 means the journal costs time; the interesting number
            # for deciding whether to checkpoint long campaigns.
            "overhead_ratio": round(
                journaled["wall_s"] / serial["wall_s"], 3
            ),
        }

    if args.mode == "obs-overhead" or args.obs_overhead:
        _status(args, "obs-enabled serial run (metrics + tracing) ...")
        enabled = _measure(args, workers=1, obs=True)
        _status(args, f"  {enabled['wall_s']:.1f}s, {enabled['records']} records")
        # Two samples, best-of: the disabled path is identical code to
        # the serial baseline, so any measured "overhead" is run-to-run
        # noise — one extra sample keeps the guard from flaking on a
        # single slow scheduler quantum.
        _status(args, "obs-disabled serial runs (no-op samples) ...")
        disabled_samples = [_measure(args, workers=1) for _ in range(2)]
        disabled_wall = min(s["wall_s"] for s in disabled_samples)
        for sample in disabled_samples:
            _status(args, f"  {sample['wall_s']:.1f}s, {sample['records']} records")
        summary["obs"] = {
            "enabled_wall_s": round(enabled["wall_s"], 3),
            "disabled_wall_s": round(disabled_wall, 3),
            "identical_to_serial": enabled["digest"] == serial["digest"]
            and all(
                s["digest"] == serial["digest"] for s in disabled_samples
            ),
            # >1.0 means turning observability on costs time.
            "enabled_overhead_ratio": round(
                enabled["wall_s"] / serial["wall_s"], 3
            ),
            # The guard that the always-compiled-in no-op dispatch path
            # costs ~nothing.
            "disabled_overhead_ratio": round(
                disabled_wall / serial["wall_s"], 3
            ),
            "noop_dispatch_ns": round(_noop_dispatch_ns(), 1),
        }

    _append_history(Path(args.out), summary)
    _emit(args, summary, [json.dumps(summary, indent=2)])
    _status(args, f"summary appended -> {args.out}")

    if not identical:
        print("FAIL: parallel report differs from serial", file=sys.stderr)
        return _EXIT_ERROR
    if "checkpointed" in summary and not summary["checkpointed"][
        "identical_to_serial"
    ]:
        print(
            "FAIL: checkpointed report differs from plain serial",
            file=sys.stderr,
        )
        return _EXIT_ERROR
    if args.assert_speedup is not None and speedup < args.assert_speedup:
        print(
            f"FAIL: speedup {speedup:.2f} < required "
            f"{args.assert_speedup:.2f} (cpus={summary['cpus']})",
            file=sys.stderr,
        )
        return _EXIT_REGRESSION
    if "obs" in summary:
        if not summary["obs"]["identical_to_serial"]:
            print(
                "FAIL: observability changed the campaign report",
                file=sys.stderr,
            )
            return _EXIT_ERROR
        if (
            args.assert_obs_overhead is not None
            and summary["obs"]["enabled_overhead_ratio"]
            > args.assert_obs_overhead
        ):
            print(
                f"FAIL: obs-enabled overhead "
                f"{summary['obs']['enabled_overhead_ratio']:.3f} > allowed "
                f"{args.assert_obs_overhead:.3f}",
                file=sys.stderr,
            )
            return _EXIT_REGRESSION
        if (
            args.assert_obs_disabled_overhead is not None
            and summary["obs"]["disabled_overhead_ratio"]
            > args.assert_obs_disabled_overhead
        ):
            print(
                f"FAIL: obs-disabled overhead "
                f"{summary['obs']['disabled_overhead_ratio']:.3f} > allowed "
                f"{args.assert_obs_disabled_overhead:.3f}",
                file=sys.stderr,
            )
            return _EXIT_REGRESSION
    return _EXIT_OK


# ---------------------------------------------------------------------- #
# Ingest mode (per-stage packets/sec)                                     #
# ---------------------------------------------------------------------- #
def _synthesize_corpus(path: Path, args) -> int:
    """Simulate ``--transfers`` campaign episodes into one pcap file.

    The episodes' captures are merged on the timestamp axis, so the
    corpus exercises concurrent connections the way a monitoring-point
    capture would.  Returns the record count.
    """
    from repro.wire.pcap import read_pcap, write_pcap
    from repro.workloads.campaign import (
        _draw_specs,
        campaign_config,
        run_episode,
    )

    config = campaign_config(
        args.campaign, seed=args.seed, transfers=args.transfers
    )
    config.zero_bug_episodes = 0  # the mixture episodes only
    specs, _ = _draw_specs(config)
    records = []
    for spec in specs:
        buffer = io.BytesIO()
        run_episode(spec, pcap_out=buffer)
        buffer.seek(0)
        records.extend(read_pcap(buffer))
    records.sort(key=lambda record: record.timestamp_us)
    with open(path, "wb") as handle:
        write_pcap(handle, records)
    return len(records)


def _best_of(repeat: int, fn) -> float:
    """Best (minimum) wall time of ``repeat`` runs of ``fn``."""
    best = float("inf")
    for _ in range(max(repeat, 1)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _run_ingest(args) -> int:
    from repro.analysis.tdat import analyze_pcap
    from repro.wire import frames
    from repro.wire.pcap import read_pcap

    tmp_ctx = None
    if args.pcap:
        corpus = Path(args.pcap)
        _status(args, f"ingest corpus: {corpus}")
    else:
        tmp_ctx = tempfile.TemporaryDirectory(prefix="bench-ingest-")
        corpus = Path(tmp_ctx.name) / "corpus.pcap"
        _status(
            args,
            f"synthesizing corpus: {args.campaign}, "
            f"{args.transfers} transfers ...",
        )
        _synthesize_corpus(corpus, args)
    try:
        records = read_pcap(corpus, tolerant=True)
        count = len(records)
        if not count:
            print("tdat bench: corpus holds no records", file=sys.stderr)
            return _EXIT_ERROR
        _status(args, f"  {count} records; timing (best of {args.repeat}) ...")

        def read():
            read_pcap(corpus, tolerant=True)

        def parse():
            parse_packet = frames.parse_packet
            for record in records:
                try:
                    parse_packet(record.data)
                except frames.FrameError:
                    pass

        def analyze():
            analyze_pcap(corpus)

        def rate(fn) -> float:
            return round(count / _best_of(args.repeat, fn), 1)

        stages = {
            "read": {"pps": rate(read)},
            "parse": {"pps": rate(parse)},
            "analyze": {"pps": rate(analyze)},
        }
        lines = [f"ingest: {count} records"]
        for name, stage in stages.items():
            lines.append(f"  {name}: {stage['pps']:.0f} pkts/s")
            _status(args, lines[-1])
    finally:
        if tmp_ctx is not None:
            tmp_ctx.cleanup()

    summary = {
        "benchmark": "ingest",
        "git_sha": _git_sha(),
        "timestamp": args.timestamp or "unknown",
        "campaign": None if args.pcap else args.campaign,
        "seed": None if args.pcap else args.seed,
        "transfers": None if args.pcap else args.transfers,
        "pcap": args.pcap or None,
        "records": count,
        "repeat": args.repeat,
        "stages": stages,
        # The headline number the regression gate watches: end-to-end
        # analyze_pcap throughput.
        "analyze_pps": stages["analyze"]["pps"],
    }

    gate_failure = None
    if args.baseline:
        baseline = _latest_baseline(Path(args.baseline), "ingest")
        if baseline is None:
            _status(
                args,
                f"no ingest baseline in {args.baseline}; gate skipped",
            )
        else:
            floor = baseline["analyze_pps"] * (1.0 - args.max_regression)
            summary["baseline"] = {
                "analyze_pps": baseline["analyze_pps"],
                "git_sha": baseline.get("git_sha", "unknown"),
                "floor_pps": round(floor, 1),
            }
            if summary["analyze_pps"] < floor:
                gate_failure = (
                    f"FAIL: analyze throughput {summary['analyze_pps']:.0f} "
                    f"pkts/s under regression floor {floor:.0f} "
                    f"(baseline {baseline['analyze_pps']:.0f}, "
                    f"max regression {args.max_regression:.0%})"
                )

    _append_history(Path(args.out), summary)
    _emit(args, summary, lines)
    _status(args, f"summary appended -> {args.out}")

    if gate_failure:
        print(gate_failure, file=sys.stderr)
        return _EXIT_REGRESSION
    return _EXIT_OK


# ---------------------------------------------------------------------- #
# Parser + entry points                                                   #
# ---------------------------------------------------------------------- #
def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to ``parser`` (shared with ``tdat``)."""
    parser.add_argument(
        "mode", nargs="?", default="campaign", choices=MODES,
        help="what to benchmark (default: campaign)",
    )
    parser.add_argument(
        "--campaign", default="ISP_A-Quagga",
        help="campaign the workload is drawn from (default: ISP_A-Quagga)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--transfers", type=int, default=6,
        help="episodes in the workload (default: 6)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker count of the parallel campaign run (default: 4)",
    )
    parser.add_argument(
        "--out", default="BENCH_campaign.json",
        help="run-history JSON the summary is appended to",
    )
    parser.add_argument(
        "--timestamp", default="",
        help="ISO timestamp recorded in the history entry (the caller "
        "supplies it; the benchmark never reads the clock for metadata)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the summary as JSON on stdout",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress progress chatter on stderr",
    )
    parser.add_argument(
        "--pcap", metavar="FILE",
        help="ingest mode: benchmark this capture instead of "
        "synthesizing one from the campaign",
    )
    parser.add_argument(
        "--repeat", type=int, default=3,
        help="ingest mode: samples per stage, best-of (default: 3)",
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="ingest mode: gate against the latest ingest entry in "
        "this history file",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.15, metavar="X",
        help="ingest mode: allowed fractional packets/sec drop vs. the "
        "baseline before failing with exit code 5 (default: 0.15)",
    )
    parser.add_argument(
        "--assert-speedup", type=float, metavar="X",
        help="campaign mode: exit 5 unless parallel speedup >= X",
    )
    parser.add_argument(
        "--checkpoint-overhead", action="store_true",
        help="campaign mode: also measure a checkpointed serial run "
        "(same as mode checkpoint-overhead)",
    )
    parser.add_argument(
        "--obs-overhead", action="store_true",
        help="campaign mode: also measure observability overhead "
        "(same as mode obs-overhead)",
    )
    parser.add_argument(
        "--assert-obs-overhead", type=float, metavar="X",
        help="with obs-overhead: exit 5 unless the obs-enabled run is "
        "within ratio X of the plain serial run",
    )
    parser.add_argument(
        "--assert-obs-disabled-overhead", type=float, metavar="X",
        help="with obs-overhead: exit 5 unless a second obs-disabled "
        "sample stays within ratio X of the plain serial run",
    )
    parser.add_argument(
        "--as-child", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--checkpoint-dir", default="", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--obs", action="store_true", help=argparse.SUPPRESS
    )


def run_with_args(args: argparse.Namespace) -> int:
    """Dispatch a parsed bench invocation (shared with ``tdat bench``)."""
    if args.as_child:
        return _child(args)
    if args.mode == "ingest":
        return _run_ingest(args)
    return _run_campaign_mode(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tdat bench", description=__doc__.splitlines()[0]
    )
    configure_parser(parser)
    return run_with_args(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
