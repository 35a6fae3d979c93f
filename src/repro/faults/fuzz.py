"""Fuzz campaigns: the full T-DAT pipeline over seeded mangled traces.

Drives the robustness invariant the ingest layer promises:

* **no crash** — every mangled variant of a clean capture runs through
  ``analyze_pcap`` (and ``pcap_to_bgp``) end-to-end without an uncaught
  exception;
* **always accounted** — every run yields a
  :class:`~repro.core.health.TraceHealth` report describing what was
  dropped;
* **clean is clean** — the unmangled trace produces an empty report,
  factor vectors identical to the strict (legacy fail-fast) pipeline,
  and byte-identical report payloads buffered and streamed.

Run it from the command line::

    tdat fuzz --seeds 200

With ``--stress``, the campaign also runs the adversarial stress corpus
(:mod:`repro.faults.stress`): well-formed traces shaped to exhaust
analysis state, checked against the resource-budget degradation
contract.

Every case is replayable: a failing seed prints its operator plan, and
``mangle(blob, plan, seed)`` regenerates the exact damaged bytes.
"""

from __future__ import annotations

import argparse
import io
import random
import sys
import traceback
from dataclasses import dataclass, field
from functools import lru_cache

from repro.faults.mangle import mangle, random_plan


@dataclass
class FuzzCase:
    """Outcome of one mangled-trace pipeline run."""

    seed: int
    ops: list[str]
    mangled_bytes: int
    connections: int = 0
    issues: int = 0
    bytes_lost: int = 0
    error: str | None = None  # traceback summary when the pipeline crashed

    @property
    def crashed(self) -> bool:
        return self.error is not None


@dataclass
class FuzzReport:
    """Aggregate outcome of a whole campaign."""

    cases: list[FuzzCase] = field(default_factory=list)
    clean_ok: bool = True
    clean_detail: str = ""
    #: populated when the campaign also ran the adversarial stress
    #: corpus (``--stress``); None when it was skipped.
    stress: "object | None" = None  # repro.faults.stress.StressReport

    @property
    def crashes(self) -> list[FuzzCase]:
        return [case for case in self.cases if case.crashed]

    @property
    def ok(self) -> bool:
        stress_ok = self.stress is None or self.stress.ok
        return not self.crashes and self.clean_ok and stress_ok

    def summary(self) -> str:
        lines = [
            f"fuzz: {len(self.cases)} mangled trace(s), "
            f"{len(self.crashes)} crash(es), "
            f"clean-trace invariant "
            f"{'ok' if self.clean_ok else 'VIOLATED'}"
        ]
        if not self.clean_ok:
            lines.append(f"  clean: {self.clean_detail}")
        for case in self.crashes:
            lines.append(
                f"  seed {case.seed} ops {','.join(case.ops)}: {case.error}"
            )
        if not self.crashes and self.cases:
            issue_total = sum(case.issues for case in self.cases)
            lines.append(
                f"  {issue_total} ingest issue(s) recorded across the campaign"
            )
        if self.stress is not None:
            lines.append(self.stress.summary())
        return "\n".join(lines)


@lru_cache(maxsize=4)
def clean_trace_bytes(
    table_prefixes: int = 2_000,
    sim_seed: int = 7,
    duration_s: int = 60,
) -> bytes:
    """A deterministic clean capture: one monitored table transfer."""
    # Imported lazily: the mangler itself must not pull in the whole
    # simulator stack.
    from repro.bgp.table import generate_table
    from repro.core.units import seconds
    from repro.netsim.simulator import Simulator
    from repro.wire.pcap import records_to_bytes
    from repro.workloads.scenarios import MonitoringSetup, RouterParams

    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(table_prefixes, random.Random(sim_seed))
    setup.add_router(RouterParams(name="fuzz-r1", ip="10.90.0.1", table=table))
    setup.start()
    sim.run(until_us=seconds(duration_s))
    return records_to_bytes(setup.sniffer.sorted_records())


def run_case(blob: bytes, seed: int, min_ops: int = 1, max_ops: int = 3) -> FuzzCase:
    """Mangle ``blob`` under ``seed`` and run the pipeline over it."""
    from repro.analysis.tdat import analyze_pcap
    from repro.core.health import STAGE_BGP, TraceHealth
    from repro.tools.pcap2bgp import pcap_to_bgp

    rng = random.Random(seed)
    ops = random_plan(rng, min_ops=min_ops, max_ops=max_ops)
    mangled = mangle(blob, ops, seed)
    case = FuzzCase(seed=seed, ops=ops, mangled_bytes=len(mangled))
    try:
        report = analyze_pcap(io.BytesIO(mangled))
        health = TraceHealth()
        pcap_to_bgp(io.BytesIO(mangled), health=health)
        # pcap2bgp reads the same bytes again, so its reader and frame
        # issues repeat the analysis ledger's: add only its BGP ones.
        bgp = [issue for issue in health.issues if issue.stage == STAGE_BGP]
        case.connections = len(report)
        case.issues = len(report.health.issues) + len(bgp)
        case.bytes_lost = report.health.bytes_lost + sum(
            issue.bytes_lost for issue in bgp
        )
    except Exception:
        case.error = traceback.format_exc(limit=4).strip().splitlines()[-1]
    return case


def check_clean_invariant(blob: bytes) -> tuple[bool, str]:
    """Clean trace: empty TraceHealth, factors identical to strict mode,
    and the same report payload bytes buffered and streamed."""
    from repro.analysis.render import payload_digest, report_payload
    from repro.analysis.tdat import analyze_pcap

    tolerant = analyze_pcap(io.BytesIO(blob))
    digest = payload_digest(report_payload(tolerant))
    streamed = analyze_pcap(io.BytesIO(blob), streaming=True)
    if payload_digest(report_payload(streamed)) != digest:
        return False, "report payload differs under streaming"
    if not tolerant.health.ok:
        return False, (
            f"clean trace produced {len(tolerant.health.issues)} issue(s): "
            f"{tolerant.health.issues[0]}"
        )
    strict = analyze_pcap(io.BytesIO(blob), strict=True)
    if set(tolerant.analyses) != set(strict.analyses):
        return False, "tolerant and strict modes analyzed different connections"
    for key, analysis in tolerant.analyses.items():
        if analysis.factors.ratios != strict.get(key).factors.ratios:
            return False, f"factor vector drifted for {key}"
        if analysis.factors.group_vector != strict.get(key).factors.group_vector:
            return False, f"group vector drifted for {key}"
    return True, ""


def run_fuzz(
    seeds: int = 200,
    base_seed: int = 0,
    table_prefixes: int = 2_000,
    duration_s: int = 60,
    min_ops: int = 1,
    max_ops: int = 3,
    stress: bool = False,
    stress_connections: int = 2_000,
    progress=None,
) -> FuzzReport:
    """Run the whole campaign: clean invariant plus N mangled variants.

    ``stress=True`` appends the adversarial stress corpus — clean
    traces that attack analysis *state* rather than capture *bytes* —
    verified against the resource-budget degradation contract.
    """
    blob = clean_trace_bytes(
        table_prefixes=table_prefixes, duration_s=duration_s
    )
    report = FuzzReport()
    report.clean_ok, report.clean_detail = check_clean_invariant(blob)
    for i in range(seeds):
        case = run_case(blob, base_seed + i, min_ops=min_ops, max_ops=max_ops)
        report.cases.append(case)
        if progress is not None:
            progress(case)
    if stress:
        from repro.faults.stress import run_stress

        report.stress = run_stress(connections=stress_connections)
    return report


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the fuzz options to ``parser`` (shared with ``tdat``)."""
    parser.add_argument(
        "--seeds", type=int, default=200,
        help="number of mangled variants to run (default: 200)",
    )
    parser.add_argument(
        "--base-seed", type=int, default=0,
        help="first seed of the campaign (default: 0)",
    )
    parser.add_argument(
        "--table", type=int, default=2_000,
        help="prefixes in the clean trace's table (default: 2000)",
    )
    parser.add_argument(
        "--max-ops", type=int, default=3,
        help="most fault operators composed per case (default: 3)",
    )
    parser.add_argument(
        "--stress", action="store_true",
        help="also run the adversarial stress corpus (connection "
        "floods, idle flows, pathological reordering) through a "
        "tight resource budget and check the degradation contract",
    )
    parser.add_argument(
        "--stress-connections", type=int, default=2_000, metavar="N",
        help="connections in the stress corpus's flood trace "
        "(default: 2000)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="print every case",
    )


def run_with_args(args: argparse.Namespace) -> int:
    """Run a parsed fuzz invocation: 0 when every invariant held, else 1."""

    def progress(case: FuzzCase) -> None:
        if args.verbose or case.crashed:
            status = f"CRASH {case.error}" if case.crashed else (
                f"ok ({case.connections} conn, {case.issues} issue(s))"
            )
            print(
                f"seed {case.seed}: {','.join(case.ops)} -> {status}",
                file=sys.stderr,
            )

    report = run_fuzz(
        seeds=args.seeds,
        base_seed=args.base_seed,
        table_prefixes=args.table,
        max_ops=args.max_ops,
        stress=args.stress,
        stress_connections=args.stress_connections,
        progress=progress,
    )
    print(report.summary())
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI: run a campaign and exit nonzero on any invariant violation."""
    parser = argparse.ArgumentParser(
        prog="tdat fuzz",
        description="Fuzz the T-DAT ingest pipeline with mangled pcaps",
    )
    configure_parser(parser)
    return run_with_args(parser.parse_args(argv))
