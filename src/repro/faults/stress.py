"""Adversarial stress corpus: traces built to attack analysis state.

Where :mod:`repro.faults.mangle` damages a capture's *bytes*, this
module shapes perfectly well-formed captures whose *traffic pattern*
is hostile to the analyzer's memory: connection floods that hold every
flow open at once, idle flows that never close, and pathological
reorder/overlap streams that bloat a single connection.  They exist to
drive :mod:`repro.analysis.budget` — each generator targets one limit
of a :class:`~repro.analysis.budget.ResourceBudget` — and back the CI
``budget-stress`` peak-RSS gate (``python -m repro.faults.stress``).

All generators are seeded and yield :class:`~repro.wire.pcap.PcapRecord`
objects lazily in strict timestamp order, so a 100k-connection flood
can be generated, written and re-analyzed in bounded memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field
from random import Random

from repro.wire.frames import build_frame
from repro.wire.pcap import PcapRecord, PcapWriter
from repro.wire.tcpw import ACK, FIN, PSH, SYN, TcpHeader

#: all flood/idle flows converge on one collector endpoint, like the
#: paper's monitoring deployments (hundreds of peers, one tap).
COLLECTOR_IP = "10.200.0.1"
COLLECTOR_PORT = 179

#: capture epoch for generated traces (microseconds; ~2020-09-13).
BASE_TIME_US = 1_600_000_000_000_000


def _segment(
    ts_us: int,
    src_ip: str,
    src_port: int,
    dst_ip: str,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes = b"",
) -> PcapRecord:
    header = TcpHeader(
        src_port=src_port, dst_port=dst_port, seq=seq, ack=ack,
        flags=flags, window=65_535, payload=payload,
    )
    return PcapRecord(ts_us, build_frame(src_ip, dst_ip, header))


def _client(i: int) -> tuple[str, int]:
    """A unique (ip, port) per flood client, for any practical count."""
    block, slot = divmod(i, 60_000)
    ip = f"10.{(block >> 8) & 255}.{block & 255}.2"
    return ip, 1024 + slot


def connection_flood(
    connections: int = 1_000,
    data_packets: int = 2,
    payload_bytes: int = 64,
    base_time_us: int = BASE_TIME_US,
) -> Iterator[PcapRecord]:
    """Every connection opens and transfers before any of them closes.

    Peak live-flow count equals ``connections`` — the worst case for
    ``max_live_connections``.  Each flow is a complete, cleanly-closed
    transfer (handshake, ``data_packets`` ACKed data segments, FIN
    exchange), so an *ample* budget must reproduce the unbudgeted
    report byte-for-byte.

    Records are emitted step-by-step across all connections (all SYNs,
    then all SYN/ACKs, ...), one second between steps, strictly sorted
    within each step — the exact shape of a collector coming back up
    and every peer reconnecting at once.
    """
    payload = b"\xab" * payload_bytes
    step_gap = max(connections + 1, 1_000_000)
    steps: list[tuple[str, int]] = [("syn", 0), ("synack", 0), ("hs-ack", 0)]
    for k in range(data_packets):
        steps.append(("data", k))
        steps.append(("data-ack", k))
    steps += [("fin", 0), ("fin-ack", 0), ("last-ack", 0)]
    for step, (kind, k) in enumerate(steps):
        t0 = base_time_us + step * step_gap
        for i in range(connections):
            ip, port = _client(i)
            t = t0 + i
            c_seq = 1000  # client ISN
            s_seq = 5000  # collector ISN
            sent = 1 + data_packets * payload_bytes  # client seq after data
            if kind == "syn":
                yield _segment(
                    t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
                    c_seq, 0, SYN,
                )
            elif kind == "synack":
                yield _segment(
                    t, COLLECTOR_IP, COLLECTOR_PORT, ip, port,
                    s_seq, c_seq + 1, SYN | ACK,
                )
            elif kind == "hs-ack":
                yield _segment(
                    t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
                    c_seq + 1, s_seq + 1, ACK,
                )
            elif kind == "data":
                yield _segment(
                    t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
                    c_seq + 1 + k * payload_bytes, s_seq + 1,
                    ACK | PSH, payload,
                )
            elif kind == "data-ack":
                yield _segment(
                    t, COLLECTOR_IP, COLLECTOR_PORT, ip, port,
                    s_seq + 1, c_seq + 1 + (k + 1) * payload_bytes, ACK,
                )
            elif kind == "fin":
                yield _segment(
                    t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
                    c_seq + sent, s_seq + 1, ACK | FIN,
                )
            elif kind == "fin-ack":
                yield _segment(
                    t, COLLECTOR_IP, COLLECTOR_PORT, ip, port,
                    s_seq + 1, c_seq + sent + 1, ACK | FIN,
                )
            else:  # last-ack
                yield _segment(
                    t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
                    c_seq + sent + 1, s_seq + 2, ACK,
                )


def idle_flows(
    connections: int = 256,
    data_packets: int = 2,
    payload_bytes: int = 64,
    base_time_us: int = BASE_TIME_US,
) -> Iterator[PcapRecord]:
    """Flows that transfer a little and then never close.

    Without a budget the streaming ingest must hold every one of them
    until end of trace (no FIN, no RST, nothing to linger out) — the
    pattern of long-lived BGP sessions that simply stop talking.
    """
    flood = connection_flood(
        connections=connections, data_packets=data_packets,
        payload_bytes=payload_bytes, base_time_us=base_time_us,
    )
    open_steps = (3 + 2 * data_packets) * connections
    for index, record in enumerate(flood):
        if index >= open_steps:
            break  # drop the entire close phase
        yield record


def pathological_reorder(
    segments: int = 400,
    payload_bytes: int = 512,
    seed: int = 0,
    base_time_us: int = BASE_TIME_US,
) -> Iterator[PcapRecord]:
    """One connection whose data stream is a reordered, overlapping mess.

    Sequence offsets are drawn *with replacement* from the transfer
    window, so the stream is full of spurious retransmissions and
    overlaps; duplicate ACKs are interleaved.  Per-packet state keeps
    growing while the byte stream barely advances — the worst case for
    ``max_connection_packets``.
    """
    rng = Random(seed)
    ip, port = _client(0)
    payload = b"\xcd" * payload_bytes
    t = base_time_us
    c_seq, s_seq = 1000, 5000
    yield _segment(t, ip, port, COLLECTOR_IP, COLLECTOR_PORT, c_seq, 0, SYN)
    t += 500
    yield _segment(
        t, COLLECTOR_IP, COLLECTOR_PORT, ip, port, s_seq, c_seq + 1,
        SYN | ACK,
    )
    t += 500
    yield _segment(
        t, ip, port, COLLECTOR_IP, COLLECTOR_PORT, c_seq + 1, s_seq + 1, ACK
    )
    window = max(segments // 4, 1)
    top = 0
    for _ in range(segments):
        t += rng.randint(50, 500)
        k = rng.randint(max(0, top - window), top)
        top = max(top, k + 1)
        yield _segment(
            t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
            c_seq + 1 + k * payload_bytes, s_seq + 1, ACK | PSH, payload,
        )
        for _ in range(rng.randint(0, 2)):  # dup-ACK bursts
            t += rng.randint(10, 50)
            yield _segment(
                t, COLLECTOR_IP, COLLECTOR_PORT, ip, port,
                s_seq + 1, c_seq + 1 + top * payload_bytes, ACK,
            )
    sent = 1 + top * payload_bytes
    t += 1_000
    yield _segment(
        t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
        c_seq + sent, s_seq + 1, ACK | FIN,
    )
    t += 500
    yield _segment(
        t, COLLECTOR_IP, COLLECTOR_PORT, ip, port,
        s_seq + 1, c_seq + sent + 1, ACK | FIN,
    )
    t += 500
    yield _segment(
        t, ip, port, COLLECTOR_IP, COLLECTOR_PORT,
        c_seq + sent + 1, s_seq + 2, ACK,
    )


def write_stress_pcap(path, records: Iterator[PcapRecord]) -> int:
    """Stream a generated corpus to a pcap file; returns record count."""
    count = 0
    writer = PcapWriter(path)
    try:
        for record in records:
            writer.write(record)
            count += 1
    finally:
        writer.close()
    return count


# ---------------------------------------------------------------------- #
# The degradation contract, checked over the whole corpus                 #
# ---------------------------------------------------------------------- #

#: the only health kinds a budgeted run over a *clean* stress trace may
#: produce — every one of them benign and typed.
ALLOWED_DEGRADATION_KINDS = frozenset({
    "analysis-state-evicted",
    "analysis-connection-finalized-early",
    "analysis-degraded",
    "issues-truncated",
    "packet-after-close",
})


@dataclass
class StressCase:
    """One corpus member's verdict against the degradation contract."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class StressReport:
    """Aggregate verdict of a stress-corpus run."""

    cases: list[StressCase] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(case.ok for case in self.cases)

    def summary(self) -> str:
        lines = [
            f"stress: {len(self.cases)} case(s), "
            f"{sum(1 for c in self.cases if not c.ok)} violation(s)"
        ]
        for case in self.cases:
            status = "ok" if case.ok else "VIOLATED"
            tail = f" — {case.detail}" if case.detail else ""
            lines.append(f"  {case.name}: {status}{tail}")
        return "\n".join(lines)


def analysis_fingerprint(report) -> list:
    """Result identity up to everything the analyzer derives."""
    return [
        (
            analysis.key,
            analysis.complete,
            analysis.factors.ratios,
            analysis.factors.group_vector,
            len(analysis.connection.packets),
        )
        for analysis in report
    ] + [sorted(report.health.by_kind().items())]


def _check_degraded(name: str, report, limit: int | None = None) -> StressCase:
    """A tight-budget run must degrade *gracefully*: typed and bounded."""
    summary = report.degradation
    if summary is None or not summary.degraded:
        return StressCase(name, False, "armed budget never degraded")
    if report.health.failures:
        return StressCase(
            name, False,
            f"degradation produced failures: {report.health.failures[0]}",
        )
    unknown = set(report.health.by_kind()) - ALLOWED_DEGRADATION_KINDS
    if unknown:
        return StressCase(name, False, f"untyped degradation kinds: {unknown}")
    if limit is not None and summary.peak_live_connections > limit:
        return StressCase(
            name, False,
            f"peak live {summary.peak_live_connections} exceeded "
            f"budget {limit}",
        )
    return StressCase(name, True, summary.summary())


def run_stress(connections: int = 2_000, progress=None) -> StressReport:
    """Drive the corpus through budgeted analysis; verify the contract."""
    from repro.analysis.budget import ResourceBudget
    from repro.analysis.tdat import analyze_pcap

    report = StressReport()

    def done(case: StressCase) -> None:
        report.cases.append(case)
        if progress is not None:
            progress(case)

    flood = list(connection_flood(connections=connections))
    tight_live = max(32, connections // 16)
    tight = analyze_pcap(
        flood, budget=ResourceBudget(max_live_connections=tight_live)
    )
    done(_check_degraded("flood-tight", tight, limit=tight_live))

    clean = analyze_pcap(flood, streaming=True)
    # "Ample" must clear the high watermark, not just the raw count:
    # peak live equals ``connections``, and eviction arms at 0.9×limit.
    ample = analyze_pcap(
        flood, budget=ResourceBudget(max_live_connections=connections * 2)
    )
    if ample.degradation is not None and ample.degradation.degraded:
        done(StressCase("flood-ample", False, "ample budget degraded"))
    elif analysis_fingerprint(ample) != analysis_fingerprint(clean):
        done(StressCase(
            "flood-ample", False,
            "ample-budget report diverged from unbudgeted run",
        ))
    else:
        done(StressCase(
            "flood-ample", True,
            f"byte-identical across {len(ample)} connection(s)",
        ))

    idle = list(idle_flows(connections=max(connections // 8, 64)))
    idle_live = max(16, connections // 64)
    idle_report = analyze_pcap(
        idle, budget=ResourceBudget(max_live_connections=idle_live)
    )
    done(_check_degraded("idle-tight", idle_report, limit=idle_live))

    reorder = list(pathological_reorder(segments=600))
    reorder_report = analyze_pcap(
        reorder, budget=ResourceBudget(max_connection_packets=64)
    )
    case = _check_degraded("reorder-cap", reorder_report)
    if case.ok and reorder_report.degradation.packets_shed == 0:
        case = StressCase(
            "reorder-cap", False, "connection cap shed no packets"
        )
    done(case)

    return report


# ---------------------------------------------------------------------- #
# CI peak-RSS gate driver                                                 #
# ---------------------------------------------------------------------- #
def _peak_rss_bytes() -> int:
    """This process's peak resident set (Linux ru_maxrss is in KiB)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak * 1024 if sys.platform != "darwin" else peak


def main(argv: list[str] | None = None) -> int:
    """Analyze a generated flood and gate this process's peak RSS.

    The CI ``budget-stress`` job runs this twice over the same flood:
    once with ``--max-live-connections`` and ``--rss-ceiling-mb`` (the
    bounded run must stay under the ceiling), once unbudgeted with
    ``--rss-floor-mb`` set to the same ceiling (the control must
    *exceed* it — proof the gate can actually fail).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults.stress",
        description="Connection-flood analysis with a peak-RSS gate",
    )
    parser.add_argument(
        "--flood", type=int, default=100_000, metavar="N",
        help="connections in the generated flood (default: 100000)",
    )
    parser.add_argument(
        "--max-live-connections", type=int, default=None, metavar="N",
        help="analysis budget; omit for the unbudgeted control run",
    )
    parser.add_argument(
        "--rss-ceiling-mb", type=int, default=None, metavar="MB",
        help="fail (exit 1) if peak RSS exceeds this",
    )
    parser.add_argument(
        "--rss-floor-mb", type=int, default=None, metavar="MB",
        help="fail (exit 1) unless peak RSS exceeds this "
        "(control runs: proves the ceiling is binding)",
    )
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)

    import os
    import tempfile

    from repro.analysis.budget import ResourceBudget, StateLedger
    from repro.analysis.tdat import iter_analyze_pcap

    ledger = None
    if args.max_live_connections is not None:
        ledger = StateLedger(
            ResourceBudget(max_live_connections=args.max_live_connections)
        )
    # Stream the flood to disk first: both the bounded run and the
    # unbudgeted control then read the same file, so the only RSS
    # difference between them is the analyzer's live state.
    fd, path = tempfile.mkstemp(suffix=".pcap", prefix="stress-flood-")
    os.close(fd)
    analyzed = 0
    try:
        write_stress_pcap(path, connection_flood(connections=args.flood))
        if ledger is not None:
            # Consume-and-discard: memory is ingest state + one analysis.
            for _ in iter_analyze_pcap(path, ledger=ledger):
                analyzed += 1
        else:
            # The control is the *default* unbudgeted path — buffered
            # analysis holding every connection's packet record at once,
            # which is exactly what a user gets without opting in.
            from repro.analysis.tdat import analyze_pcap

            analyzed = len(analyze_pcap(path))
    finally:
        os.unlink(path)
    peak_mb = _peak_rss_bytes() / (1024 * 1024)
    payload = {
        "flood_connections": args.flood,
        "max_live_connections": args.max_live_connections,
        "analyzed": analyzed,
        "peak_rss_mb": round(peak_mb, 1),
        "degradation": (
            ledger.summary.to_dict() if ledger is not None else None
        ),
    }
    if payload["degradation"] is not None:
        del payload["degradation"]["evictions"]  # keep the gate log short
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(
            f"flood {args.flood}: analyzed {analyzed}, "
            f"peak RSS {peak_mb:.1f} MiB"
        )
        if ledger is not None:
            print(ledger.summary.summary())
    if args.rss_ceiling_mb is not None and peak_mb > args.rss_ceiling_mb:
        print(
            f"FAIL: peak RSS {peak_mb:.1f} MiB exceeds ceiling "
            f"{args.rss_ceiling_mb} MiB",
            file=sys.stderr,
        )
        return 1
    if args.rss_floor_mb is not None and peak_mb <= args.rss_floor_mb:
        print(
            f"FAIL: control peak RSS {peak_mb:.1f} MiB did not exceed "
            f"{args.rss_floor_mb} MiB — the gate would never bite",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
