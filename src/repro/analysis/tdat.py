"""T-DAT: the top-level TCP Delay Analysis Tool facade.

``analyze_pcap`` runs the full pipeline of the paper's Figure 10 —
pre-process (connection extraction and profiling), ACK shift, series
generation, delay-factor classification, problem detection — over every
TCP connection in a capture and returns a structured report.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.analysis.ackshift import AckShiftStats, shift_acks, unshift_acks
from repro.analysis.budget import (
    DegradationSummary,
    ResourceBudget,
    StateLedger,
)
from repro.analysis.detectors import (
    ConsecutiveLossReport,
    TimerGapReport,
    ZeroAckBugReport,
    detect_consecutive_losses,
    detect_timer_gaps,
    detect_zero_ack_bug,
)
from repro.analysis.factors import FactorReport, classify
from repro.analysis.labeling import LabelingResult, label_connection
from repro.analysis.profile import (
    DEFAULT_LINGER_US,
    Connection,
    FlowKey,
    iter_connections,
)
from repro.analysis.series import (
    SNIFFER_AT_RECEIVER,
    SNIFFER_LOCATIONS,
    ConnectionSeries,
    SeriesConfig,
    generate_series,
)
from repro.analysis.voids import CaptureVoidReport, find_capture_voids
from repro.core.health import IngestError, STAGE_ANALYSIS, TraceHealth
from repro.obs import get_obs
from repro.wire.pcap import PcapRecord

#: Connections with fewer data segments than this are skipped (and
#: counted in ``TdatReport.skipped_connections``).
MIN_DATA_PACKETS = 2


@dataclass
class ConnectionAnalysis:
    """Everything T-DAT derived for one TCP connection."""

    connection: Connection
    labeling: LabelingResult
    ack_shift: AckShiftStats
    series: ConnectionSeries
    factors: FactorReport
    timer_gaps: TimerGapReport
    consecutive_losses: ConsecutiveLossReport
    zero_ack_bug: ZeroAckBugReport
    capture_voids: CaptureVoidReport
    #: False when a resource budget truncated or early-finalized this
    #: connection — the analysis rests on partial state.
    complete: bool = True

    @property
    def key(self) -> FlowKey:
        return self.connection.key

    @property
    def confidence(self) -> str:
        """``"full"``, or ``"reduced"`` when the budget shed state —
        factor attribution from a truncated packet record is still the
        best available estimate, but not a complete observation."""
        return "full" if self.complete else "reduced"


@dataclass
class TdatReport:
    """The analysis of a whole capture."""

    analyses: dict[FlowKey, ConnectionAnalysis] = field(default_factory=dict)
    skipped_connections: int = 0
    health: TraceHealth = field(default_factory=TraceHealth)
    #: Present whenever a budget was in force (``degraded`` tells
    #: whether it actually shed anything); ``None`` for unbudgeted runs.
    degradation: DegradationSummary | None = None

    def __iter__(self):
        return iter(self.analyses.values())

    def __len__(self) -> int:
        return len(self.analyses)

    def get(self, key: FlowKey) -> ConnectionAnalysis:
        return self.analyses[key]


def analyze_connection(
    connection: Connection,
    window: tuple[int, int] | None = None,
    config: SeriesConfig | None = None,
    enable_ack_shift: bool = True,
) -> ConnectionAnalysis:
    """Run the full T-DAT pipeline on one connection.

    Periods where the sniffer demonstrably lost packets are removed
    from the factor ratios, per the paper's section II-A exclusion
    rule.

    Each pipeline stage runs inside its own observability span
    (``analysis.*``), and the whole connection's wall time lands in the
    ``analysis.connection_s`` histogram — the per-stage/per-connection
    timings of Figure 10's boxes.
    """
    config = config or SeriesConfig()
    obs = get_obs()
    tracer = obs.tracer
    wall_start = (
        time.monotonic() if obs.enabled else 0.0  # repro: noqa[RL001] wall-domain metric timing, never in results
    )
    shift_stats = AckShiftStats()
    with tracer.span("analysis.ack_shift", cat="analysis"):
        if enable_ack_shift and config.sniffer_location != "sender":
            shift_stats = shift_acks(connection)
        else:
            unshift_acks(connection)
    with tracer.span("analysis.label", cat="analysis"):
        labeling = label_connection(connection)
    series_args: dict = {}  # the span reads it at exit, once filled
    with tracer.span("analysis.series", cat="analysis", args=series_args):
        series = generate_series(
            connection, labeling, window=window, config=config
        )
        series_args["ranges"] = sum(len(s) for s in series.catalog)
    with tracer.span("analysis.voids", cat="analysis"):
        voids = find_capture_voids(connection)
    exclude = voids.void_windows if voids.detected else None
    with tracer.span("analysis.classify", cat="analysis"):
        factors = classify(series, exclude=exclude)
    with tracer.span("analysis.detectors", cat="analysis"):
        gap_args: dict = {}  # the span reads it at exit, once filled
        with tracer.span(
            "analysis.detectors.timer_gaps", cat="analysis", args=gap_args
        ):
            timer_gaps = detect_timer_gaps(series)
            gap_args["gaps"] = timer_gaps.gap_count
        consecutive_losses = detect_consecutive_losses(series)
        zero_ack_bug = detect_zero_ack_bug(series)
    if obs.enabled:
        obs.metrics.counter("analysis.connections").inc()
        obs.metrics.histogram("analysis.connection_s", wall=True).observe(
            time.monotonic() - wall_start  # repro: noqa[RL001] wall-domain metric
        )
    return ConnectionAnalysis(
        connection=connection,
        labeling=labeling,
        ack_shift=shift_stats,
        series=series,
        factors=factors,
        timer_gaps=timer_gaps,
        consecutive_losses=consecutive_losses,
        zero_ack_bug=zero_ack_bug,
        capture_voids=voids,
        complete=getattr(connection, "complete", True),
    )


def check_sniffer_location(location: str) -> None:
    """Raise unless ``location`` is one of :data:`SNIFFER_LOCATIONS`.

    Anything else raises :class:`ValueError` naming the three
    locations, instead of being analyzed as if the sniffer sat in the
    middle.
    """
    if location not in SNIFFER_LOCATIONS:
        raise ValueError(
            f"sniffer_location must be one of "
            f"{', '.join(SNIFFER_LOCATIONS)}; got {location!r}"
        )


def _new_report(
    health: TraceHealth | None,
    strict: bool,
    *,
    budget: ResourceBudget | None = None,
    ledger: StateLedger | None = None,
) -> tuple[TdatReport, StateLedger | None]:
    """An empty report and its ledger (``ledger``, or one for a bounded
    ``budget``, or none), the report carrying the ledger's summary."""
    report = TdatReport(
        health=health if health is not None else TraceHealth(strict=strict)
    )
    if ledger is None and budget is not None and budget.bounded:
        ledger = StateLedger(budget, health=report.health)
    if ledger is not None:
        report.degradation = ledger.summary
    return report, ledger


def capture_order(analysis: ConnectionAnalysis) -> int:
    """Sort key: the capture index of the connection's first packet.

    Streaming ingest yields flows in *close* order.  Reports must not
    depend on the execution mode, so every report lists its analyses
    in this order; it is exact, since every connection holds its
    packets' capture indices.
    """
    return analysis.connection.packets.index[0]


def _contain_failure(
    report: TdatReport,
    connection: Connection,
    strict: bool,
    cause: Exception,
) -> None:
    """The one rule for a crashed per-connection analysis.

    Strict runs raise :class:`~repro.core.health.IngestError` naming
    the connection, chained from ``cause``.  Otherwise the blast
    radius stays one connection: it is skipped and what was lost is
    recorded as a ``connection-analysis-failed`` issue.
    """
    summary = f"{type(cause).__name__}: {cause}"
    if strict:
        raise IngestError(
            f"{connection.key}: analysis crashed: {summary}"
        ) from cause
    report.skipped_connections += 1
    profile = connection.profile
    report.health.record(
        STAGE_ANALYSIS, "connection-analysis-failed",
        timestamp_us=profile.start_time_us if profile else None,
        bytes_lost=profile.total_data_bytes if profile else 0,
        detail=f"{connection.key}: {summary}",
    )


def _analyses(
    source: BinaryIO | str | Path | list[PcapRecord],
    report: TdatReport,
    *,
    config: SeriesConfig,
    windows: dict[FlowKey, tuple[int, int]] | None,
    strict: bool,
    ledger: StateLedger | None,
    linger_us: int | None,
) -> Iterator[ConnectionAnalysis]:
    """The one analysis driver: yield each connection's analysis.

    Ingests ``source`` through :func:`iter_connections`, skips
    connections with fewer than :data:`MIN_DATA_PACKETS` data segments
    (counted in ``report.skipped_connections``), looks up each one's
    window and runs :func:`analyze_connection` on it as soon as ingest
    finalizes it.  Crashes are contained per connection
    (:func:`_contain_failure`).
    """
    for connection in iter_connections(
        source, health=report.health, tolerant=not strict,
        linger_us=linger_us, ledger=ledger,
    ):
        profile = connection.profile
        if profile is None or profile.total_data_packets < MIN_DATA_PACKETS:
            report.skipped_connections += 1
            continue
        window = windows.get(connection.key) if windows else None
        try:
            analysis = analyze_connection(
                connection, window=window, config=config
            )
        except Exception as exc:
            _contain_failure(report, connection, strict, exc)
            continue
        yield analysis


def analyze_pcap(
    source: BinaryIO | str | Path | list[PcapRecord],
    sniffer_location: str = SNIFFER_AT_RECEIVER,
    windows: dict[FlowKey, tuple[int, int]] | None = None,
    strict: bool = False,
    health: TraceHealth | None = None,
    streaming: bool = False,
    budget: ResourceBudget | None = None,
) -> TdatReport:
    """Analyze every TCP connection in a capture.

    ``windows`` optionally restricts each connection's analysis period
    (e.g. to the MCT-determined table-transfer extent).  Connections
    with fewer than :data:`MIN_DATA_PACKETS` data segments are skipped.
    ``sniffer_location`` is one of :data:`SNIFFER_LOCATIONS`
    (:func:`check_sniffer_location`).

    The default discipline is graceful degradation: structurally
    damaged pcap regions are skipped with resynchronization, frames and
    connections that defeat their decoders are dropped, and everything
    lost is accounted in the report's :class:`TraceHealth`.  With
    ``strict=True`` the original fail-fast behaviour is restored:
    damaged pcap structure raises, and a crashed per-connection
    analysis raises :class:`~repro.core.health.IngestError` instead of
    degrading (undecodable individual frames remain benign skips —
    real captures always contain some ARP/LLDP).

    Connections are analyzed one at a time, in-process.
    ``streaming=True`` finalizes and analyzes each flow as it closes
    instead of holding every flow to the end of the capture, bounding
    ingest memory by the *open* flows (see
    :func:`~repro.analysis.profile.iter_connections` and
    :func:`iter_analyze_pcap` for the incremental form).  The one
    difference in results: a packet arriving after its flow closed and
    lingered out is dropped as a benign ``packet-after-close`` issue
    instead of extending the connection.  Either way analyses are
    listed in capture order (:func:`capture_order`).

    ``budget`` bounds the live analysis state itself (see
    :class:`~repro.analysis.budget.ResourceBudget`): ingest is forced
    onto the streaming path, every packet is metered, and watermark
    trips evict state deterministically.  The run then *degrades*
    rather than growing without bound — shed state is accounted in
    benign health issues and ``report.degradation`` — and whenever the
    trace fits the budget the report is byte-identical to an
    unbudgeted streaming run.
    """
    check_sniffer_location(sniffer_location)
    report, ledger = _new_report(health, strict, budget=budget)
    analyses = _analyses(
        source, report, windows=windows, strict=strict, ledger=ledger,
        config=SeriesConfig(sniffer_location=sniffer_location),
        linger_us=(
            DEFAULT_LINGER_US if streaming or ledger is not None else None
        ),
    )
    report.analyses = {a.key: a for a in sorted(analyses, key=capture_order)}
    return report


def iter_analyze_pcap(
    source: BinaryIO | str | Path | list[PcapRecord],
    sniffer_location: str = SNIFFER_AT_RECEIVER,
    windows: dict[FlowKey, tuple[int, int]] | None = None,
    strict: bool = False,
    health: TraceHealth | None = None,
    ledger: StateLedger | None = None,
) -> Iterator[ConnectionAnalysis]:
    """The incremental form of :func:`analyze_pcap`.

    Yields each connection's :class:`ConnectionAnalysis` the moment its
    flow closes, in close order.  The caller owns each analysis as it
    arrives and may discard it, so a capture of thousands of sequential
    transfers can be analyzed in bounded memory — the use case behind
    the paper's multi-week monitoring traces.  A resource budget rides
    in as a :class:`~repro.analysis.budget.StateLedger` built from it
    (``StateLedger(budget)``), which meters ingest exactly as
    :func:`analyze_pcap`'s ``budget`` does and holds the
    :class:`~repro.analysis.budget.DegradationSummary` afterwards.
    """
    check_sniffer_location(sniffer_location)
    report, ledger = _new_report(health, strict, ledger=ledger)
    return _analyses(
        source, report, windows=windows, strict=strict, ledger=ledger,
        config=SeriesConfig(sniffer_location=sniffer_location),
        linger_us=DEFAULT_LINGER_US,
    )
