"""T-DAT: the top-level TCP Delay Analysis Tool facade.

``analyze_pcap`` runs the full pipeline of the paper's Figure 10 —
pre-process (connection extraction and profiling), ACK shift, series
generation, delay-factor classification, problem detection — over every
TCP connection in a capture and returns a structured report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.analysis.ackshift import AckShiftStats, shift_acks
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
    Connection,
    FlowKey,
    Trace,
    iter_connections,
)
from repro.analysis.series import (
    SNIFFER_AT_RECEIVER,
    ConnectionSeries,
    SeriesConfig,
    generate_series,
)
from repro.analysis.voids import CaptureVoidReport, find_capture_voids
from repro.core.health import IngestError, STAGE_ANALYSIS, TraceHealth
from repro.exec.pool import WorkPool, task_context
from repro.obs import get_obs
from repro.wire.pcap import PcapRecord


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
    exclude_voids: bool = True,
) -> ConnectionAnalysis:
    """Run the full T-DAT pipeline on one connection.

    With ``exclude_voids`` (the default), periods where the sniffer
    demonstrably lost packets are removed from the factor ratios, per
    the paper's section II-A exclusion rule.

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
    exclude = voids.void_windows if exclude_voids and voids.detected else None
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


def _record_analysis_failure(
    health: TraceHealth, connection: Connection, summary: str
) -> None:
    """Account one contained per-connection analysis crash."""
    profile = connection.profile
    health.record(
        STAGE_ANALYSIS, "connection-analysis-failed",
        timestamp_us=profile.start_time_us if profile else None,
        bytes_lost=profile.total_data_bytes if profile else 0,
        detail=f"{connection.key}: {summary}",
    )


def _analyze_connection_task(
    item: tuple[Connection, tuple[int, int] | None]
) -> ConnectionAnalysis:
    """Work-pool task: one connection through the full pipeline.

    The shared :class:`SeriesConfig` travels as the pool context so it
    is shipped once per worker, not once per connection.
    """
    connection, window = item
    return analyze_connection(connection, window=window, config=task_context())


def analyze_pcap(
    source: BinaryIO | str | Path | list[PcapRecord],
    sniffer_location: str = SNIFFER_AT_RECEIVER,
    windows: dict[FlowKey, tuple[int, int]] | None = None,
    config: SeriesConfig | None = None,
    min_data_packets: int = 2,
    strict: bool = False,
    health: TraceHealth | None = None,
    workers: int = 1,
    streaming: bool = False,
    pool: WorkPool | None = None,
    budget: ResourceBudget | None = None,
) -> TdatReport:
    """Analyze every TCP connection in a capture.

    ``windows`` optionally restricts each connection's analysis period
    (e.g. to the MCT-determined table-transfer extent).  Connections
    with fewer than ``min_data_packets`` data segments are skipped.

    The default discipline is graceful degradation: structurally
    damaged pcap regions are skipped with resynchronization, frames and
    connections that defeat their decoders are dropped, and everything
    lost is accounted in the report's :class:`TraceHealth`.  With
    ``strict=True`` the original fail-fast behaviour is restored:
    damaged pcap structure or a crashed per-connection analysis raises
    instead of degrading (undecodable individual frames remain benign
    skips — real captures always contain some ARP/LLDP).

    Two execution knobs, both result-preserving:

    * ``streaming=True`` finalizes and analyzes each flow as it closes
      instead of parsing the whole capture first, bounding ingest
      memory by the *open* flows (see
      :func:`~repro.analysis.profile.iter_connections` and
      :func:`iter_analyze_pcap` for the incremental form);
    * ``workers=N`` (or an explicit ``pool``) fans the per-connection
      pipeline runs of a multi-connection capture out across worker
      processes.  Analyses come back in the same order the serial path
      produces, so reports are identical.

    ``budget`` bounds the live analysis state itself (see
    :class:`~repro.analysis.budget.ResourceBudget`): ingest is forced
    onto the streaming path, every packet is metered, and watermark
    trips evict state deterministically.  The run then *degrades*
    rather than growing without bound — shed state is accounted in
    benign health issues and ``report.degradation`` — and whenever the
    trace fits the budget the report is byte-identical to an
    unbudgeted streaming run.
    """
    if config is None:
        config = SeriesConfig(sniffer_location=sniffer_location)
    if health is None:
        health = TraceHealth(strict=strict)
    report = TdatReport(health=health)
    ledger: StateLedger | None = None
    if budget is not None and budget.bounded:
        ledger = StateLedger(budget, health=health)
        report.degradation = ledger.summary
    bounded = streaming or ledger is not None
    if pool is None:
        pool = WorkPool(workers=workers)
    parallel = pool.workers > 1

    if bounded and not parallel:
        for analysis in _analyze_stream(
            source, report, windows=windows, config=config,
            min_data_packets=min_data_packets, strict=strict, health=health,
            ledger=ledger,
        ):
            report.analyses[analysis.key] = analysis
        _restore_capture_order(report)
        return report

    if bounded:
        # Parallel + streaming: ingest incrementally (bounded by open
        # flows, and by the ledger when a budget is set), then batch
        # the eligible connections through the pool.
        connections = iter_connections(
            source, health=health, tolerant=not strict, ledger=ledger,
        )
    else:
        connections = iter(Trace.from_pcap(
            source, health=health, tolerant=not strict,
        ))

    eligible: list[tuple[Connection, tuple[int, int] | None]] = []
    for connection in connections:
        if connection.profile is None or (
            connection.profile.total_data_packets < min_data_packets
        ):
            report.skipped_connections += 1
            continue
        window = windows.get(connection.key) if windows else None
        eligible.append((connection, window))

    if not parallel:
        for connection, window in eligible:
            try:
                report.analyses[connection.key] = analyze_connection(
                    connection, window=window, config=config
                )
            except Exception as exc:
                if strict:
                    raise
                # Contain the blast radius to one connection: record
                # what was lost and keep analyzing the rest.
                report.skipped_connections += 1
                _record_analysis_failure(
                    health, connection, f"{type(exc).__name__}: {exc}"
                )
    else:
        outcomes = pool.map(_analyze_connection_task, eligible, context=config)
        for (connection, _), outcome in zip(eligible, outcomes):
            if outcome.ok:
                report.analyses[connection.key] = outcome.value
                continue
            if strict:
                raise IngestError(
                    f"{connection.key}: analysis crashed in worker: "
                    f"{outcome.error}"
                )
            report.skipped_connections += 1
            _record_analysis_failure(health, connection, str(outcome.error))
    if bounded:
        _restore_capture_order(report)
    return report


def _restore_capture_order(report: TdatReport) -> None:
    """Reorder analyses to first-appearance order of their connections.

    Streaming ingest yields flows in *close* order; the buffered path
    iterates them in first-packet order.  Reports must not depend on
    the execution mode, so streaming results are put back in capture
    order (every connection holds its packets, so the order is exact).
    """
    report.analyses = dict(
        sorted(
            report.analyses.items(),
            key=lambda item: item[1].connection.packets[0].index,
        )
    )


def _analyze_stream(
    source: BinaryIO | str | Path | list[PcapRecord],
    report: TdatReport,
    windows: dict[FlowKey, tuple[int, int]] | None,
    config: SeriesConfig,
    min_data_packets: int,
    strict: bool,
    health: TraceHealth,
    ledger: StateLedger | None = None,
):
    """Yield analyses one flow at a time, updating ``report`` counters."""
    for connection in iter_connections(
        source, health=health, tolerant=not strict, ledger=ledger,
    ):
        if connection.profile is None or (
            connection.profile.total_data_packets < min_data_packets
        ):
            report.skipped_connections += 1
            continue
        window = windows.get(connection.key) if windows else None
        try:
            yield analyze_connection(connection, window=window, config=config)
        except Exception as exc:
            if strict:
                raise
            report.skipped_connections += 1
            _record_analysis_failure(
                health, connection, f"{type(exc).__name__}: {exc}"
            )


def iter_analyze_pcap(
    source: BinaryIO | str | Path | list[PcapRecord],
    sniffer_location: str = SNIFFER_AT_RECEIVER,
    windows: dict[FlowKey, tuple[int, int]] | None = None,
    config: SeriesConfig | None = None,
    min_data_packets: int = 2,
    strict: bool = False,
    health: TraceHealth | None = None,
    budget: ResourceBudget | None = None,
    ledger: StateLedger | None = None,
):
    """The incremental form of :func:`analyze_pcap`.

    Yields each connection's :class:`ConnectionAnalysis` the moment its
    flow closes, in close order.  The caller owns each analysis as it
    arrives and may discard it, so a capture of thousands of sequential
    transfers can be analyzed in bounded memory — the use case behind
    the paper's multi-week monitoring traces.  ``budget`` behaves
    exactly as in :func:`analyze_pcap`; a caller that needs
    the :class:`~repro.analysis.budget.DegradationSummary` afterwards
    can construct the :class:`~repro.analysis.budget.StateLedger`
    itself and pass it as ``ledger`` (which overrides ``budget``).
    """
    if config is None:
        config = SeriesConfig(sniffer_location=sniffer_location)
    if health is None:
        health = TraceHealth(strict=strict)
    if ledger is None and budget is not None and budget.bounded:
        ledger = StateLedger(budget, health=health)
    throwaway = TdatReport(health=health)
    yield from _analyze_stream(
        source, throwaway, windows=windows, config=config,
        min_data_packets=min_data_packets, strict=strict, health=health,
        ledger=ledger,
    )
