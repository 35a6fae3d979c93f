"""T-DAT analysis pipeline: profiles, series, factors, detectors."""

from repro.analysis.ackshift import AckShiftStats, shift_acks
from repro.analysis.budget import (
    DegradationSummary,
    EvictionRecord,
    ResourceBudget,
    StateLedger,
)
from repro.analysis.applications import (
    FlavorReport,
    FlowClockReport,
    extract_flow_clock,
    infer_tcp_flavor,
)
from repro.analysis.detectors import (
    ConsecutiveLossReport,
    PeerGroupBlockingReport,
    TimerGapReport,
    ZeroAckBugReport,
    detect_consecutive_losses,
    detect_long_keepalive_pauses,
    detect_peer_group_blocking,
    detect_timer_gaps,
    detect_zero_ack_bug,
)
from repro.analysis.factors import FACTORS, GROUPS, FactorReport, classify
from repro.analysis.flights import flight_gap_threshold_us, group_flights
from repro.analysis.knee import l_method_knee, plateau_value
from repro.analysis.labeling import (
    KIND_DOWNSTREAM,
    KIND_NEW,
    KIND_REORDERING,
    KIND_UPSTREAM,
    LabelingResult,
    PacketLabel,
    label_connection,
)
from repro.analysis.mct import (
    TableTransfer,
    minimum_collection_time,
    transfers_from_mrt_records,
)
from repro.analysis.profile import (
    Connection,
    ConnectionProfile,
    Trace,
    canonical_key,
    infer_sniffer_location,
)
from repro.analysis.series import (
    SERIES_NAMES,
    ConnectionSeries,
    SeriesConfig,
    StepFunction,
    generate_series,
)
from repro.analysis.tdat import (
    ConnectionAnalysis,
    TdatReport,
    analyze_connection,
)
from repro.analysis.voids import CaptureVoidReport, find_capture_voids
from repro.core.health import IngestError, IngestIssue, TraceHealth


__all__ = [
    "IngestError",
    "IngestIssue",
    "TraceHealth",
    "AckShiftStats",
    "Connection",
    "ConnectionAnalysis",
    "ConnectionProfile",
    "ConnectionSeries",
    "ConsecutiveLossReport",
    "FACTORS",
    "FactorReport",
    "FlavorReport",
    "FlowClockReport",
    "GROUPS",
    "KIND_DOWNSTREAM",
    "KIND_NEW",
    "KIND_REORDERING",
    "KIND_UPSTREAM",
    "LabelingResult",
    "PacketLabel",
    "PeerGroupBlockingReport",
    "SERIES_NAMES",
    "SeriesConfig",
    "StepFunction",
    "TableTransfer",
    "TdatReport",
    "TimerGapReport",
    "Trace",
    "ZeroAckBugReport",
    "CaptureVoidReport",
    "DegradationSummary",
    "EvictionRecord",
    "ResourceBudget",
    "StateLedger",
    "analyze_connection",
    "canonical_key",
    "find_capture_voids",
    "classify",
    "detect_consecutive_losses",
    "detect_long_keepalive_pauses",
    "detect_peer_group_blocking",
    "detect_timer_gaps",
    "detect_zero_ack_bug",
    "extract_flow_clock",
    "flight_gap_threshold_us",
    "infer_tcp_flavor",
    "generate_series",
    "group_flights",
    "infer_sniffer_location",
    "l_method_knee",
    "label_connection",
    "minimum_collection_time",
    "plateau_value",
    "shift_acks",
    "transfers_from_mrt_records",
]
