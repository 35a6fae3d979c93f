"""Analysis tool suite: pcap2bgp, tcptrace-lite, bgplot, reports, CLIs."""

from repro.tools.anonymize import PrefixPreservingAnonymizer, anonymize_pcap
from repro.tools.bgplot import (
    render_analysis,
    render_panel,
    render_time_sequence,
    series_to_csv,
)
from repro.tools.correlate import (
    CorrelatedMessage,
    correlate_messages,
    delayed_updates,
)
from repro.tools.pcap2bgp import pcap_to_mrt, reconstruct_stream
from repro.tools.report import (
    dataset_summary,
    detector_findings,
    duration_statistics,
    factor_distribution,
    render_markdown,
)
from repro.tools.tcptrace_lite import ConnectionSummary, format_report, summarize


__all__ = [
    "ConnectionSummary",
    "CorrelatedMessage",
    "PrefixPreservingAnonymizer",
    "anonymize_pcap",
    "correlate_messages",
    "delayed_updates",
    "render_time_sequence",
    "dataset_summary",
    "detector_findings",
    "duration_statistics",
    "factor_distribution",
    "format_report",
    "pcap_to_mrt",
    "reconstruct_stream",
    "render_analysis",
    "render_markdown",
    "render_panel",
    "series_to_csv",
    "summarize",
]
