"""The one analysis driver behind ``analyze_pcap`` and ``iter_analyze_pcap``.

Per-connection crash containment must follow one rule in every
execution mode, and both entry points must check the sniffer location
the same way.
"""

import io

import pytest

from repro.analysis import render, tdat
from repro.analysis.tdat import analyze_pcap, iter_analyze_pcap
from repro.core.health import IngestError
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.stress import connection_flood
from repro.wire.pcap import records_to_bytes

MODES = {
    "default": {},
    "streaming": {"streaming": True},
}

SENDER_SHA256 = (
    "e67c56fbeeab48a5d3e5fada3a13e5c3c88858381e59ac00af3ee034d1910c7a"
)


@pytest.fixture(scope="module")
def flood_blob():
    return records_to_bytes(connection_flood(4, 6, 200))


@pytest.fixture
def crash_third(monkeypatch, flood_blob):
    """Make the third connection's analysis raise ``ZeroDivisionError``."""
    victim = list(analyze_pcap(io.BytesIO(flood_blob)).analyses)[2]
    analyze = tdat.analyze_connection

    def crashing(connection, *args, **kwargs):
        if connection.key == victim:
            raise ZeroDivisionError("injected")
        return analyze(connection, *args, **kwargs)

    monkeypatch.setattr(tdat, "analyze_connection", crashing)
    return victim


@pytest.mark.parametrize("mode", sorted(MODES))
def test_crash_is_contained_to_its_connection(flood_blob, crash_third, mode):
    report = analyze_pcap(io.BytesIO(flood_blob), **MODES[mode])
    assert len(report) == 3
    assert crash_third not in report.analyses
    assert report.skipped_connections == 1
    (issue,) = report.health.issues
    assert issue.kind == "connection-analysis-failed"
    assert issue.detail == f"{crash_third}: ZeroDivisionError: injected"
    serial = analyze_pcap(io.BytesIO(flood_blob))
    assert render.payload_digest(
        render.report_payload(report)
    ) == render.payload_digest(render.report_payload(serial))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_strict_crash_raises_ingest_error(flood_blob, crash_third, mode):
    with pytest.raises(IngestError, match="ZeroDivisionError") as caught:
        analyze_pcap(io.BytesIO(flood_blob), strict=True, **MODES[mode])
    assert str(crash_third) in str(caught.value)
    assert caught.value.__cause__ is not None


def test_strict_incremental_crash_raises_ingest_error(flood_blob, crash_third):
    with pytest.raises(IngestError) as caught:
        list(iter_analyze_pcap(io.BytesIO(flood_blob), strict=True))
    assert isinstance(caught.value.__cause__, ZeroDivisionError)


def test_sender_location_analysis_is_pinned():
    blob = clean_trace_bytes(table_prefixes=800, duration_s=60)
    report = analyze_pcap(io.BytesIO(blob), sniffer_location="sender")
    assert sum(a.ack_shift.shifted_flights for a in report) == 0
    assert render.payload_digest(
        render.report_payload(report)
    ) == SENDER_SHA256


@pytest.mark.parametrize("location", ["recever", "", None, "Receiver"])
def test_unknown_sniffer_location_raises(location):
    blob = clean_trace_bytes(table_prefixes=800, duration_s=60)
    with pytest.raises(ValueError, match="receiver, sender, middle"):
        analyze_pcap(io.BytesIO(blob), sniffer_location=location)
    # Raised at the call, before any flow is read.
    with pytest.raises(ValueError, match="receiver, sender, middle"):
        iter_analyze_pcap(io.BytesIO(blob), sniffer_location=location)
