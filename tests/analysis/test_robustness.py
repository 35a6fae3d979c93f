"""Failure-injection tests: the analyzer must survive damaged captures."""

import io
import random

import pytest

from repro.analysis.profile import Trace
from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import mangle
from repro.netsim.simulator import Simulator
from repro.wire.pcap import PcapError, PcapRecord
from repro.workloads.scenarios import MonitoringSetup, RouterParams


@pytest.fixture(scope="module")
def records():
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(3_000, random.Random(55))
    setup.add_router(RouterParams(name="r1", ip="10.55.0.1", table=table))
    setup.start()
    sim.run(until_us=seconds(60))
    return setup.sniffer.sorted_records()


class TestDamagedCaptures:
    def test_corrupted_frames_skipped(self, records):
        rng = random.Random(1)
        damaged = []
        corrupted = 0
        for record in records:
            data = bytearray(record.data)
            if rng.random() < 0.1:
                # Smash the IP version/IHL byte: parsing must fail fast.
                data[14] = 0x00
                corrupted += 1
            damaged.append(PcapRecord(record.timestamp_us, bytes(data)))
        trace = Trace.from_pcap(damaged)
        assert trace.skipped_frames == corrupted
        report = analyze_pcap(damaged)
        assert len(report) == 1  # analysis proceeds on the survivors

    def test_truncated_frames_skipped(self, records):
        damaged = [
            PcapRecord(r.timestamp_us, r.data[:20]) if i % 7 == 0 else r
            for i, r in enumerate(records)
        ]
        trace = Trace.from_pcap(damaged)
        assert trace.skipped_frames > 0
        report = analyze_pcap(damaged)
        assert len(report) == 1

    def test_single_packet_connection_skipped(self, records):
        lonely = [records[len(records) // 2]]
        report = analyze_pcap(lonely)
        assert len(report) == 0
        assert report.skipped_connections >= 0

    def test_empty_capture(self):
        report = analyze_pcap([])
        assert len(report) == 0

    def test_ack_only_capture(self, records):
        from repro.wire import frames

        acks_only = []
        for record in records:
            if not frames.parse_packet(record.data).payload:
                acks_only.append(record)
        report = analyze_pcap(acks_only)
        # A capture with no data segments has nothing to analyze, but
        # must not crash.
        assert len(report) == 0

    def test_duplicated_records(self, records):
        doubled = []
        for record in records:
            doubled.append(record)
            doubled.append(record)
        report = analyze_pcap(doubled)
        analysis = next(iter(report))
        # Every data packet appears twice: massive duplicate labeling,
        # but the pipeline completes and ratios stay in range.
        for value in analysis.factors.ratios.values():
            assert 0.0 <= value <= 1.0


@pytest.mark.parametrize("seed", [3, 17])
def test_strict_analysis_raises_on_damaged_pcap_structure(seed):
    """strict=True raises where the default run accounts the damage."""
    blob = mangle(
        clean_trace_bytes(table_prefixes=800, duration_s=60),
        ["corrupt-record-header"], seed=seed,
    )
    assert analyze_pcap(io.BytesIO(blob)).health.failures
    with pytest.raises(PcapError):
        analyze_pcap(io.BytesIO(blob), strict=True)
