"""Tests for capture-void detection and exclusion (paper section II-A)."""

import random

from repro.analysis.tdat import analyze_pcap
from repro.analysis.voids import find_capture_voids
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams

from tests.analysis.helpers import TraceBuilder


class TestVoidDetectorUnit:
    def test_clean_connection_no_void(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_200, 1400, 1400)
        builder.ack(21_000, 2800)
        report = find_capture_voids(builder.build())
        assert not report.detected
        assert report.phantom_bytes == 0

    def test_acked_but_never_seen_bytes_are_a_void(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        # [1400, 2800) was transmitted and delivered but the sniffer
        # dropped it: the receiver acks straight through and the fill
        # never appears in the capture.
        builder.data(500_000, 2800, 1400)
        builder.ack(501_000, 4200)
        report = find_capture_voids(builder.build())
        assert report.detected
        assert report.phantom_bytes == 1400
        (window,) = report.void_windows.ranges
        assert window.start == 20_000
        assert window.end == 500_000

    def test_network_loss_is_not_a_void(self):
        """A real loss is eventually filled by a visible retransmission."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_200, 2800, 1400)  # hole at [1400, 2800)
        builder.ack(21_000, 1400)
        builder.data(400_000, 1400, 1400)  # the fill IS captured
        builder.ack(401_000, 4200)
        report = find_capture_voids(builder.build())
        assert not report.detected

    def test_multiple_voids(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(100_000, 2800, 1400)  # void 1: [1400, 2800)
        builder.data(200_000, 5600, 1400)  # void 2: [4200, 5600)
        builder.ack(201_000, 7000)
        report = find_capture_voids(builder.build())
        assert report.detected
        assert report.phantom_bytes == 2800
        # The two hole windows abut at the middle packet and coalesce.
        assert [(r.start, r.end) for r in report.void_windows] == [
            (20_000, 200_000)
        ]


class TestVoidExclusionEndToEnd:
    def run_with_drop_window(self, drop_windows):
        sim = Simulator()
        setup = MonitoringSetup(sim, sniffer_drop_windows=drop_windows)
        table = generate_table(30_000, random.Random(51))
        setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
        setup.start()
        sim.run(until_us=seconds(120))
        assert setup.collector.updates_archived == len(table.to_updates())
        report = analyze_pcap(setup.sniffer.sorted_records())
        return next(iter(report)), setup

    def test_sniffer_drops_detected_and_excluded(self):
        analysis, setup = self.run_with_drop_window([(30_000, 70_000)])
        assert setup.sniffer.dropped_records > 0
        voids = analysis.capture_voids
        assert voids.detected
        assert voids.phantom_bytes > 0
        # The void window covers the injected drop period.
        assert voids.void_windows.overlapping(30_000, 70_000)

    def test_clean_capture_not_flagged(self):
        analysis, setup = self.run_with_drop_window(None)
        assert not analysis.capture_voids.detected

    def test_exclusion_changes_ratios(self):
        from repro.analysis.factors import classify

        analysis, _ = self.run_with_drop_window([(30_000, 70_000)])
        with_exclusion = analysis.factors
        without_exclusion = classify(analysis.series, exclude=None)
        # The void period must not be attributed to any factor when
        # excluded; ratios are computed over a smaller period.
        assert (
            with_exclusion.analysis_period_us
            < without_exclusion.analysis_period_us
        )
