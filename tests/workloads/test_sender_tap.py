"""Tests for sender-side sniffer deployments (paper section III-C2).

With the tap at the router's egress, losses in the router's own output
queue happen *before* capture (upstream) and map to SendLocalLoss,
while path losses happen after capture (downstream) and map to
NetworkLoss — the mirror image of the collector-side deployment.
"""

import random

import pytest

from repro.analysis.series import SNIFFER_AT_SENDER, SeriesConfig
from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import BernoulliLoss, WindowLoss
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def run_sender_tap(nic_loss=None, path_loss=None, table_size=30_000, seed=75):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(table_size, random.Random(seed))
    handle = setup.add_router(
        RouterParams(
            name="r1",
            ip="10.75.0.1",
            table=table,
            tap_location="sender",
            nic_loss=nic_loss,
            upstream_loss=path_loss,
        )
    )
    setup.start()
    sim.run(until_us=seconds(300))
    report = analyze_pcap(
        setup.sniffer.sorted_records(), sniffer_location=SNIFFER_AT_SENDER
    )
    return next(iter(report)), setup, handle


class TestSenderTapTopology:
    def test_clean_transfer_analyzes(self):
        analysis, setup, handle = run_sender_tap()
        assert setup.collector.updates_archived > 0
        profile = analysis.connection.profile
        # With a sender-side tap, d1 (toward the receiver) is the big
        # half of the RTT and d2 (toward the sender) tiny.
        assert profile.d2_us < profile.d1_us

    def test_invalid_tap_location_rejected(self):
        sim = Simulator()
        setup = MonitoringSetup(sim)
        with pytest.raises(ValueError):
            setup.add_router(
                RouterParams(name="x", ip="10.0.9.1", tap_location="middle-ish")
            )


class TestSenderLocalLoss:
    def test_nic_drops_map_to_sender_local_loss(self):
        # Random drops: a full blackout before the tap leaves no
        # sequence evidence at all (go-back-N keeps the stream
        # contiguous), but scattered drops show up as filled holes.
        analysis, setup, handle = run_sender_tap(
            nic_loss=BernoulliLoss(0.04, RandomStreams(76).stream("nic"))
        )
        assert handle.nic_link.stats.dropped_loss > 0
        # Drops before the tap are upstream; the sender-side mapping
        # makes them the router's own (local) losses.
        assert analysis.factors.ratios["sender_local_loss"] > 0
        assert analysis.factors.ratios["receiver_local_loss"] == 0

    def test_path_loss_maps_to_network(self):
        analysis, setup, handle = run_sender_tap(
            path_loss=WindowLoss([(60_000, 400_000)])
        )
        assert handle.wan_link.stats.dropped_loss > 0
        assert analysis.factors.ratios["network_packet_loss"] > 0
        assert analysis.factors.ratios["sender_local_loss"] == 0

    def test_sender_group_includes_local_loss(self):
        analysis, _, _ = run_sender_tap(
            nic_loss=BernoulliLoss(0.05, RandomStreams(77).stream("nic"))
        )
        assert analysis.factors.group_ratios["sender"] > 0.1
