"""Tests for sniffer-location inference and link jitter robustness."""

import random

import pytest

from repro.analysis.profile import Trace, infer_sniffer_location
from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def capture(tap_location, jitter=False, seed=85):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(10_000, random.Random(seed))
    setup.add_router(
        RouterParams(
            name="r1", ip="10.85.0.1", table=table, tap_location=tap_location
        )
    )
    setup.start()
    sim.run(until_us=seconds(120))
    return setup.sniffer.sorted_records()


class TestLocationInference:
    def test_receiver_side_tap(self):
        records = capture("receiver")
        connection = next(iter(Trace.from_pcap(records)))
        assert infer_sniffer_location(connection) == "receiver"

    def test_sender_side_tap(self):
        records = capture("sender")
        connection = next(iter(Trace.from_pcap(records)))
        assert infer_sniffer_location(connection) == "sender"

    def test_unfinalized_connection_rejected(self):
        from repro.analysis.profile import Connection

        with pytest.raises(ValueError):
            infer_sniffer_location(Connection(("a", 1, "b", 2)))


class TestLinkJitter:
    def make_link(self, sim, sink, jitter_us, rng):
        return Link(
            sim, "j", bandwidth_bps=8_000_000, propagation_delay_us=1_000,
            deliver=sink.append, jitter_us=jitter_us, jitter_rng=rng,
        )

    def test_jitter_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "j", 1e6, 0, deliver=print, jitter_us=100)

    def test_negative_jitter_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "j", 1e6, 0, deliver=print, jitter_us=-1,
                 jitter_rng=random.Random(1))

    def test_jitter_delays_within_bounds(self):
        sim = Simulator()
        arrivals = []
        link = Link(
            sim, "j", bandwidth_bps=8_000_000, propagation_delay_us=1_000,
            deliver=lambda p: arrivals.append(sim.now),
            jitter_us=500, jitter_rng=random.Random(3),
        )
        for _ in range(50):
            link.send(Packet(src="a", dst="b", payload=None, wire_length=100))
        sim.run()
        # Each packet: 100us serialization slot + 1000us base + <=500us.
        assert len(arrivals) == 50
        spread = {a - (i + 1) * 100 for i, a in enumerate(arrivals)}
        assert min(spread) >= 1_000
        assert max(spread) <= 1_500 + 500  # FIFO hold-back can add more

    def test_jitter_never_reorders(self):
        sim = Simulator()
        order = []
        link = Link(
            sim, "j", bandwidth_bps=80_000_000, propagation_delay_us=100,
            deliver=lambda p: order.append(p.packet_id),
            jitter_us=2_000, jitter_rng=random.Random(9),
        )
        packets = [
            Packet(src="a", dst="b", payload=None, wire_length=100)
            for _ in range(100)
        ]
        for packet in packets:
            link.send(packet)
        sim.run()
        assert order == [p.packet_id for p in packets]

    def test_analysis_robust_under_jitter(self):
        """RTT estimates and factor groups survive 20% RTT jitter."""
        sim = Simulator()
        streams = RandomStreams(86)
        setup = MonitoringSetup(sim)
        table = generate_table(20_000, random.Random(86))
        handle = setup.add_router(
            RouterParams(name="r1", ip="10.86.0.1", table=table)
        )
        # Retrofit jitter onto the WAN links (both directions).
        for link in (handle.wan_link, handle.ack_upstream_link):
            link.jitter_us = 2_000
            link._jitter_rng = streams.stream(f"jitter-{link.name}")
        setup.start()
        sim.run(until_us=seconds(120))
        report = analyze_pcap(setup.sniffer.sorted_records())
        analysis = next(iter(report))
        profile = analysis.connection.profile
        assert 7_000 < profile.rtt_us < 16_000
        assert infer_sniffer_location(analysis.connection) == "receiver"
