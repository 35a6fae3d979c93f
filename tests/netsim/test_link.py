"""Unit tests for links, loss models and path chains."""

import random

import pytest

from repro.netsim.link import (
    BernoulliLoss,
    CountedLoss,
    GilbertElliottLoss,
    Link,
    PathSegmentChain,
    WindowLoss,
)
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator


def make_packet(size=1000, src="10.0.0.1", dst="10.0.0.2"):
    return Packet(src=src, dst=dst, payload=None, wire_length=size)


def make_link(sim, sink, **kwargs):
    defaults = dict(
        bandwidth_bps=8_000_000,  # 1 byte per microsecond
        propagation_delay_us=100,
    )
    defaults.update(kwargs)
    return Link(sim, "l", deliver=sink.append, **defaults)


class TestLinkDelivery:
    def test_single_packet_timing(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink)
        link.send(make_packet(size=1000))
        sim.run()
        # 1000 bytes at 1 B/us = 1000us serialization + 100us propagation.
        assert sim.now == 1100
        assert len(sink) == 1

    def test_serialization_is_sequential(self):
        sim = Simulator()
        arrivals = []
        link = Link(
            sim,
            "l",
            bandwidth_bps=8_000_000,
            propagation_delay_us=0,
            deliver=lambda p: arrivals.append(sim.now),
        )
        link.send(make_packet(size=500))
        link.send(make_packet(size=500))
        sim.run()
        assert arrivals == [500, 1000]

    def test_min_serialization_one_us(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, bandwidth_bps=1e12, propagation_delay_us=0)
        link.send(make_packet(size=40))
        sim.run()
        assert sim.now == 1

    def test_buffer_overflow_drops_tail(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink, buffer_packets=2)
        assert link.send(make_packet())
        assert link.send(make_packet())
        assert not link.send(make_packet())
        sim.run()
        assert len(sink) == 2
        assert link.stats.dropped_buffer == 1
        assert link.stats.dropped_loss == 0

    def test_queue_depth(self):
        sim = Simulator()
        link = make_link(sim, [])
        link.send(make_packet())
        link.send(make_packet())
        assert link.queue_depth == 2
        sim.run()
        assert link.queue_depth == 0

    def test_stats_counts(self):
        sim = Simulator()
        sink = []
        link = make_link(sim, sink)
        for _ in range(3):
            link.send(make_packet(size=100))
        sim.run()
        assert link.stats.enqueued == 3
        assert link.stats.delivered == 3
        assert link.stats.bytes_delivered == 300

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "l", bandwidth_bps=0, propagation_delay_us=0, deliver=print)
        with pytest.raises(ValueError):
            Link(sim, "l", bandwidth_bps=1, propagation_delay_us=-1, deliver=print)
        with pytest.raises(ValueError):
            Link(
                sim,
                "l",
                bandwidth_bps=1,
                propagation_delay_us=0,
                deliver=print,
                buffer_packets=0,
            )


class TestTaps:
    def test_tap_sees_packet_before_wire_loss(self):
        sim = Simulator()
        sink = []
        seen = []
        link = make_link(sim, sink, loss_model=WindowLoss([(0, 10_000)]))
        link.add_tap(lambda p, t: seen.append((p.packet_id, t)))
        pkt = make_packet(size=100)
        link.send(pkt)
        sim.run()
        assert seen == [(pkt.packet_id, 100)]
        assert sink == []
        assert link.stats.dropped_loss == 1

    def test_tap_timing_is_serialization_end(self):
        sim = Simulator()
        times = []
        link = make_link(sim, [])
        link.add_tap(lambda p, t: times.append(t))
        link.send(make_packet(size=250))
        sim.run()
        assert times == [250]


class TestLossModels:
    def test_window_loss(self):
        model = WindowLoss([(100, 200)])
        pkt = make_packet()
        assert model.should_drop(pkt, 150)
        assert not model.should_drop(pkt, 99)
        assert not model.should_drop(pkt, 200)

    def test_counted_loss(self):
        model = CountedLoss(2)
        pkt = make_packet()
        assert model.should_drop(pkt, 0)
        assert model.should_drop(pkt, 1)
        assert not model.should_drop(pkt, 2)
        model.arm(1)
        assert model.should_drop(pkt, 3)

    def test_bernoulli_rate_bounds(self):
        with pytest.raises(ValueError):
            BernoulliLoss(1.5, random.Random(1))

    def test_bernoulli_statistics(self):
        rng = random.Random(42)
        model = BernoulliLoss(0.3, rng)
        pkt = make_packet()
        drops = sum(model.should_drop(pkt, 0) for _ in range(10_000))
        assert 2700 < drops < 3300

    def test_gilbert_elliott_produces_bursts(self):
        rng = random.Random(7)
        model = GilbertElliottLoss(
            rng, p_good_to_bad=0.05, p_bad_to_good=0.2, loss_in_bad=1.0
        )
        pkt = make_packet()
        outcomes = [model.should_drop(pkt, i) for i in range(5000)]
        # There must be at least one run of >= 3 consecutive drops.
        run, best = 0, 0
        for dropped in outcomes:
            run = run + 1 if dropped else 0
            best = max(best, run)
        assert best >= 3


class TestPathSegmentChain:
    def test_two_link_chain_delivers_end_to_end(self):
        sim = Simulator()
        sink = []
        second = Link(
            sim, "down", bandwidth_bps=8_000_000, propagation_delay_us=50,
            deliver=sink.append,
        )
        first = Link(
            sim, "up", bandwidth_bps=8_000_000, propagation_delay_us=100,
            deliver=lambda p: None,
        )
        chain = PathSegmentChain([first, second])
        chain.send(make_packet(size=100))
        sim.run()
        # 100us ser + 100us prop + 100us ser + 50us prop.
        assert sim.now == 350
        assert len(sink) == 1

    def test_downstream_loss_after_upstream_tap(self):
        """A sniffer on link 1 sees packets the receiver never gets."""
        sim = Simulator()
        sink = []
        captured = []
        second = Link(
            sim, "down", bandwidth_bps=8_000_000, propagation_delay_us=0,
            deliver=sink.append, loss_model=WindowLoss([(0, 10**9)]),
        )
        first = Link(
            sim, "up", bandwidth_bps=8_000_000, propagation_delay_us=0,
            deliver=lambda p: None,
        )
        first.add_tap(lambda p, t: captured.append(p.packet_id))
        chain = PathSegmentChain([first, second])
        chain.send(make_packet())
        sim.run()
        assert len(captured) == 1
        assert sink == []

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            PathSegmentChain([])
