"""Tests for SACK: codec, negotiation, block generation and recovery."""

import pytest

from repro.core.units import seconds
from repro.netsim.link import BernoulliLoss, CountedLoss
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.receiver import RecvHalf
from repro.wire import tcpw

from tests.tcp.helpers import Net, collect_all, connect_pair
from tests.wire.frame_oracle import tcp_decode


class TestSackCodec:
    def make(self, **kw):
        defaults = dict(
            src_port=1, dst_port=2, seq=0, ack=100, flags=tcpw.ACK,
            window=65535,
        )
        defaults.update(kw)
        return tcpw.TcpHeader(**defaults)

    def test_sack_permitted_roundtrip(self):
        header = self.make(flags=tcpw.SYN, sack_permitted=True, mss_option=1400)
        decoded = tcp_decode(header.encode("1.1.1.1", "2.2.2.2"))
        assert decoded.sack_permitted
        assert decoded.mss_option == 1400

    def test_sack_blocks_roundtrip(self):
        blocks = ((1000, 2400), (5000, 6400), (9000, 10400))
        header = self.make(sack_blocks=blocks)
        decoded = tcp_decode(header.encode("1.1.1.1", "2.2.2.2"))
        assert decoded.sack_blocks == blocks

    def test_no_sack_by_default(self):
        decoded = tcp_decode(self.make().encode("1.1.1.1", "2.2.2.2"))
        assert not decoded.sack_permitted
        assert decoded.sack_blocks == ()

    def test_at_most_four_blocks_encoded(self):
        blocks = tuple((i * 1000, i * 1000 + 500) for i in range(6))
        header = self.make(sack_blocks=blocks)
        decoded = tcp_decode(header.encode("1.1.1.1", "2.2.2.2"))
        assert len(decoded.sack_blocks) == 4

    def test_checksum_still_valid_with_sack(self):
        header = self.make(sack_blocks=((1, 2),), payload=b"xy")
        raw = header.encode("1.1.1.1", "2.2.2.2")
        decoded = tcp_decode(raw, "1.1.1.1", "2.2.2.2", verify_checksum=True)
        assert decoded.payload == b"xy"


class TestSackBlockGeneration:
    def make_half(self):
        sim = Simulator()
        return RecvHalf(sim, TcpConfig(delayed_ack=False), send_ack=lambda: None)

    def test_no_blocks_when_in_order(self):
        half = self.make_half()
        half.on_segment(0, b"x" * 1000)
        assert half.sack_blocks() == ()

    def test_single_block(self):
        half = self.make_half()
        half.on_segment(2000, b"x" * 1000)
        assert half.sack_blocks() == ((2000, 3000),)

    def test_adjacent_stash_coalesces(self):
        half = self.make_half()
        half.on_segment(2000, b"x" * 1000)
        half.on_segment(3000, b"x" * 1000)
        assert half.sack_blocks() == ((2000, 4000),)

    def test_most_recent_block_first(self):
        half = self.make_half()
        half.on_segment(2000, b"x" * 500)
        half.on_segment(9000, b"x" * 500)  # most recent
        blocks = half.sack_blocks()
        assert blocks[0] == (9000, 9500)
        assert blocks[1] == (2000, 2500)

    def test_blocks_clear_after_hole_fills(self):
        half = self.make_half()
        half.on_segment(1000, b"x" * 1000)
        half.on_segment(0, b"x" * 1000)
        assert half.sack_blocks() == ()
        assert half.rcv_nxt == 2000


class TestSackNegotiation:
    def test_negotiated_when_both_sides_enable(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(sack=True),
            server_config=TcpConfig(sack=True),
        )
        sim.run(until_us=seconds(1))
        assert client.sack_negotiated
        assert server.sack_negotiated
        assert client.sender.sack_enabled

    def test_not_negotiated_when_one_side_lacks_it(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(sack=True),
            server_config=TcpConfig(sack=False),
        )
        sim.run(until_us=seconds(1))
        assert not client.sack_negotiated
        assert not server.sack_negotiated


class TestSackRecovery:
    def run_lossy_transfer(self, sack, drop_at_us=60_000, drop_count=3,
                           payload_len=400_000):
        sim = Simulator()
        loss = CountedLoss(0)
        net = Net(sim, loss_up=loss)
        payload = bytes(i % 251 for i in range(payload_len))
        received = bytearray()
        config = TcpConfig(sack=sack)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=config, server_config=TcpConfig(sack=sack),
            on_established_client=lambda ep: ep.send(payload),
        )
        collect_all(server, received)
        sim.schedule(drop_at_us, loss.arm, drop_count)
        sim.run(until_us=seconds(600))
        assert bytes(received) == payload
        return client, sim.now

    def test_sack_transfer_completes_after_multi_loss(self):
        client, _ = self.run_lossy_transfer(sack=True)
        assert client.sender.total_retransmissions >= 3

    def test_sack_retransmits_less_than_goback_n(self):
        """SACK resends only the holes; an RTO-driven recovery resends
        delivered data too."""
        with_sack, _ = self.run_lossy_transfer(sack=True, drop_count=5)
        without, _ = self.run_lossy_transfer(sack=False, drop_count=5)
        assert (
            with_sack.sender.total_retransmissions
            <= without.sender.total_retransmissions
        )

    def test_sack_under_random_loss(self):
        sim = Simulator()
        streams = RandomStreams(9)
        net = Net(sim, loss_up=BernoulliLoss(0.03, streams.stream("loss")))
        payload = bytes(300_000)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(sack=True),
            server_config=TcpConfig(sack=True),
            on_established_client=lambda ep: ep.send(payload),
        )
        collect_all(server, received)
        sim.run(until_us=seconds(600))
        assert len(received) == len(payload)

    def test_analyzer_handles_sack_traffic(self):
        """T-DAT's window-based assumption must degrade gracefully."""
        import random

        from repro.analysis.tdat import analyze_pcap
        from repro.bgp.table import generate_table
        from repro.workloads.scenarios import MonitoringSetup, RouterParams

        sim = Simulator()
        streams = RandomStreams(10)
        setup = MonitoringSetup(sim)
        table = generate_table(30_000, random.Random(10))
        setup.add_router(
            RouterParams(
                name="r1",
                ip="10.10.0.1",
                table=table,
                tcp=TcpConfig(sack=True),
                upstream_loss=BernoulliLoss(0.02, streams.stream("loss")),
            )
        )
        setup.start()
        sim.run(until_us=seconds(300))
        report = analyze_pcap(setup.sniffer.sorted_records())
        analysis = next(iter(report))
        # Retransmissions are still labeled and losses attributed.
        assert analysis.labeling.retransmissions()
        assert analysis.factors.ratios["network_packet_loss"] >= 0
