"""Tests for RFC 7323 window scaling, end to end through the analyzer."""

import random

import pytest

from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.socket import connect_pair
from repro.workloads.scenarios import MonitoringSetup, RouterParams

from tests.tcp.helpers import Net, collect_all


class TestNegotiation:
    def pair(self, client_scale, server_scale):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(window_scale=client_scale),
            server_config=TcpConfig(
                window_scale=server_scale, recv_buffer_bytes=512 * 1024
            ),
        )
        sim.run(until_us=seconds(1))
        return client, server

    def test_both_sides_negotiate(self):
        client, server = self.pair(2, 3)
        assert client.send_window_scale == 2
        assert client.recv_window_scale == 3
        assert server.send_window_scale == 3
        assert server.recv_window_scale == 2

    def test_one_sided_offer_disables(self):
        client, server = self.pair(2, 0)
        assert client.send_window_scale == 0
        assert client.recv_window_scale == 0
        assert server.send_window_scale == 0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            TcpConfig(window_scale=15)


class TestScaledTransfer:
    def test_window_beyond_64k_usable(self):
        """A 512KB receive buffer only helps if scaling is negotiated."""

        def completion_time(scale):
            sim = Simulator()
            net = Net(sim, delay_us=30_000)  # 60ms+ RTT: BDP >> 64KB
            payload = bytes(2_000_000)
            received = bytearray()
            done = []
            client, server = connect_pair(
                sim, net.a, net.b, 40000, 179,
                client_config=TcpConfig(
                    window_scale=scale, initial_ssthresh_bytes=10**9
                ),
                server_config=TcpConfig(
                    window_scale=scale, recv_buffer_bytes=512 * 1024
                ),
                on_established_client=lambda ep: ep.send(payload),
            )

            def on_data(ep):
                received.extend(ep.read())
                if len(received) >= len(payload) and not done:
                    done.append(sim.now)

            server.on_data = on_data
            sim.run(until_us=seconds(600))
            assert len(received) == len(payload)
            return done[0]

        scaled = completion_time(scale=4)
        unscaled = completion_time(scale=0)
        # Without scaling, throughput caps at 65535/RTT; with it the
        # full buffer is usable, so the transfer is much faster.
        assert scaled < unscaled * 0.6

    def test_peer_window_exceeds_16_bits(self):
        sim = Simulator()
        net = Net(sim)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(window_scale=4),
            server_config=TcpConfig(
                window_scale=4, recv_buffer_bytes=512 * 1024
            ),
            # Data must flow: the SYN/SYN-ACK windows are unscaled per
            # RFC 7323, so only post-handshake ACKs carry scaled values.
            on_established_client=lambda ep: ep.send(bytes(200_000)),
        )
        collect_all(server, received)
        sim.run(until_us=seconds(30))
        assert len(received) == 200_000
        assert client.sender.peer_window > 65535


class TestAnalyzerScaling:
    def test_profile_sees_scaled_windows(self):
        sim = Simulator()
        setup = MonitoringSetup(
            sim,
            collector_tcp=TcpConfig(
                window_scale=3, recv_buffer_bytes=256 * 1024
            ),
        )
        table = generate_table(60_000, random.Random(91))
        setup.add_router(
            RouterParams(
                name="r1",
                ip="10.91.0.1",
                table=table,
                tcp=TcpConfig(window_scale=3),
                upstream_delay_us=15_000,
            )
        )
        setup.start()
        sim.run(until_us=seconds(120))
        report = analyze_pcap(setup.sniffer.sorted_records())
        analysis = next(iter(report))
        profile = analysis.connection.profile
        # The analyzer recovered the true (scaled) window, not the raw
        # 16-bit field value.
        assert profile.max_advertised_window > 65535
        assert profile.max_advertised_window <= 256 * 1024

    def test_unscaled_trace_unchanged(self):
        sim = Simulator()
        setup = MonitoringSetup(sim)
        table = generate_table(5_000, random.Random(92))
        setup.add_router(RouterParams(name="r1", ip="10.92.0.1", table=table))
        setup.start()
        sim.run(until_us=seconds(60))
        report = analyze_pcap(setup.sniffer.sorted_records())
        analysis = next(iter(report))
        assert analysis.connection.profile.max_advertised_window <= 65535
