"""Integration tests: TCP endpoints over the simulated network."""

import pytest

from repro.core.units import seconds
from repro.netsim.link import CountedLoss, WindowLoss
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.socket import TcpState

from tests.tcp.helpers import Net, collect_all, connect_pair


def run_transfer(sim, net, payload, client_config=None, server_config=None):
    """Handshake + one-way transfer from client(a) to server(b)."""
    received = bytearray()

    def on_established(ep):
        ep.send(payload)

    client, server = connect_pair(
        sim, net.a, net.b, 40000, 179,
        client_config=client_config, server_config=server_config,
        on_established_client=on_established,
    )
    collect_all(server, received)
    sim.run(until_us=seconds(600))
    return client, server, bytes(received)


class TestHandshake:
    def test_three_way_handshake(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(sim, net.a, net.b, 40000, 179)
        sim.run(until_us=seconds(1))
        assert client.state is TcpState.ESTABLISHED
        assert server.state is TcpState.ESTABLISHED
        # Client measured the handshake RTT (2 * 5ms one-way).
        assert client.sender.rtt.srtt_us == pytest.approx(10_000, abs=2_000)

    def test_mss_negotiation(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(mss=1400),
            server_config=TcpConfig(mss=536),
        )
        sim.run(until_us=seconds(1))
        assert client.effective_mss == 536
        assert server.effective_mss == 536

    def test_syn_retransmission_on_loss(self):
        sim = Simulator()
        net = Net(sim, loss_up=CountedLoss(1))  # first SYN dies
        client, server = connect_pair(sim, net.a, net.b, 40000, 179)
        sim.run(until_us=seconds(5))
        assert client.state is TcpState.ESTABLISHED
        assert server.state is TcpState.ESTABLISHED

    def test_connect_twice_rejected(self):
        sim = Simulator()
        net = Net(sim)
        client, _ = connect_pair(sim, net.a, net.b, 40000, 179)
        with pytest.raises(RuntimeError):
            client.connect()


class TestDataTransfer:
    def test_small_transfer(self):
        sim = Simulator()
        net = Net(sim)
        _, _, received = run_transfer(sim, net, b"hello bgp world")
        assert received == b"hello bgp world"

    def test_large_transfer_integrity(self):
        sim = Simulator()
        net = Net(sim)
        payload = bytes(i % 251 for i in range(300_000))
        _, _, received = run_transfer(sim, net, payload)
        assert received == payload

    def test_transfer_faster_with_bigger_window(self):
        payload = bytes(500_000)
        small = _completion_time(payload, window=16384)
        large = _completion_time(payload, window=65535)
        assert large < small

    def test_send_before_established_rejected(self):
        sim = Simulator()
        net = Net(sim)
        client, _ = connect_pair(sim, net.a, net.b, 40000, 179)
        with pytest.raises(RuntimeError):
            client.send(b"too early")

    def test_bidirectional_transfer(self):
        sim = Simulator()
        net = Net(sim)
        got_a, got_b = bytearray(), bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_established_client=lambda ep: ep.send(b"from-client"),
            on_established_server=lambda ep: None,
        )

        def server_established(ep):
            ep.send(b"from-server")

        server.on_established = server_established
        collect_all(server, got_b)
        collect_all(client, got_a)
        sim.run(until_us=seconds(10))
        assert bytes(got_b) == b"from-client"
        assert bytes(got_a) == b"from-server"


def _completion_time(payload, window):
    sim = Simulator()
    net = Net(sim, delay_us=20_000)
    done = []
    received = bytearray()

    client, server = connect_pair(
        sim, net.a, net.b, 40000, 179,
        server_config=TcpConfig(recv_buffer_bytes=window),
        on_established_client=lambda ep: ep.send(payload),
    )

    def on_data(ep):
        received.extend(ep.read())
        if len(received) >= len(payload) and not done:
            done.append(sim.now)

    server.on_data = on_data
    sim.run(until_us=seconds(600))
    assert done, "transfer did not complete"
    return done[0]


class TestLossRecovery:
    def test_recovers_from_single_loss(self):
        sim = Simulator()
        loss = CountedLoss(0)
        net = Net(sim, loss_up=loss)
        payload = bytes(100_000)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_established_client=lambda ep: ep.send(payload),
        )
        collect_all(server, received)
        sim.schedule(50_000, loss.arm, 1)  # drop one data packet mid-flight
        sim.run(until_us=seconds(600))
        assert len(received) == len(payload)
        assert client.sender.total_retransmissions >= 1

    def test_fast_retransmit_fires(self):
        sim = Simulator()
        loss = CountedLoss(0)
        net = Net(sim, loss_up=loss)
        payload = bytes(200_000)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_established_client=lambda ep: ep.send(payload),
        )
        collect_all(server, received)
        # Drop one packet once the window has opened enough for 3 dupacks.
        sim.schedule(50_000, loss.arm, 1)
        sim.run(until_us=seconds(600))
        assert len(received) == len(payload)
        assert client.sender.total_fast_retransmits >= 1

    def test_rto_after_blackout(self):
        sim = Simulator()
        # Blackout long enough to kill a whole flight => timeout recovery.
        net = Net(sim, loss_up=WindowLoss([(50_000, seconds(2))]))
        payload = bytes(400_000)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_established_client=lambda ep: ep.send(payload),
        )
        collect_all(server, received)
        sim.run(until_us=seconds(600))
        assert len(received) == len(payload)
        assert client.sender.total_timeouts >= 1
        # cwnd collapsed at some point: ssthresh must be well under 64KB.
        assert client.sender.cc.ssthresh < 65535

    def test_consecutive_timeouts_back_off(self):
        sim = Simulator()
        net = Net(sim, loss_up=WindowLoss([(50_000, seconds(5))]))
        payload = bytes(400_000)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_established_client=lambda ep: ep.send(payload),
        )
        collect_all(server, received)
        sim.run(until_us=seconds(600))
        assert len(received) == len(payload)
        assert client.sender.total_timeouts >= 3


class TestClose:
    def test_graceful_close(self):
        sim = Simulator()
        net = Net(sim)
        received = bytearray()
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_established_client=lambda ep: (ep.send(b"bye"), ep.close()),
        )
        collect_all(server, received)
        sim.run(until_us=seconds(10))
        assert bytes(received) == b"bye"
        assert server.receiver.fin_received

    def test_abort_sends_rst(self):
        sim = Simulator()
        net = Net(sim)
        closed = []
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            on_close_server=lambda ep: closed.append("server"),
        )
        sim.run(until_us=seconds(1))
        client.abort()
        sim.run(until_us=seconds(2))
        assert server.state is TcpState.CLOSED
        assert "server" in closed

    def test_silent_kill_blackholes(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(sim, net.a, net.b, 40000, 179)
        sim.schedule(seconds(1), server.kill)
        sim.schedule(seconds(1) + 1000, lambda: client.send(bytes(50_000)))
        sim.run(until_us=seconds(30))
        # The client keeps retransmitting into the void.
        assert client.sender.total_timeouts >= 2
        assert net.b.unmatched_packets > 0
