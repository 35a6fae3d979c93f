"""Tests for receiver flow control, zero-window probing and the ZeroAckBug."""

from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.receiver import RecvHalf

from tests.tcp.helpers import Net, connect_pair


class SlowReader:
    """Reads from an endpoint at a fixed rate (bytes per interval)."""

    def __init__(self, sim, endpoint, chunk_bytes, interval_us, start_after_us=0):
        self.sim = sim
        self.endpoint = endpoint
        self.chunk = chunk_bytes
        self.interval = interval_us
        self.consumed = bytearray()
        endpoint.on_data = lambda ep: None  # do not auto-drain
        sim.schedule(start_after_us, self._tick)

    def _tick(self):
        self.consumed.extend(self.endpoint.read(self.chunk))
        self.sim.schedule(self.interval, self._tick)


class TestAdvertisedWindow:
    def test_window_shrinks_when_app_stalls(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            server_config=TcpConfig(recv_buffer_bytes=65535),
            on_established_client=lambda ep: ep.send(bytes(200_000)),
        )
        reader = SlowReader(sim, server, chunk_bytes=2000,
                            interval_us=50_000, start_after_us=seconds(1))
        sim.run(until_us=seconds(0.5))
        # The app read nothing yet: buffer should be full, window ~0.
        assert server.receiver.advertised_window < 1400
        assert server.receiver.buffered_bytes > 60_000
        sim.run(until_us=seconds(120))
        assert len(reader.consumed) == 200_000

    def test_zero_window_stalls_sender(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            server_config=TcpConfig(recv_buffer_bytes=4200, mss=1400),
            on_established_client=lambda ep: ep.send(bytes(50_000)),
        )
        server.on_data = lambda ep: None
        sim.run(until_us=seconds(5))
        # Nothing read: at most the buffer can have been delivered.
        assert server.receiver.total_received_bytes <= 4200
        assert client.sender.unsent_bytes > 0

    def test_window_update_resumes_transfer(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            server_config=TcpConfig(recv_buffer_bytes=8400, mss=1400),
            on_established_client=lambda ep: ep.send(bytes(100_000)),
        )
        reader = SlowReader(sim, server, chunk_bytes=8400,
                            interval_us=100_000, start_after_us=seconds(1))
        sim.run(until_us=seconds(60))
        assert len(reader.consumed) == 100_000

    def test_probe_counter_increments(self):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            server_config=TcpConfig(recv_buffer_bytes=2800, mss=1400),
            on_established_client=lambda ep: ep.send(bytes(20_000)),
        )
        server.on_data = lambda ep: None
        sim.run(until_us=seconds(10))
        assert client.sender.total_probes >= 1


class TestZeroAckBug:
    def run_bug_scenario(self, bug_enabled):
        sim = Simulator()
        net = Net(sim)
        client, server = connect_pair(
            sim, net.a, net.b, 40000, 179,
            client_config=TcpConfig(
                zero_ack_bug=bug_enabled,
                zero_window_probe_delay_us=600_000,
            ),
            server_config=TcpConfig(recv_buffer_bytes=4200, mss=1400),
            on_established_client=lambda ep: ep.send(bytes(60_000)),
        )
        # The reader drains in bursts timed so a window update lands
        # between probe creation (persist fires ~0.55s) and probe
        # transmission (+600ms), which is the bug's race window.
        reader = SlowReader(sim, server, chunk_bytes=4200,
                            interval_us=700_000, start_after_us=seconds(1))
        sim.run(until_us=seconds(120))
        return client, server, reader

    def test_bug_discards_probes_and_recovers_via_rto(self):
        client, server, reader = self.run_bug_scenario(bug_enabled=True)
        assert client.sender.bug_discarded_probes >= 1
        # The retransmission machinery had to kick in to recover.
        assert client.sender.total_timeouts >= 1
        # Data still eventually arrives (TCP is reliable despite the bug).
        assert len(reader.consumed) == 60_000

    def test_without_bug_no_spurious_timeouts(self):
        client, server, reader = self.run_bug_scenario(bug_enabled=False)
        assert client.sender.bug_discarded_probes == 0
        assert len(reader.consumed) == 60_000


class TestZeroAckBugDeterministic:
    """Drive the probe race by hand against a bare SendHalf."""

    def setup_half(self, bug=True):
        from repro.tcp.sender import SendHalf

        sim = Simulator()
        transmitted = []
        config = TcpConfig(
            mss=1000,
            initial_cwnd_mss=4,
            zero_ack_bug=bug,
            persist_timeout_us=500_000,
            zero_window_probe_delay_us=30_000,
            delayed_ack=False,
        )
        half = SendHalf(
            sim, config,
            transmit=lambda seq, data, retx: transmitted.append(
                (sim.now, seq, len(data), retx)
            ),
        )
        return sim, half, transmitted

    def test_race_discards_probe_and_leaves_a_hole(self):
        sim, half, transmitted = self.setup_half(bug=True)
        half.on_ack(0, 3000)
        half.write(bytes(5000))  # 3 segments go out, 2000 bytes pent up
        assert [t[1] for t in transmitted] == [0, 1000, 2000]
        half.on_ack(3000, 0)  # everything acked, window closed
        assert half.peer_window == 0
        sim.run(until_us=520_000)  # persist fired, probe event pending
        half.on_ack(3000, 2000)  # window update inside the race window
        assert half.bug_discarded_probes == 1
        # The phantom byte was counted as sent: new data resumes at
        # 3001, leaving a one-byte hole at 3000 on the wire.
        sent_after = [t for t in transmitted if t[0] >= 520_000]
        assert sent_after and sent_after[0][1] == 3001
        # The receiver can never ack past 3000; dup acks accumulate and
        # the RTO eventually fires a go-back-N resend from 3000.
        sim.run(until_us=seconds(5))
        retx = [t for t in transmitted if t[3]]
        assert retx and retx[0][1] == 3000
        # ACK of everything clears the connection.
        half.on_ack(5000, 2000)
        assert half.unsent_bytes == 0

    def test_correct_stack_sends_on_window_update(self):
        sim, half, transmitted = self.setup_half(bug=False)
        half.on_ack(0, 3000)
        half.write(bytes(5000))
        half.on_ack(3000, 0)
        sim.run(until_us=520_000)
        half.on_ack(3000, 2000)  # window update: data flows immediately
        assert half.bug_discarded_probes == 0
        assert any(t[1] == 3000 and t[2] == 1000 for t in transmitted)


class TestRecvHalfUnit:
    def make(self, **config_kw):
        sim = Simulator()
        acks = []
        config = TcpConfig(**config_kw)
        half = RecvHalf(sim, config, send_ack=lambda: acks.append(sim.now))
        return sim, half, acks

    def test_in_order_delivery(self):
        sim, half, acks = self.make(delayed_ack=False)
        half.on_segment(0, b"abc")
        half.on_segment(3, b"def")
        assert half.read() == b"abcdef"
        assert half.rcv_nxt == 6
        assert len(acks) == 2

    def test_out_of_order_reassembly(self):
        sim, half, acks = self.make(delayed_ack=False)
        half.on_segment(3, b"def")
        assert half.read() == b""
        assert half.out_of_order_segments == 1
        half.on_segment(0, b"abc")
        assert half.read() == b"abcdef"

    def test_duplicate_acked_immediately(self):
        sim, half, acks = self.make(delayed_ack=True)
        half.on_segment(0, b"abc")
        half.on_segment(0, b"abc")  # duplicate
        assert half.duplicate_segments == 1
        assert acks  # immediate dup-ack despite delayed-ack policy

    def test_overlapping_segment_trimmed(self):
        sim, half, acks = self.make(delayed_ack=False)
        half.on_segment(0, b"abcd")
        half.on_segment(2, b"cdef")
        assert half.read() == b"abcdef"

    def test_delayed_ack_every_second_segment(self):
        sim, half, acks = self.make(delayed_ack=True)
        half.on_segment(0, b"x" * 1400)
        assert acks == []  # first segment: ack deferred
        half.on_segment(1400, b"x" * 1400)
        assert len(acks) == 1  # second segment: ack now

    def test_delayed_ack_timer_fires(self):
        sim, half, acks = self.make(delayed_ack=True)
        half.on_segment(0, b"only one")
        sim.run(until_us=seconds(1))
        assert len(acks) == 1
        assert acks[0] == 100_000  # the 100ms delack timeout

    def test_window_closes_with_buffer(self):
        sim, half, acks = self.make(recv_buffer_bytes=2800)
        half.on_segment(0, b"z" * 2800)
        assert half.advertised_window == 0
        half.read(1400)
        assert half.advertised_window == 1400

    def test_read_from_zero_window_sends_update(self):
        sim, half, acks = self.make(recv_buffer_bytes=2800, delayed_ack=False)
        half.on_segment(0, b"z" * 2800)
        n_acks = len(acks)
        half.read()  # reopens window completely
        assert len(acks) == n_acks + 1

    def test_peek_does_not_consume(self):
        sim, half, acks = self.make(delayed_ack=False)
        half.on_segment(0, b"hello")
        assert half.peek() == b"hello"
        assert half.read() == b"hello"

    def test_fin_handling(self):
        sim, half, acks = self.make(delayed_ack=False)
        half.on_segment(0, b"bye", fin=True)
        assert half.fin_received
        assert half.read() == b"bye"
