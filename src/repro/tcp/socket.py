"""TCP endpoints: handshake, segment I/O and application interface.

A :class:`TcpEndpoint` couples a :class:`~repro.tcp.sender.SendHalf`
and a :class:`~repro.tcp.receiver.RecvHalf` behind a three-way
handshake, translating between relative sequence space and wire
sequence numbers.  Segments travel through the simulator as
:class:`~repro.wire.tcpw.TcpHeader` payloads inside
:class:`~repro.netsim.packet.Packet` objects, so a sniffer tap can
serialize them into byte-faithful pcap frames.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from repro.netsim.node import Host
from repro.netsim.packet import Packet, tcp_wire_length
from repro.netsim.simulator import Simulator, Timer
from repro.tcp.options import TcpConfig
from repro.tcp.receiver import RecvHalf
from repro.tcp.sender import SendHalf
from repro.wire import tcpw

MAX_SYN_RETRIES = 6


class TcpState(enum.Enum):
    """The subset of RFC 793 states the simulator distinguishes."""

    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin-wait"
    CLOSE_WAIT = "close-wait"
    LAST_ACK = "last-ack"


class TcpEndpoint:
    """One side of a TCP connection on a simulated host."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_port: int,
        remote_ip: str,
        remote_port: int,
        config: TcpConfig | None = None,
        on_established: Callable[["TcpEndpoint"], None] | None = None,
        on_data: Callable[["TcpEndpoint"], None] | None = None,
        on_close: Callable[["TcpEndpoint"], None] | None = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.local_port = local_port
        self.remote_ip = remote_ip
        self.remote_port = remote_port
        self.config = config or TcpConfig()
        self.on_established = on_established
        self.on_data = on_data
        self.on_close = on_close
        self.state = TcpState.CLOSED
        self.local_isn = self.config.isn
        self.remote_isn = 0
        self.effective_mss = self.config.mss
        self.sack_negotiated = False
        # RFC 7323: own shift applies to windows we advertise, the
        # peer's to windows we receive; active only if both offered it.
        self.send_window_scale = 0
        self.recv_window_scale = 0
        self.sender = SendHalf(
            sim, self.config, self._transmit_data, self._buffer_drained
        )
        self.receiver = RecvHalf(
            sim, self.config, self._send_pure_ack, self._readable
        )
        self._syn_timer = Timer(sim, self._retransmit_syn, name="syn-rto")
        self._syn_retries = 0
        self._fin_sent = False
        self.established_at_us: int | None = None
        self.closed_at_us: int | None = None
        self._ip_id = 0
        self.on_buffer_drained: Callable[[], None] | None = None
        self._register()

    # ------------------------------------------------------------------
    # Registration and identity
    # ------------------------------------------------------------------
    @property
    def flow_key(self) -> tuple[str, int, str, int]:
        """The inbound 4-tuple this endpoint answers to."""
        return (self.remote_ip, self.remote_port, self.host.ip, self.local_port)

    def _register(self) -> None:
        self.host.register_flow(self.flow_key, self._on_packet)

    def _unregister(self) -> None:
        self.host.unregister_flow(self.flow_key)

    # ------------------------------------------------------------------
    # Open / close
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Active open: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"connect from state {self.state}")
        self.state = TcpState.SYN_SENT
        self._syn_sent_at = self.sim.now
        self._send_syn()

    def listen(self) -> None:
        """Passive open: await the peer's SYN."""
        if self.state is not TcpState.CLOSED:
            raise RuntimeError(f"listen from state {self.state}")
        self.state = TcpState.LISTEN

    def close(self) -> None:
        """Graceful close: FIN after the send buffer drains."""
        self.sender.close()
        if self.sender.buffered_bytes == 0:
            self._send_fin()

    def abort(self) -> None:
        """Hard close: send RST and tear down immediately."""
        self._emit(flags=tcpw.RST | tcpw.ACK)
        self.kill(silent=True)

    def kill(self, silent: bool = True) -> None:
        """Stop all processing; with ``silent`` nothing is transmitted.

        Models the collector failure in the paper's Figure 9: the box
        dies, never ACKs again, and the peer retransmits into the void.
        """
        self.state = TcpState.CLOSED
        self.closed_at_us = self.sim.now
        self.sender.stop_timers()
        self._syn_timer.stop()
        self._unregister()
        if self.on_close is not None:
            self.on_close(self)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------
    def send(self, data: bytes) -> None:
        """Queue application bytes for transmission."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            raise RuntimeError(f"send in state {self.state}")
        self.sender.write(data)

    def read(self, max_bytes: int | None = None) -> bytes:
        """Consume received in-order bytes."""
        return self.receiver.read(max_bytes)

    def peek(self, max_bytes: int | None = None) -> bytes:
        """Inspect received in-order bytes without consuming."""
        return self.receiver.peek(max_bytes)

    @property
    def readable_bytes(self) -> int:
        """In-order bytes waiting to be read."""
        return self.receiver.buffered_bytes

    # ------------------------------------------------------------------
    # Segment construction
    # ------------------------------------------------------------------
    def _wire_seq(self, rel_seq: int) -> int:
        return (self.local_isn + 1 + rel_seq) & 0xFFFFFFFF

    def _wire_ack(self) -> int:
        return (self.remote_isn + 1 + self.receiver.rcv_nxt) & 0xFFFFFFFF

    def _emit(
        self,
        flags: int,
        rel_seq: int | None = None,
        payload: bytes = b"",
        mss_option: int | None = None,
    ) -> None:
        if rel_seq is None:
            rel_seq = self.sender.snd_nxt
        seq = self._wire_seq(rel_seq)
        ack = self._wire_ack() if flags & tcpw.ACK else 0
        sack_blocks: tuple[tuple[int, int], ...] = ()
        if self.sack_negotiated and flags & tcpw.ACK:
            base = (self.remote_isn + 1) & 0xFFFFFFFF
            sack_blocks = tuple(
                ((base + left) & 0xFFFFFFFF, (base + right) & 0xFFFFFFFF)
                for left, right in self.receiver.sack_blocks()
            )
        header = tcpw.TcpHeader(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq if not flags & tcpw.SYN else self.local_isn,
            ack=ack,
            flags=flags,
            window=self.receiver.advertised_window >> self.send_window_scale,
            payload=payload,
            mss_option=mss_option,
            sack_blocks=sack_blocks,
        )
        packet = Packet(
            src=self.host.ip,
            dst=self.remote_ip,
            payload=header,
            wire_length=tcp_wire_length(len(payload), len(header.options_bytes())),
            created_at_us=self.sim.now,
            ip_id=self._next_ip_id(),
        )
        self.host.send(packet)

    def _next_ip_id(self) -> int:
        ident = self._ip_id
        self._ip_id = (self._ip_id + 1) & 0xFFFF
        return ident

    def _transmit_data(self, rel_seq: int, payload: bytes, is_retx: bool) -> None:
        self._emit(flags=tcpw.ACK | tcpw.PSH, rel_seq=rel_seq, payload=payload)

    def _send_pure_ack(self) -> None:
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT,
                          TcpState.FIN_WAIT, TcpState.LAST_ACK):
            self._emit(flags=tcpw.ACK)

    def _send_syn(self) -> None:
        header = tcpw.TcpHeader(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.local_isn,
            ack=0,
            flags=tcpw.SYN,
            window=min(self.receiver.advertised_window, 65535),
            payload=b"",
            mss_option=self.config.mss,
            sack_permitted=self.config.sack,
            wscale_option=self.config.window_scale or None,
        )
        packet = Packet(
            src=self.host.ip,
            dst=self.remote_ip,
            payload=header,
            wire_length=tcp_wire_length(0, len(header.options_bytes())),
            created_at_us=self.sim.now,
            ip_id=self._next_ip_id(),
        )
        self.host.send(packet)
        self._syn_timer.start(self.sender.rtt.rto_us)

    def _send_synack(self) -> None:
        header = tcpw.TcpHeader(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.local_isn,
            ack=(self.remote_isn + 1) & 0xFFFFFFFF,
            flags=tcpw.SYN | tcpw.ACK,
            window=min(self.receiver.advertised_window, 65535),
            payload=b"",
            mss_option=self.config.mss,
            sack_permitted=self.sack_negotiated,
            wscale_option=self.send_window_scale or None,
        )
        packet = Packet(
            src=self.host.ip,
            dst=self.remote_ip,
            payload=header,
            wire_length=tcp_wire_length(0, len(header.options_bytes())),
            created_at_us=self.sim.now,
            ip_id=self._next_ip_id(),
        )
        self.host.send(packet)
        self._syn_timer.start(self.sender.rtt.rto_us)

    def _retransmit_syn(self) -> None:
        self._syn_retries += 1
        if self._syn_retries > MAX_SYN_RETRIES:
            self.kill(silent=True)
            return
        self.sender.rtt.on_timeout()
        if self.state is TcpState.SYN_SENT:
            self._send_syn()
        elif self.state is TcpState.SYN_RCVD:
            self._send_synack()

    def _send_fin(self) -> None:
        if self._fin_sent:
            return
        self._fin_sent = True
        self._emit(flags=tcpw.FIN | tcpw.ACK)
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT
        elif self.state is TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK

    def _buffer_drained(self) -> None:
        if self.sender.closed:
            self._send_fin()
        if self.on_buffer_drained is not None:
            self.on_buffer_drained()

    def _readable(self) -> None:
        if self.on_data is not None:
            self.on_data(self)

    # ------------------------------------------------------------------
    # Segment arrival
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        segment: tcpw.TcpHeader = packet.payload
        if segment.is_rst:
            self.kill(silent=True)
            return
        handler = {
            TcpState.SYN_SENT: self._packet_in_syn_sent,
            TcpState.LISTEN: self._packet_in_listen,
            TcpState.SYN_RCVD: self._packet_in_syn_rcvd,
        }.get(self.state, self._packet_established)
        handler(segment)

    def _packet_in_syn_sent(self, segment: tcpw.TcpHeader) -> None:
        if not (segment.is_syn and segment.is_ack):
            return
        self.remote_isn = segment.seq
        self._negotiate_mss(segment)
        self._negotiate_sack(segment)
        self._negotiate_window_scale(segment)
        self.sender.rtt.on_rtt_sample(self.sim.now - self._syn_sent_at)
        self._syn_timer.stop()
        self.sender._update_peer_window(0, segment.window)
        self._establish()
        self._emit(flags=tcpw.ACK)

    def _packet_in_listen(self, segment: tcpw.TcpHeader) -> None:
        if not segment.is_syn or segment.is_ack:
            return
        self.remote_isn = segment.seq
        self._negotiate_mss(segment)
        self._negotiate_sack(segment)
        self._negotiate_window_scale(segment)
        self.sender._update_peer_window(0, segment.window)
        self.state = TcpState.SYN_RCVD
        self._send_synack()

    def _packet_in_syn_rcvd(self, segment: tcpw.TcpHeader) -> None:
        if segment.is_syn and not segment.is_ack:
            self._send_synack()  # duplicate SYN: SYN/ACK again
            return
        if segment.is_ack and segment.ack == (self.local_isn + 1) & 0xFFFFFFFF:
            self._syn_timer.stop()
            self.sender._update_peer_window(0, segment.window)
            self._establish()
            if segment.payload:
                self._packet_established(segment)

    def _establish(self) -> None:
        self.state = TcpState.ESTABLISHED
        self.established_at_us = self.sim.now
        if self.on_established is not None:
            self.on_established(self)

    def _negotiate_mss(self, segment: tcpw.TcpHeader) -> None:
        if segment.mss_option is not None:
            self.effective_mss = min(self.config.mss, segment.mss_option)
            self.sender.config = self.config.clone(mss=self.effective_mss)
            self.sender.cc.mss = self.effective_mss

    def _negotiate_sack(self, segment: tcpw.TcpHeader) -> None:
        self.sack_negotiated = self.config.sack and segment.sack_permitted
        self.sender.sack_enabled = self.sack_negotiated

    def _negotiate_window_scale(self, segment: tcpw.TcpHeader) -> None:
        if self.config.window_scale > 0 and segment.wscale_option is not None:
            self.send_window_scale = self.config.window_scale
            self.recv_window_scale = min(segment.wscale_option, 14)
            self.receiver.window_cap = 65535 << self.send_window_scale

    def _packet_established(self, segment: tcpw.TcpHeader) -> None:
        if segment.is_syn:
            return
        if segment.is_ack:
            rel_ack = (segment.ack - self.local_isn - 1) & 0xFFFFFFFF
            # Treat absurdly large values as pre-establishment ACKs.
            if rel_ack <= self.sender._buffer_end + 2:
                base = (self.local_isn + 1) & 0xFFFFFFFF
                rel_blocks = tuple(
                    (
                        (left - base) & 0xFFFFFFFF,
                        (right - base) & 0xFFFFFFFF,
                    )
                    for left, right in segment.sack_blocks
                )
                self.sender.on_ack(
                    rel_ack,
                    segment.window << self.recv_window_scale,
                    rel_blocks,
                )
        if segment.payload or segment.is_fin:
            rel_seq = (segment.seq - self.remote_isn - 1) & 0xFFFFFFFF
            self.receiver.on_segment(rel_seq, segment.payload, fin=segment.is_fin)
            if self.receiver.fin_received and self.state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
                if self.on_close is not None:
                    self.on_close(self)
        if self._fin_sent and self.state is TcpState.LAST_ACK:
            # Our FIN was the last thing to be ACKed.
            self.state = TcpState.CLOSED
            self.closed_at_us = self.sim.now
            self._unregister()
