"""Trace front end: pcap -> TCP connections with profiles.

This is the repo's ``tcptrace``-equivalent (paper section III-B): it
extracts individual TCP connections from a bidirectional capture and
derives the connection-level parameters the analyzer needs — MSS, an
RTT estimate, the maximum advertised window, start/end times — plus the
per-direction packet timelines that the series generators consume.

The d1/d2 decomposition (paper Figure 12) is computed here too:
``d1`` is the tap→receiver→tap half of the RTT (data seen → matching
ACK seen) and ``d2`` the tap→sender→tap half (ACK seen → released data
seen), following Jaiswal et al.
"""

from __future__ import annotations

import heapq
import statistics
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.analysis.budget import POLICY_FINALIZE_IDLE, StateLedger
from repro.bgp.messages import HEADER_LEN as BGP_HEADER_LEN
from repro.bgp.messages import MARKER as BGP_MARKER
from repro.core.health import STAGE_FRAME, TraceHealth
from repro.wire import frames
from repro.wire.pcap import PcapReader, PcapRecord, read_pcap
from repro.wire.tcpw import ACK, FIN, RST, SYN

FlowKey = tuple[str, int, str, int]


@dataclass
class TracePacket:
    """One captured TCP segment, flattened for analysis."""

    index: int
    timestamp_us: int
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload_len: int
    wire_len: int
    ip_id: int
    payload: bytes = b""
    mss_option: int | None = None
    wscale_option: int | None = None
    # Filled by the ACK-shift step; series generation reads this field.
    shifted_timestamp_us: int | None = None

    @property
    def effective_time_us(self) -> int:
        """Shifted timestamp when present, raw otherwise."""
        if self.shifted_timestamp_us is not None:
            return self.shifted_timestamp_us
        return self.timestamp_us

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    @property
    def is_pure_ack(self) -> bool:
        """ACK-only segment carrying no data and no SYN/FIN/RST."""
        return (
            bool(self.flags & ACK)
            and self.payload_len == 0
            and not self.flags & (SYN | FIN | RST)
        )

    @property
    def seq_end(self) -> int:
        """Sequence number just past this segment's payload."""
        return self.seq + self.payload_len

    def is_bgp_keepalive(self) -> bool:
        """True when the payload is exactly one BGP KEEPALIVE."""
        return (
            self.payload_len == BGP_HEADER_LEN
            and self.payload[:16] == BGP_MARKER
            and self.payload[18:19] == b"\x04"
        )


@dataclass
class ConnectionProfile:
    """Connection-level parameters (the tcptrace output the paper uses)."""

    mss: int
    rtt_us: int
    d1_us: int
    d2_us: int
    max_advertised_window: int
    start_time_us: int
    end_time_us: int
    total_data_bytes: int
    total_data_packets: int
    total_ack_packets: int
    saw_syn: bool
    saw_fin: bool
    saw_rst: bool

    @property
    def duration_us(self) -> int:
        """Wall-clock span of the captured connection."""
        return self.end_time_us - self.start_time_us


class Connection:
    """One TCP connection: both directions plus derived profile.

    ``sender`` / ``receiver`` follow the paper's terminology: the
    sender is the endpoint contributing the bulk of the data bytes (the
    operational router in a monitoring deployment).
    """

    def __init__(self, key: FlowKey) -> None:
        self.key = key
        self.packets: list[TracePacket] = []
        self.sender_ip: str | None = None
        self._isn: dict[str, int] = {}
        self.profile: ConnectionProfile | None = None
        # False when a resource budget truncated this connection's
        # packet record (shed data or early finalization before close):
        # the derived profile and analysis rest on partial state.
        self.complete = True

    def add(self, packet: TracePacket) -> None:
        """Append a packet (records must arrive in timestamp order)."""
        self.packets.append(packet)
        if packet.is_syn:
            self._isn[packet.src_ip] = packet.seq

    # ------------------------------------------------------------------
    # Direction handling
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Determine the data direction and compute the profile."""
        bytes_by_src: dict[str, int] = {}
        for packet in self.packets:
            bytes_by_src[packet.src_ip] = (
                bytes_by_src.get(packet.src_ip, 0) + packet.payload_len
            )
        if not bytes_by_src:
            return
        self.sender_ip = max(bytes_by_src, key=lambda ip: bytes_by_src[ip])
        self._apply_window_scaling()
        self.profile = self._build_profile()

    def _apply_window_scaling(self) -> None:
        """Rewrite window fields per RFC 7323 if both SYNs offered it.

        tcptrace does the same: the scale seen on each side's SYN
        applies to every later window that side advertises.
        """
        scales: dict[str, int] = {}
        for packet in self.packets:
            if packet.is_syn and packet.wscale_option is not None:
                scales[packet.src_ip] = min(packet.wscale_option, 14)
        if len(scales) < 2:
            return  # both ends must offer the option
        for packet in self.packets:
            if not packet.is_syn:
                packet.window <<= scales[packet.src_ip]

    @property
    def receiver_ip(self) -> str | None:
        if self.sender_ip is None:
            return None
        src, _, dst, _ = self.key
        return dst if self.sender_ip == src else src

    def data_packets(self) -> list[TracePacket]:
        """Sender-to-receiver segments that carry payload."""
        return [
            p
            for p in self.packets
            if p.src_ip == self.sender_ip and p.payload_len > 0
        ]

    def ack_packets(self) -> list[TracePacket]:
        """Receiver-to-sender segments bearing the ACK flag."""
        return [
            p
            for p in self.packets
            if p.src_ip != self.sender_ip and p.flags & ACK and not p.is_syn
        ]

    def relative_seq(self, packet: TracePacket) -> int:
        """Sequence relative to the data stream (0 == first data byte)."""
        isn = self._isn.get(packet.src_ip)
        if isn is None:
            first = next(
                (p for p in self.packets if p.src_ip == packet.src_ip), None
            )
            isn = first.seq - 1 if first is not None else packet.seq - 1
            self._isn[packet.src_ip] = isn
        return (packet.seq - isn - 1) & 0xFFFFFFFF

    def relative_ack(self, packet: TracePacket) -> int:
        """ACK number relative to the opposite direction's stream."""
        src, _, dst, _ = self.key
        other = dst if packet.src_ip == src else src
        isn = self._isn.get(other)
        if isn is None:
            first = next(
                (p for p in self.packets if p.src_ip == other), None
            )
            isn = first.seq - 1 if first is not None else packet.ack - 1
            self._isn[other] = isn
        return (packet.ack - isn - 1) & 0xFFFFFFFF

    # ------------------------------------------------------------------
    # Profile derivation
    # ------------------------------------------------------------------
    def _build_profile(self) -> ConnectionProfile:
        data = self.data_packets()
        acks = self.ack_packets()
        mss = self._estimate_mss(data)
        d1 = self._estimate_d1(data, acks)
        d2 = self._estimate_d2_handshake()
        if d2 is None:
            d2 = self._estimate_d2(data, acks)
        max_window = max((p.window for p in acks), default=0)
        return ConnectionProfile(
            mss=mss,
            rtt_us=d1 + d2,
            d1_us=d1,
            d2_us=d2,
            max_advertised_window=max_window,
            start_time_us=self.packets[0].timestamp_us,
            end_time_us=self.packets[-1].timestamp_us,
            total_data_bytes=sum(p.payload_len for p in data),
            total_data_packets=len(data),
            total_ack_packets=len(acks),
            saw_syn=any(p.is_syn for p in self.packets),
            saw_fin=any(p.is_fin for p in self.packets),
            saw_rst=any(p.is_rst for p in self.packets),
        )

    def _estimate_mss(self, data: list[TracePacket]) -> int:
        for packet in self.packets:
            if packet.is_syn:
                parsed_mss = getattr(packet, "mss_option", None)
                if parsed_mss:
                    return parsed_mss
        return max((p.payload_len for p in data), default=536)

    def _estimate_d1(
        self, data: list[TracePacket], acks: list[TracePacket]
    ) -> int:
        """Tap -> receiver -> tap delay: data seen to its exact ACK seen."""
        samples = []
        ack_iter = iter(acks)
        current_ack = next(ack_iter, None)
        for packet in data:
            target = self.relative_seq(packet) + packet.payload_len
            while current_ack is not None and (
                current_ack.timestamp_us < packet.timestamp_us
                or self.relative_ack(current_ack) < target
            ):
                current_ack = next(ack_iter, None)
            if current_ack is None:
                break
            if self.relative_ack(current_ack) == target:
                samples.append(current_ack.timestamp_us - packet.timestamp_us)
            if len(samples) >= 200:
                break
        if not samples:
            return 0
        return int(statistics.median(samples))

    def _estimate_d2_handshake(self) -> int | None:
        """Sender-side roundtrip from the three-way handshake at the tap.

        When the data sender initiated the connection, the gap between
        the SYN/ACK and the handshake-completing ACK is one tap → sender
        → tap roundtrip; when the sender was passive, the SYN → SYN/ACK
        gap is.  This survives pipelined data flows where per-ACK d2
        estimates collapse.
        """
        syn = synack = handshake_ack = None
        for packet in self.packets:
            if packet.is_syn and not packet.flags & ACK and syn is None:
                syn = packet
            elif packet.is_syn and packet.flags & ACK and synack is None:
                synack = packet
            elif (
                synack is not None
                and handshake_ack is None
                and packet.is_pure_ack
                and packet.src_ip == (syn.src_ip if syn else None)
            ):
                handshake_ack = packet
                break
        if syn is None or synack is None:
            return None
        if self.sender_ip == syn.src_ip:
            if handshake_ack is None:
                return None
            return handshake_ack.timestamp_us - synack.timestamp_us
        return synack.timestamp_us - syn.timestamp_us

    def _estimate_d2(
        self, data: list[TracePacket], acks: list[TracePacket]
    ) -> int:
        """Tap -> sender -> tap delay: ACK seen to released data seen.

        The minimum positive gap is used: larger gaps include sender
        application think-time, which is exactly what the analyzer must
        *not* bake into its RTT estimate.
        """
        samples = []
        data_iter = iter(data)
        current_data = next(data_iter, None)
        for ack in acks:
            while current_data is not None and (
                current_data.timestamp_us <= ack.timestamp_us
            ):
                current_data = next(data_iter, None)
            if current_data is None:
                break
            samples.append(current_data.timestamp_us - ack.timestamp_us)
            if len(samples) >= 500:
                break
        positive = [s for s in samples if s > 0]
        if not positive:
            return 0
        return min(positive)


def infer_sniffer_location(
    connection: Connection, dominance: float = 4.0
) -> str:
    """Guess where the tap sat from the d1/d2 split of the RTT.

    The paper leaves the sniffer location as user configuration but
    notes it can be inferred from packet/ACK inter-arrivals [28]: a
    receiver-side tap sees ACKs almost immediately after data
    (d1 << d2), a sender-side tap the reverse.  Returns ``"receiver"``,
    ``"sender"`` or ``"middle"``; ``dominance`` is the ratio one side
    must exceed the other by.
    """
    profile = connection.profile
    if profile is None:
        raise ValueError("connection has no profile; call finalize() first")
    d1 = max(profile.d1_us, 1)
    d2 = max(profile.d2_us, 1)
    if d2 >= d1 * dominance:
        return "receiver"
    if d1 >= d2 * dominance:
        return "sender"
    return "middle"


class Trace:
    """A parsed capture: connections keyed by canonical 4-tuple."""

    def __init__(self, health: TraceHealth | None = None) -> None:
        self.connections: dict[FlowKey, Connection] = {}
        self.skipped_frames = 0
        self.total_records = 0
        self.health = health if health is not None else TraceHealth()

    @classmethod
    def from_pcap(
        cls,
        source: BinaryIO | str | Path | list[PcapRecord],
        health: TraceHealth | None = None,
        tolerant: bool = False,
    ) -> "Trace":
        """Parse a pcap file (or pre-read records) into connections.

        With ``tolerant=True`` the pcap layer survives structural
        damage (see :class:`~repro.wire.pcap.PcapReader`); either way,
        undecodable frames are skipped and accounted in ``health``.
        """
        trace = cls(health=health)
        if isinstance(source, list):
            records = source
            trace.health.records_read += len(records)
        else:
            records = read_pcap(source, tolerant=tolerant, health=trace.health)
        for index, record in enumerate(records):
            trace.total_records += 1
            decoded = _decode_record(record, trace.health)
            if decoded is None:
                trace.skipped_frames += 1
                continue
            fields, key = decoded
            packet = _packet_from_fields(index, record, fields)
            connection = trace.connections.get(key)
            if connection is None:
                connection = Connection(key)
                trace.connections[key] = connection
            connection.add(packet)
        for connection in trace.connections.values():
            connection.finalize()
        return trace

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self):
        return iter(self.connections.values())


def _decode_record(
    record: PcapRecord, health: TraceHealth
) -> tuple[frames.PacketFields, FlowKey] | None:
    """Decode one record's frame and key its flow; ``None`` if undecodable.

    The one per-record step the buffered and streaming ingests share:
    an undecodable frame becomes a benign ``undecodable-frame`` issue in
    ``health``, a decoded one counts in ``health.frames_decoded``.
    """
    try:
        fields = frames.parse_packet(record.data)
    except (frames.FrameError, ValueError) as exc:
        health.record(
            STAGE_FRAME, "undecodable-frame",
            timestamp_us=record.timestamp_us,
            bytes_lost=record.captured_length,
            detail=str(exc),
            benign=True,
        )
        return None
    health.frames_decoded += 1
    key = canonical_key(
        fields.src_ip, fields.src_port, fields.dst_ip, fields.dst_port
    )
    return fields, key


def _packet_from_fields(
    index: int, record: PcapRecord, fields: frames.PacketFields
) -> TracePacket:
    """Flatten one fused-decoded frame into the analyzer's packet form."""
    payload = fields.payload
    return TracePacket(
        index=index,
        timestamp_us=record.timestamp_us,
        src_ip=fields.src_ip,
        src_port=fields.src_port,
        dst_ip=fields.dst_ip,
        dst_port=fields.dst_port,
        seq=fields.seq,
        ack=fields.ack,
        flags=fields.flags,
        window=fields.window,
        payload_len=len(payload),
        wire_len=record.wire_length,
        ip_id=fields.ip_id,
        payload=payload,
        mss_option=fields.mss_option,
        wscale_option=fields.wscale_option,
    )


@dataclass
class _OpenFlow:
    """Streaming-ingest state of one not-yet-finalized connection."""

    connection: Connection
    order: int  # capture index of its first admitted packet
    last_ts_us: int = 0
    fin_from: set = field(default_factory=set)
    saw_rst: bool = False

    @property
    def closable(self) -> bool:
        """Both sides said FIN (or someone said RST): no data expected.

        The flow is still held open for a linger period so trailing
        ACKs and retransmitted FINs land in the connection instead of
        after its finalization.
        """
        return self.saw_rst or len(self.fin_from) >= 2


#: how long after its last packet a closed flow lingers before being
#: finalized (covers the final ACK of the FIN exchange and stragglers).
DEFAULT_LINGER_US = 2_000_000


def iter_connections(
    source: BinaryIO | str | Path | list[PcapRecord],
    health: TraceHealth | None = None,
    tolerant: bool = False,
    linger_us: int = DEFAULT_LINGER_US,
    *,
    ledger: StateLedger | None = None,
) -> Iterator[Connection]:
    """Stream finalized connections out of a capture, flow by flow.

    The buffered path (:meth:`Trace.from_pcap`) holds every parsed
    frame of every connection until the file ends; this iterator
    finalizes and yields each connection as soon as its flow has closed
    (FINs from both sides or an RST) and stayed quiet for more than
    ``linger_us``, so peak memory is bounded by the *open* flows, not
    the whole capture.  Per-connection results are identical to the
    buffered path for captures whose flows close cleanly; a packet
    arriving for an already-emitted flow is dropped and accounted in
    ``health`` rather than resurrecting the connection.

    Cost per packet is independent of the number of open flows: closed
    flows wait in a heap ordered by their last packet time, so a packet
    inspects only the entries that have come due, and each entry is
    inspected once — amortized O(log L) for L lingering flows.  Flows
    due at the same packet are released in first-seen order, and the
    packet's own flow is never released by its own packet.

    A :class:`~repro.analysis.budget.StateLedger` bounds even the open
    flows: every packet is metered through it, per-connection caps shed
    excess data (``connection.complete`` flips to ``False``), and when
    a global watermark trips its eviction plan is executed here —
    ``finalize-idle`` victims are finalized and yielded early,
    ``drop-coldest`` victims are discarded.  Either way the victim's
    key joins ``emitted``, so stragglers land as benign
    ``packet-after-close`` issues instead of resurrecting state.
    """
    health = health if health is not None else TraceHealth()
    reader: PcapReader | None = None
    if isinstance(source, list):
        records: Iterator[PcapRecord] = iter(source)
        reader_counts = False
    else:
        reader = PcapReader(source, tolerant=tolerant, health=health)
        records = iter(reader)
        reader_counts = True
    heappush, heappop = heapq.heappush, heapq.heappop
    open_flows: dict[FlowKey, _OpenFlow] = {}
    emitted: set[FlowKey] = set()
    # (last_ts_us, order, key) of every closable flow, pushed whenever
    # such a flow's clock moves.  An entry is live while its flow is
    # still open with that last_ts_us; the rest are skipped when popped.
    lingering: list[tuple[int, int, FlowKey]] = []
    try:
        for index, record in enumerate(records):
            if not reader_counts:
                health.records_read += 1
            decoded = _decode_record(record, health)
            if decoded is None:
                continue
            fields, key = decoded
            # Release flows whose close has lingered long enough.
            now = record.timestamp_us
            cutoff = now - linger_us
            if lingering and lingering[0][0] < cutoff:
                due: dict[int, FlowKey] = {}
                while lingering and lingering[0][0] < cutoff:
                    last_ts_us, order, other_key = heappop(lingering)
                    flow = open_flows.get(other_key)
                    if (
                        flow is not None
                        and flow.last_ts_us == last_ts_us
                        and other_key != key
                    ):
                        due[order] = other_key
                for order in sorted(due):
                    other_key = due[order]
                    flow = open_flows.pop(other_key)
                    emitted.add(other_key)
                    if ledger is not None:
                        ledger.discharge(other_key)
                    flow.connection.finalize()
                    yield flow.connection
            if key in emitted:
                health.record(
                    STAGE_FRAME, "packet-after-close",
                    timestamp_us=record.timestamp_us,
                    bytes_lost=len(fields.payload),
                    detail=f"{key}: flow already finalized and emitted",
                    benign=True,
                )
                continue
            if ledger is not None and not ledger.admit(
                key, len(fields.payload), fields.flags, now
            ):
                # A capped connection sheds this packet, but its clock
                # must keep running so the linger sweep stays honest.
                flow = open_flows.get(key)
                if flow is not None:
                    flow.connection.complete = False
                    flow.last_ts_us = now
                    if flow.closable:
                        heappush(lingering, (now, flow.order, key))
                continue
            packet = _packet_from_fields(index, record, fields)
            flow = open_flows.get(key)
            if flow is None:
                flow = _OpenFlow(connection=Connection(key), order=index)
                open_flows[key] = flow
            flow.connection.add(packet)
            flow.last_ts_us = now
            if packet.is_fin:
                flow.fin_from.add(packet.src_ip)
            if packet.is_rst:
                flow.saw_rst = True
            if flow.closable:
                heappush(lingering, (now, flow.order, key))
            if ledger is not None:
                for victim_key, policy in ledger.plan_evictions(
                    open_flows, key, now
                ):
                    victim = open_flows.pop(victim_key)
                    emitted.add(victim_key)
                    if policy == POLICY_FINALIZE_IDLE:
                        # Early render: complete only if the flow had
                        # already closed and was merely lingering.
                        victim.connection.complete = (
                            victim.connection.complete and victim.closable
                        )
                        victim.connection.finalize()
                        yield victim.connection
        for key, flow in open_flows.items():
            if ledger is not None:
                ledger.discharge(key)
            flow.connection.finalize()
            yield flow.connection
        if ledger is not None:
            ledger.finish()
    finally:
        if reader is not None:
            reader.close()


def canonical_key(
    src_ip: str, src_port: int, dst_ip: str, dst_port: int
) -> FlowKey:
    """Order-independent connection key (lexicographically smaller first)."""
    forward = (src_ip, src_port, dst_ip, dst_port)
    backward = (dst_ip, dst_port, src_ip, src_port)
    return min(forward, backward)
