"""Trace front end: pcap -> TCP connections with profiles.

This is the repo's ``tcptrace``-equivalent (paper section III-B): it
extracts individual TCP connections from a bidirectional capture and
derives the connection-level parameters the analyzer needs — MSS, an
RTT estimate, the maximum advertised window, start/end times — plus the
per-direction packet columns (:mod:`repro.analysis.columns`) that every
later layer reads.

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
from itertools import compress
from pathlib import Path
from typing import BinaryIO

from repro.analysis.budget import StateLedger
from repro.analysis.columns import (
    ROW_FLAGS,
    ROW_LENGTH,
    ROW_SRC,
    AckColumns,
    DataColumns,
    PacketColumns,
)
from repro.bgp.header import HEADER_LEN as BGP_HEADER_LEN
from repro.bgp.header import MARKER as BGP_MARKER
from repro.bgp.header import TYPE_KEEPALIVE
from repro.core.health import STAGE_FRAME, TraceHealth
from repro.wire import frames
from repro.wire.ip import ip_to_bytes
from repro.wire.pcap import PcapReader, PcapRecord
from repro.wire.tcpw import ACK, FIN, RST, SYN

FlowKey = tuple[str, int, str, int]

_SEQ_MASK = 0xFFFFFFFF


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

    Ingest appends one row per packet to ``rows`` (layout
    :data:`~repro.analysis.columns.ROW_FIELDS`); :meth:`finalize`
    transposes them once into ``packets``, ``data`` and ``acks``
    columns, which every analysis layer reads.  A side is an address:
    side 0 (``False``) is ``key[0]``, side 1 (``True``) is ``key[2]``.
    """

    def __init__(self, key: FlowKey) -> None:
        self.key = key
        self.rows: list[tuple] = []
        self.sender_ip: str | None = None
        self.profile: ConnectionProfile | None = None
        self.packets: PacketColumns | None = None
        self.data: DataColumns | None = None
        self.acks: AckColumns | None = None
        # False when a resource budget truncated this connection's
        # packet record (shed data or early finalization before close):
        # the derived profile and analysis rest on partial state.
        self.complete = True

    def add(self, row: tuple) -> None:
        """Append one packet row (records must arrive in capture order)."""
        self.rows.append(row)

    @property
    def receiver_ip(self) -> str | None:
        if self.sender_ip is None:
            return None
        src, _, dst, _ = self.key
        return dst if self.sender_ip == src else src

    # ------------------------------------------------------------------
    # Transposition
    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Build the columns and the profile; later calls do nothing.

        The data direction is the side that carried the most payload
        bytes (the first side seen wins a tie).  Each side's ISN is its
        last SYN's sequence number, or one below its first packet's
        when the capture missed the handshake.
        """
        rows = self.rows
        if self.packets is not None or not rows:
            return
        self.rows = []
        (
            index, time, src, seq, ack, flags, window, length, wire,
            ip_id, keepalive, mss, wscale,
        ) = zip(*rows)
        del rows  # the row tuples go before the columns are built
        first_ip = int.from_bytes(ip_to_bytes(self.key[0]), "big")
        side = tuple(map(first_ip.__ne__, src))
        syns = [i for i, f in enumerate(flags) if f & SYN]

        first, other = side[0], not side[0]
        side_bytes = sum(compress(length, side))
        bytes_by_side = {False: sum(length) - side_bytes, True: side_bytes}
        sender = (
            first if bytes_by_side[first] >= bytes_by_side[other] else other
        )
        self.sender_ip = self.key[2 * sender]

        isn = {first: seq[0] - 1}
        if other in side:
            isn[other] = seq[side.index(other)] - 1
        scales: dict[int, int] = {}
        for i in syns:
            isn[side[i]] = seq[i]
            if wscale[i] is not None:
                scales[side[i]] = min(wscale[i], 14)
        if len(scales) == 2:
            # RFC 7323, as tcptrace applies it: each side's SYN scale
            # applies to every later window that side advertises.
            window = tuple(
                w if f & SYN else w << scales[s]
                for w, f, s in zip(window, flags, side)
            )
        # An ACK is relative to the opposite side's stream; a side with
        # no opposite packets anchors on its own first ACK number.
        seq_base = {s: value + 1 for s, value in isn.items()}
        ack_base = {
            s: seq_base.get(not s, ack[side.index(s)]) for s in seq_base
        }
        seq0, seq1 = seq_base.get(False), seq_base.get(True)
        ack0, ack1 = ack_base.get(False), ack_base.get(True)
        seq = tuple(
            (q - (seq1 if s else seq0)) & _SEQ_MASK for q, s in zip(seq, side)
        )
        ack = tuple(
            (a - (ack1 if s else ack0)) & _SEQ_MASK for a, s in zip(ack, side)
        )
        self.packets = PacketColumns(
            index, time, side, seq, ack, flags, window, length, wire,
            ip_id, keepalive,
        )

        is_data = [s == sender and l > 0 for s, l in zip(side, length)]
        data_seq = tuple(compress(seq, is_data))
        data_length = tuple(compress(length, is_data))
        self.data = DataColumns(
            tuple(compress(index, is_data)),
            tuple(compress(time, is_data)),
            data_seq,
            tuple(map(int.__add__, data_seq, data_length)),
            data_length,
            tuple(compress(wire, is_data)),
            tuple(compress(ip_id, is_data)),
            tuple(compress(keepalive, is_data)),
        )
        is_ack = [
            s != sender and f & ACK and not f & SYN
            for s, f in zip(side, flags)
        ]
        ack_time = tuple(compress(time, is_ack))
        self.acks = AckColumns(
            tuple(compress(index, is_ack)),
            ack_time,
            tuple(compress(ack, is_ack)),
            tuple(compress(window, is_ack)),
            ack_time,
        )
        self.profile = self._build_profile(
            next((mss[i] for i in syns if mss[i]), None)
        )

    # ------------------------------------------------------------------
    # Profile derivation
    # ------------------------------------------------------------------
    def _build_profile(self, mss_option: int | None) -> ConnectionProfile:
        packets, data, acks = self.packets, self.data, self.acks
        d1 = self._estimate_d1()
        d2 = self._estimate_d2_handshake()
        if d2 is None:
            d2 = self._estimate_d2()
        flags = packets.flags
        return ConnectionProfile(
            mss=mss_option or max(data.length, default=536),
            rtt_us=d1 + d2,
            d1_us=d1,
            d2_us=d2,
            max_advertised_window=max(acks.window, default=0),
            start_time_us=packets.time[0],
            end_time_us=packets.time[-1],
            total_data_bytes=sum(data.length),
            total_data_packets=len(data),
            total_ack_packets=len(acks),
            saw_syn=any(f & SYN for f in flags),
            saw_fin=any(f & FIN for f in flags),
            saw_rst=any(f & RST for f in flags),
        )

    def _estimate_d1(self) -> int:
        """Tap -> receiver -> tap delay: data seen to its exact ACK seen."""
        samples = []
        ack_times, ack_values = self.acks.time, self.acks.value
        n_acks = len(ack_times)
        j = 0
        for time_us, target in zip(self.data.time, self.data.end):
            while j < n_acks and (
                ack_times[j] < time_us or ack_values[j] < target
            ):
                j += 1
            if j == n_acks:
                break
            if ack_values[j] == target:
                samples.append(ack_times[j] - time_us)
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
        packets = self.packets
        time, flags, side = packets.time, packets.flags, packets.side
        length = packets.length
        syn = synack = handshake_ack = None
        for i, f in enumerate(flags):
            if f & SYN and not f & ACK and syn is None:
                syn = i
            elif f & SYN and f & ACK and synack is None:
                synack = i
            elif (
                synack is not None
                and syn is not None
                and f & ACK
                and not f & (SYN | FIN | RST)
                and length[i] == 0
                and side[i] == side[syn]
            ):
                handshake_ack = i
                break
        if syn is None or synack is None:
            return None
        if self.sender_ip == self.key[2 * side[syn]]:
            if handshake_ack is None:
                return None
            return time[handshake_ack] - time[synack]
        return time[synack] - time[syn]

    def _estimate_d2(self) -> int:
        """Tap -> sender -> tap delay: ACK seen to released data seen.

        The minimum positive gap is used: larger gaps include sender
        application think-time, which is exactly what the analyzer must
        *not* bake into its RTT estimate.
        """
        samples = []
        data_times = self.data.time
        n_data = len(data_times)
        j = 0
        for ack_us in self.acks.time:
            while j < n_data and data_times[j] <= ack_us:
                j += 1
            if j == n_data:
                break
            samples.append(data_times[j] - ack_us)
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

        A drain of :func:`iter_connections` that holds every flow until
        the capture ends, so connections are in first-packet order.
        With ``tolerant=True`` the pcap layer survives structural
        damage (see :class:`~repro.wire.pcap.PcapReader`); either way,
        undecodable frames are skipped and accounted in ``health``.
        """
        trace = cls(health=health)
        health = trace.health
        read, decoded = health.records_read, health.frames_decoded
        for connection in iter_connections(
            source, health=health, tolerant=tolerant, linger_us=None
        ):
            trace.connections[connection.key] = connection
        trace.total_records = health.records_read - read
        trace.skipped_frames = trace.total_records - (
            health.frames_decoded - decoded
        )
        return trace

    def __len__(self) -> int:
        return len(self.connections)

    def __iter__(self):
        return iter(self.connections.values())


def _decode_record(
    index: int, record: PcapRecord, health: TraceHealth
) -> tuple[int, tuple] | None:
    """Decode one record to its flow id and row; ``None`` if undecodable.

    An undecodable frame becomes a benign ``undecodable-frame`` issue in
    ``health``, a decoded one counts in ``health.frames_decoded``.  The
    flow id is an integer, the same for both directions of a flow;
    :func:`_flow_key` renders it once per connection.
    """
    data = record.data
    try:
        (
            src, src_port, dst, dst_port, seq, ack, flags, window, ip_id,
            start, end, mss, wscale,
        ) = frames.decode_fields(data)
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
    here = src << 16 | src_port
    there = dst << 16 | dst_port
    flow = here << 48 | there if here < there else there << 48 | here
    length = end - start
    wire = record.original_length
    return flow, (
        index,
        record.timestamp_us,
        src,
        seq,
        ack,
        flags,
        window,
        length,
        len(data) if wire is None else wire,
        ip_id,
        length == BGP_HEADER_LEN
        and data.startswith(BGP_MARKER, start)
        and data[start + 18] == TYPE_KEEPALIVE,
        mss,
        wscale,
    )


def _flow_key(flow: int) -> FlowKey:
    """The canonical string key of an integer flow id."""
    low, high = flow >> 48, flow & 0xFFFFFFFFFFFF
    return canonical_key(
        frames.int_to_ip(low >> 16), low & 0xFFFF,
        frames.int_to_ip(high >> 16), high & 0xFFFF,
    )


@dataclass
class _OpenFlow:
    """Streaming-ingest state of one not-yet-finalized connection."""

    connection: Connection
    order: int  # capture index of its first admitted packet
    flow_id: int  # the integer flow id ingest keys it by
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
    linger_us: int | None = DEFAULT_LINGER_US,
    *,
    ledger: StateLedger | None = None,
) -> Iterator[Connection]:
    """Turn a capture into finalized connections: the one ingest loop.

    A flow is finalized and yielded once it has closed (FINs from both
    sides or an RST) and stayed quiet for more than ``linger_us``, so
    peak memory is bounded by the *open* flows, not the whole capture.
    A packet arriving for an already-emitted flow is dropped and
    accounted in ``health`` as a benign ``packet-after-close`` issue
    rather than resurrecting the connection.  ``linger_us=None`` holds
    every flow until the capture ends, which is what
    :meth:`Trace.from_pcap` drains.  Flows still open at the end are
    yielded in first-seen order.

    Records from a path or file are counted in ``health.records_read``
    by the :class:`~repro.wire.pcap.PcapReader`; a list of records is
    counted here, one by one as it is consumed.

    Cost per packet is independent of the number of open flows: closed
    flows wait in a heap ordered by their last packet time, so a packet
    inspects only the entries that have come due, and each entry is
    inspected once — amortized O(log L) for L lingering flows.  Flows
    due at the same packet are released in first-seen order, and the
    packet's own flow is never released by its own packet.

    A :class:`~repro.analysis.budget.StateLedger` bounds even the open
    flows: every packet is metered through it, per-connection caps shed
    excess data (``connection.complete`` flips to ``False``), and when
    a global watermark trips its victims are finalized and yielded
    early here.  Each victim's flow id joins ``emitted``, so stragglers
    land as benign ``packet-after-close`` issues instead of
    resurrecting state.
    """
    health = health if health is not None else TraceHealth()
    reader: PcapReader | None = None
    if isinstance(source, list):
        records: Iterator[PcapRecord] = iter(source)
    else:
        reader = PcapReader(source, tolerant=tolerant, health=health)
        records = iter(reader)
    lingers = linger_us is not None
    heappush, heappop = heapq.heappush, heapq.heappop
    by_id: dict[int, _OpenFlow] = {}  # the open flows by flow id
    open_flows: dict[FlowKey, _OpenFlow] = {}  # the same, for the ledger
    emitted: set[int] = set()
    # (last_ts_us, order, flow_id) of every closable flow, pushed
    # whenever such a flow's clock moves.  An entry is live while its
    # flow is still open with that last_ts_us; the rest are skipped
    # when popped.  Always empty when nothing lingers.
    lingering: list[tuple[int, int, int]] = []
    try:
        for index, record in enumerate(records):
            if reader is None:
                health.records_read += 1
            decoded = _decode_record(index, record, health)
            if decoded is None:
                continue
            flow_id, row = decoded
            flow = by_id.get(flow_id)
            # Release flows whose close has lingered long enough.
            now = record.timestamp_us
            if lingering and lingering[0][0] < now - linger_us:
                cutoff = now - linger_us
                due: dict[int, _OpenFlow] = {}
                while lingering and lingering[0][0] < cutoff:
                    last_ts_us, order, other_id = heappop(lingering)
                    other = by_id.get(other_id)
                    if (
                        other is not None
                        and other.last_ts_us == last_ts_us
                        and other_id != flow_id
                    ):
                        due[order] = other
                for order in sorted(due):
                    other = due[order]
                    del by_id[other.flow_id]
                    del open_flows[other.connection.key]
                    emitted.add(other.flow_id)
                    if ledger is not None:
                        ledger.discharge(other.connection.key)
                    other.connection.finalize()
                    yield other.connection
            if flow is not None:
                key = flow.connection.key
            else:  # a new flow, or one already emitted
                key = _flow_key(flow_id)
                if flow_id in emitted:
                    health.record(
                        STAGE_FRAME, "packet-after-close",
                        timestamp_us=record.timestamp_us,
                        bytes_lost=row[ROW_LENGTH],
                        detail=f"{key}: flow already finalized and emitted",
                        benign=True,
                    )
                    continue
            flags = row[ROW_FLAGS]
            if ledger is not None and not ledger.admit(
                key, row[ROW_LENGTH], flags, now
            ):
                # A capped connection sheds this packet, but its clock
                # must keep running so the linger sweep stays honest.
                if flow is not None:
                    flow.connection.complete = False
                    flow.last_ts_us = now
                    if lingers and flow.closable:
                        heappush(lingering, (now, flow.order, flow_id))
                continue
            if flow is None:
                flow = _OpenFlow(Connection(key), order=index, flow_id=flow_id)
                by_id[flow_id] = open_flows[key] = flow
            flow.connection.rows.append(row)
            flow.last_ts_us = now
            if flags & FIN:
                flow.fin_from.add(row[ROW_SRC])
            if flags & RST:
                flow.saw_rst = True
            if lingers and flow.closable:
                heappush(lingering, (now, flow.order, flow_id))
            if ledger is not None:
                for victim_key in ledger.plan_evictions(open_flows, key, now):
                    victim = open_flows.pop(victim_key)
                    del by_id[victim.flow_id]
                    emitted.add(victim.flow_id)
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
