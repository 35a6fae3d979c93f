"""Test-only oracle: the per-packet object path of the analyzer.

Before the column model, ingest built one mutable :class:`TracePacket`
per captured segment and every layer re-derived relative sequence and
ACK numbers through :meth:`Connection.relative_seq` and
:meth:`Connection.relative_ack`, rescanning the packet list for each
question.  This module keeps that path verbatim apart from this
docstring, the imports and the analysis tunables, which are module
constants here as in the product (declared again, not imported): the
connection profile, ACK shift, labeling, series generation, capture
voids and the keepalive-pause detectors.
It is slow but obviously right, and ``test_connection_oracle.py``
replays generated connections through it and through the columns.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass

from repro.analysis.ackshift import AckShiftStats
from repro.analysis.detectors import PeerGroupBlockingReport
from repro.analysis.labeling import (
    KIND_DOWNSTREAM,
    KIND_NEW,
    KIND_REORDERING,
    KIND_UPSTREAM,
    REORDER_WINDOW_US,
)
from repro.analysis.profile import ConnectionProfile, FlowKey
from repro.analysis.series import (
    SNIFFER_AT_RECEIVER,
    SNIFFER_AT_SENDER,
    ConnectionSeries,
    SeriesConfig,
    StepFunction,
    _bounded_ranges,
)
from repro.analysis.voids import CaptureVoidReport
from repro.bgp.header import HEADER_LEN as BGP_HEADER_LEN
from repro.bgp.header import MARKER as BGP_MARKER
from repro.core.events import EventSeries, SeriesCatalog
from repro.core.timeranges import TimeRange, TimeRangeSet
from repro.wire.tcpw import ACK, FIN, RST, SYN

#: "Small"/"large" advertised-window margin, in MSS.
WINDOW_MARGIN_MSS = 3
#: A sender answering ACKs within this delay is not app-limited.
RESPONSE_THRESHOLD_US = 2_000
#: Back-to-back spacing slack for bandwidth-limit detection.
BANDWIDTH_SLACK = 1.3
#: Minimum packets of sustained bottleneck spacing.
BANDWIDTH_MIN_PACKETS = 5
#: Shortest keepalive-only sender pause that counts as blocked (10 s).
PEER_GROUP_MIN_BLOCK_US = 10_000_000


def flight_gap_threshold_us(rtt_us: int) -> int:
    """The ACK-flight split threshold: half an RTT, floored at 1 ms."""
    return max(rtt_us // 2, 1_000)


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


def group_flights(
    packets: list[TracePacket], gap_threshold_us: int
) -> list[list[TracePacket]]:
    """Partition time-ordered packets into flights.

    A gap of more than ``gap_threshold_us`` between consecutive packets
    starts a new flight.
    """
    if gap_threshold_us <= 0:
        raise ValueError(f"non-positive threshold {gap_threshold_us}")
    flights: list[list[TracePacket]] = []
    current: list[TracePacket] = []
    previous_time: int | None = None
    for packet in packets:
        if (
            previous_time is not None
            and packet.timestamp_us - previous_time > gap_threshold_us
        ):
            flights.append(current)
            current = []
        current.append(packet)
        previous_time = packet.timestamp_us
    if current:
        flights.append(current)
    return flights


def shift_acks(connection: Connection) -> AckShiftStats:
    """Annotate the connection's ACKs with shifted timestamps.

    Modifies ``shifted_timestamp_us`` on the ACK packets in place and
    returns summary statistics.  Data packets keep their timestamps.
    """
    stats = AckShiftStats()
    profile = connection.profile
    if profile is None:
        return stats
    gap_threshold_us = flight_gap_threshold_us(profile.rtt_us)
    if profile.d2_us > 0:
        # The handshake gave a trustworthy tap->sender->tap delay;
        # anything much larger is application think time leaking into
        # the estimate (app-paced flows release data on their own
        # schedule, not the ACKs').
        max_reasonable_shift_us = int(profile.d2_us * 1.5) + 10_000
    else:
        max_reasonable_shift_us = profile.rtt_us + 100_000

    data = connection.data_packets()
    data_times = [p.timestamp_us for p in data]
    data_ends = [connection.relative_seq(p) + p.payload_len for p in data]
    acks = connection.ack_packets()

    # Right edge (ack + window) in effect *before* each ACK: the data a
    # given ACK releases is the first segment past that old edge, which
    # is the [16]-style estimate that survives pipelined flows.
    edges_before: list[int] = []
    edge = 0
    for ack in acks:
        edges_before.append(edge)
        edge = max(edge, connection.relative_ack(ack) + ack.window)

    fallback = profile.d2_us if 0 < profile.d2_us <= max_reasonable_shift_us else None

    index = 0
    for flight in group_flights(acks, gap_threshold_us):
        stats.flights += 1
        d2_values = []
        for ack in flight:
            old_edge = edges_before[index]
            index += 1
            released = _first_release(
                data_times, data_ends, ack.timestamp_us, old_edge
            )
            if released is not None:
                d2_values.append(released - ack.timestamp_us)
        d2_min = min((d for d in d2_values if d > 0), default=None)
        if d2_min is None or d2_min > max_reasonable_shift_us:
            d2_min = fallback
        if d2_min is None:
            continue
        shift = d2_min - 1  # keep ACKs strictly before the data they free
        if shift <= 0:
            continue
        for ack in flight:
            ack.shifted_timestamp_us = ack.timestamp_us + shift
        stats.shifted_flights += 1
        stats.total_shift_us += shift
        stats.max_shift_us = max(stats.max_shift_us, shift)
    return stats


def _first_release(
    data_times: list[int],
    data_ends: list[int],
    after_us: int,
    old_edge: int,
) -> int | None:
    """Arrival time of the first data past ``old_edge`` after ``after_us``."""
    start = bisect.bisect_right(data_times, after_us)
    for i in range(start, len(data_times)):
        if data_ends[i] > old_edge:
            return data_times[i]
    return None


@dataclass
class PacketLabel:
    """The classification of one data packet."""

    packet: TracePacket
    kind: str
    trigger_time_us: int | None = None
    recovery_time_us: int | None = None

    @property
    def is_retransmission(self) -> bool:
        return self.kind in (KIND_UPSTREAM, KIND_DOWNSTREAM)


@dataclass
class LabelingResult:
    """All labels of one connection's data direction."""

    labels: list[PacketLabel]

    def retransmissions(self) -> list[PacketLabel]:
        return [l for l in self.labels if l.is_retransmission]

    def by_kind(self, kind: str) -> list[PacketLabel]:
        return [l for l in self.labels if l.kind == kind]

    def count(self, kind: str) -> int:
        return sum(1 for l in self.labels if l.kind == kind)


def label_connection(connection: Connection) -> LabelingResult:
    """Classify every data packet of the connection's data direction."""
    data = connection.data_packets()
    acks = connection.ack_packets()
    ack_times = [a.timestamp_us for a in acks]
    ack_values = [connection.relative_ack(a) for a in acks]

    labels: list[PacketLabel] = []
    seen = TimeRangeSet()  # sequence-space coverage
    first_seen_time: dict[int, int] = {}  # seg rel_seq -> first time
    # Sequence holes and when they became visible (the arrival of the
    # first packet that jumped past them).
    gaps: list[list[int]] = []  # [start, end, created_time, creator_ip_id]
    max_seq_end = 0
    max_end_time = 0  # when max_seq_end was reached
    max_end_ip_id = 0

    for packet in data:
        seq = connection.relative_seq(packet)
        end = seq + packet.payload_len
        if end <= max_seq_end:
            already = seen.clip(seq, end).size()
            if already >= packet.payload_len:
                kind = KIND_DOWNSTREAM
                trigger = first_seen_time.get(seq, packet.timestamp_us)
            else:
                gap = _find_gap(gaps, seq)
                gap_time = gap[2] if gap else max_end_time
                gap_ip_id = gap[3] if gap else max_end_ip_id
                arrived_quickly = (
                    packet.timestamp_us - gap_time <= REORDER_WINDOW_US
                )
                sent_before_gap = _ip_id_before(packet.ip_id, gap_ip_id)
                if arrived_quickly and sent_before_gap:
                    kind = KIND_REORDERING
                    trigger = None
                else:
                    kind = KIND_UPSTREAM
                    trigger = gap_time
                if gap:
                    _shrink_gap(gaps, gap, seq, end)
            recovery = None
            if kind in (KIND_UPSTREAM, KIND_DOWNSTREAM):
                recovery = _recovery_time(
                    ack_times, ack_values, packet.timestamp_us, seq
                )
            labels.append(
                PacketLabel(
                    packet=packet,
                    kind=kind,
                    trigger_time_us=trigger,
                    recovery_time_us=recovery,
                )
            )
        else:
            labels.append(PacketLabel(packet=packet, kind=KIND_NEW))
            if seq > max_seq_end:
                gaps.append(
                    [max_seq_end, seq, packet.timestamp_us, packet.ip_id]
                )
            max_seq_end = end
            max_end_time = packet.timestamp_us
            max_end_ip_id = packet.ip_id
        seen.add_span(seq, end)
        first_seen_time.setdefault(seq, packet.timestamp_us)
    return LabelingResult(labels=labels)


def _find_gap(gaps: list[list[int]], seq: int) -> list[int] | None:
    for gap in gaps:
        if gap[0] <= seq < gap[1]:
            return gap
    return None


def _shrink_gap(
    gaps: list[list[int]], gap: list[int], fill_start: int, fill_end: int
) -> None:
    """Remove the filled part of a hole, splitting it if needed."""
    start, end, created, ip_id = gap
    gaps.remove(gap)
    if fill_start > start:
        gaps.append([start, fill_start, created, ip_id])
    if fill_end < end:
        gaps.append([fill_end, end, created, ip_id])


def _ip_id_before(candidate: int, reference: int) -> bool:
    """True if ``candidate`` precedes ``reference`` modulo 2^16."""
    return 0 < (reference - candidate) & 0xFFFF < 0x8000


def _recovery_time(
    ack_times: list[int], ack_values: list[int], after_us: int, seq: int
) -> int | None:
    """First ACK past ``seq`` observed after ``after_us``."""
    start = bisect.bisect_right(ack_times, after_us)
    for i in range(start, len(ack_times)):
        if ack_values[i] > seq:
            return ack_times[i]
    return None


def generate_series(
    connection: Connection,
    labeling: LabelingResult | None = None,
    window: tuple[int, int] | None = None,
    config: SeriesConfig | None = None,
) -> ConnectionSeries:
    """Generate the full series catalogue for one connection.

    ``window`` is the analysis period (defaults to the span from the
    first data packet to the last packet of the connection).
    """
    config = config or SeriesConfig()
    if labeling is None:
        labeling = label_connection(connection)
    profile = connection.profile
    if profile is None:
        raise ValueError("connection has no profile; call finalize() first")
    mss = profile.mss
    data = connection.data_packets()
    acks = connection.ack_packets()
    if window is None:
        start = data[0].timestamp_us if data else profile.start_time_us
        window = (start, profile.end_time_us)
    analysis = TimeRange(*window)
    catalog = SeriesCatalog()

    byte_time = _estimate_byte_time(data)

    # ------------------------------------------------------------- #
    # Extraction                                                      #
    # ------------------------------------------------------------- #
    sent = []
    for packet in data:
        ser = max(1, round(packet.wire_len * byte_time))
        sent.append((packet.timestamp_us - ser, packet.timestamp_us))
    transmission = TimeRangeSet(sent)
    catalog.put(EventSeries("Transmission", transmission,
                            "time actually spent clocking data onto the wire"))

    outstanding_fn, outstanding_set = _outstanding(connection, data, acks)
    catalog.put(EventSeries("Outstanding", outstanding_set,
                            "periods with unacknowledged data in flight"))

    ack_marks = TimeRangeSet(
        (t, t + 1) for t in (ack.effective_time_us for ack in acks)
    )
    catalog.put(EventSeries("AckArrivals", ack_marks, "ACK observation instants"))

    adv_fn = _advertised_window(acks)
    small_limit = WINDOW_MARGIN_MSS * mss
    large_limit = max(profile.max_advertised_window - small_limit, 0)
    catalog.put(EventSeries(
        "ZeroAdvWindow",
        adv_fn.ranges_where(lambda v: v == 0, analysis.start, analysis.end),
        "receiver advertised a zero window",
    ))
    catalog.put(EventSeries(
        "SmallAdvWindow",
        adv_fn.ranges_where(lambda v: v < small_limit, analysis.start, analysis.end),
        "receiver window below 3 MSS (receiving app falling behind)",
    ))
    catalog.put(EventSeries(
        "LargeAdvWindow",
        adv_fn.ranges_where(lambda v: v > large_limit, analysis.start, analysis.end),
        "receiver window near its configured maximum",
    ))

    loss_spans = _loss_series(labeling)
    upstream, downstream, reordering = map(TimeRangeSet, loss_spans)
    catalog.put(EventSeries("UpstreamLoss", upstream,
                            "recovery periods for losses upstream of the tap"))
    catalog.put(EventSeries("DownstreamLoss", downstream,
                            "recovery periods for losses downstream of the tap"))
    catalog.put(EventSeries("AllLoss", upstream.union(downstream),
                            "all loss-recovery periods"))
    catalog.put(EventSeries("Reordering", reordering,
                            "in-network reordering (not loss)"))

    keepalives = TimeRangeSet(
        (packet.timestamp_us, packet.timestamp_us + 1)
        for packet in data
        if packet.is_bgp_keepalive()
    )
    catalog.put(EventSeries("KeepAlives", keepalives,
                            "BGP keepalive transmission instants"))

    catalog.put(EventSeries(
        "InterTransmissionGaps",
        transmission.complement(analysis),
        "the time between transmissions that the analyzer must explain",
    ))

    # ------------------------------------------------------------- #
    # Interpretation                                                  #
    # ------------------------------------------------------------- #
    up_series = catalog.get("UpstreamLoss")
    down_series = catalog.get("DownstreamLoss")
    if config.sniffer_location == SNIFFER_AT_RECEIVER:
        catalog.put(EventSeries("SendLocalLoss", TimeRangeSet()))
        catalog.put(down_series.renamed("RecvLocalLoss"))
        catalog.put(up_series.renamed("NetworkLoss"))
    elif config.sniffer_location == SNIFFER_AT_SENDER:
        catalog.put(up_series.renamed("SendLocalLoss"))
        catalog.put(EventSeries("RecvLocalLoss", TimeRangeSet()))
        catalog.put(down_series.renamed("NetworkLoss"))
    else:
        catalog.put(EventSeries("SendLocalLoss", TimeRangeSet()))
        catalog.put(EventSeries("RecvLocalLoss", TimeRangeSet()))
        catalog.put(up_series.union(down_series, name="NetworkLoss"))

    # ------------------------------------------------------------- #
    # Operation: per-flight-cycle constraint attribution              #
    # ------------------------------------------------------------- #
    loss_union = upstream.union(downstream)
    # Window boundedness is evaluated continuously on the outstanding
    # and advertised-window step functions, which handles both discrete
    # flights and continuously ack-clocked periods.
    busy, adv_bnd_raw = _bounded_ranges(
        outstanding_fn, adv_fn, small_limit, analysis.start, analysis.end
    )
    adv_bnd = adv_bnd_raw.difference(loss_union)
    # Sender idleness comes from the flight-cycle walk: the time between
    # the final ACK of one flight and the start of the next.  The
    # congestion-window attribution is opt-in per cycle: only cycles
    # whose next flight follows the ACKs immediately are candidates —
    # in an idle-resolved cycle the ACK-wait is not a cwnd constraint
    # (the sender had nothing more to send, paper section III-C).
    # Data cycles split on a *fine* inter-arrival threshold (not the
    # RTT): a paced sender's per-message gaps must become cycles of
    # their own, or a whole transfer merges into one cycle and gets the
    # classification of its tail.
    threshold = RESPONSE_THRESHOLD_US
    cycles = _flight_cycles(connection, data, acks, profile.rtt_us)
    idle_spans = []
    paced_spans = []
    cwnd_spans = []
    for cycle in cycles:
        # The busy head of every cycle — transmission plus the wait for
        # its ACKs — is window territory (adv or cwnd decide there).
        head_end = cycle.end_us if cycle.acked_us is None else min(
            cycle.acked_us, cycle.end_us
        )
        if head_end > cycle.start_us:
            cwnd_spans.append((cycle.start_us, head_end))
        if cycle.next_start_us is None:
            # The trailing quiet period after the final flight.
            if cycle.acked_us is not None and analysis.end > cycle.acked_us:
                idle_spans.append((cycle.acked_us, analysis.end))
            continue
        gap = cycle.next_start_us - cycle.last_data_us
        if gap <= threshold:
            continue  # continuous transmission
        response = (
            cycle.next_start_us - cycle.acked_us
            if cycle.acked_us is not None
            else None
        )
        ack_slid_window = (
            cycle.last_ack_before_next_us is not None
            and 0
            <= cycle.next_start_us - cycle.last_ack_before_next_us
            <= threshold
        )
        if (response is not None and abs(response) <= threshold) or ack_slid_window:
            # Transmission resumed right on an ACK's heels — either the
            # cycle-covering ACK or an earlier window-sliding one (the
            # delayed ACK of a flight's last odd segment arrives long
            # after the window has already slid open): window bound.
            cwnd_spans.append((cycle.start_us, cycle.next_start_us))
        elif response is not None and response > threshold:
            # Idle after everything was acknowledged: the application.
            idle_spans.append((cycle.acked_us, cycle.next_start_us))
        else:
            # Paused, then resumed *before* the ACKs arrived: the
            # application paces itself (a sender-side rate limit, which
            # the paper folds into SendAppLimited via [15]).
            paced_spans.append((cycle.last_data_us, cycle.next_start_us))
    idle_raw = TimeRangeSet(idle_spans)
    paced_raw = TimeRangeSet(paced_spans)
    cwnd_eligible = TimeRangeSet(cwnd_spans)
    cwd_bnd = (
        busy.intersection(cwnd_eligible)
        .difference(adv_bnd_raw)
        .difference(loss_union)
        .difference(transmission)
        .difference(idle_raw)
        .difference(paced_raw)
    )
    catalog.put(EventSeries("SenderIdleRaw", idle_raw,
                            "raw idle periods before filtering"))
    catalog.put(EventSeries("SenderPacedRaw", paced_raw,
                            "pauses where sending resumed before the ACKs"))
    catalog.put(EventSeries("AdvBndOut", adv_bnd,
                            "flights bounded by the receiver window"))
    catalog.put(EventSeries("CwdBndOut", cwd_bnd,
                            "flights bounded by the congestion window"))

    zero_bnd = catalog.get("ZeroAdvWindow").ranges
    if data:
        zero_bnd = zero_bnd.clip(analysis.start, data[-1].timestamp_us)
    catalog.put(EventSeries("ZeroAdvBndOut", zero_bnd,
                            "transfer stalled on a zero receiver window"))

    # Idle under a small advertised window is the *receiver* pacing the
    # sender, not sender application think-time — the paper's
    # definition requires the sender "not bounded by the TCP windows".
    small_adv = catalog.get("SmallAdvWindow").ranges
    small_adv_stall = idle_raw.intersection(small_adv).difference(loss_union)
    catalog.put(EventSeries("SmallAdvStall", small_adv_stall,
                            "sender idle because the window closed"))
    send_app = (
        idle_raw.union(paced_raw)
        .difference(small_adv)
        .difference(loss_union)
        .clip(analysis.start, analysis.end)
    )
    catalog.put(EventSeries("SendAppLimited", send_app,
                            "sender idle with open windows (BGP app delay)"))

    catalog.put(
        EventSeries(
            "SmallAdvBndOut",
            catalog.get("AdvBndOut")
            .intersection(catalog.get("SmallAdvWindow"))
            .ranges.union(small_adv_stall),
            "receiver window small and binding (receiving app delay)",
        )
    )
    catalog.put(
        catalog.get("AdvBndOut").intersection(
            catalog.get("LargeAdvWindow"), name="LargeAdvBndOut"
        )
    )
    # Everything advertised-window bound that is NOT explained by a
    # closing (small) window is the TCP window configuration limiting —
    # the window may read mid-range at ACK instants while still being
    # the binding constraint.
    catalog.put(
        EventSeries(
            "TcpAdvBndOut",
            catalog.get("AdvBndOut").ranges.difference(small_adv),
            "receiver window binding without the receiving app lagging",
        )
    )
    # The paper found this bug through *conflicting* series: losses
    # while the zero window should have silenced the sender.  The zero
    # window is dilated by ~2 RTT so recoveries that begin the instant a
    # window update ends the episode still register as coincident.
    zero_dilated = catalog.get("ZeroAdvBndOut").ranges.dilate(
        max(2 * profile.rtt_us, 10_000)
    )
    catalog.put(EventSeries(
        "ZeroAckBug",
        zero_dilated.intersection(catalog.get("UpstreamLoss").ranges),
        "upstream-loss recovery coinciding with zero-window episodes",
    ))

    catalog.put(EventSeries(
        "BandwidthLimited",
        _bandwidth_limited(
            data, byte_time, min_duration_us=max(2 * profile.rtt_us, 20_000),
        ),
        "sustained back-to-back arrivals at bottleneck spacing",
    ))

    return ConnectionSeries(
        catalog=catalog,
        labeling=labeling,
        window=analysis,
        mss=mss,
        rtt_us=profile.rtt_us,
        serialization_us_per_byte=byte_time,
    )


# ------------------------------------------------------------------ #
# Internals                                                            #
# ------------------------------------------------------------------ #
def _estimate_byte_time(data: list[TracePacket]) -> float:
    """Packet-pair estimate of the bottleneck's us-per-byte."""
    best: float | None = None
    for prev, curr in zip(data, data[1:]):
        gap = curr.timestamp_us - prev.timestamp_us
        if gap <= 0 or curr.wire_len == 0:
            continue
        rate = gap / curr.wire_len
        if best is None or rate < best:
            best = rate
    return best if best is not None else 0.01


def _outstanding(
    connection: Connection,
    data: list[TracePacket],
    acks: list[TracePacket],
) -> tuple[StepFunction, TimeRangeSet]:
    events: list[tuple[int, int, str, int]] = []
    for packet in data:
        end = connection.relative_seq(packet) + packet.payload_len
        events.append((packet.timestamp_us, 0, "data", end))
    for ack in acks:
        events.append((ack.effective_time_us, 1, "ack", connection.relative_ack(ack)))
    events.sort(key=lambda e: (e[0], e[1]))
    fn = StepFunction()
    spans = []
    snd_max = 0
    acked = 0
    open_since: int | None = None
    for time_us, _, kind, value in events:
        if kind == "data":
            snd_max = max(snd_max, value)
        else:
            acked = max(acked, value)
        outstanding = max(snd_max - acked, 0)
        fn.add(time_us, outstanding)
        if outstanding > 0 and open_since is None:
            open_since = time_us
        elif outstanding == 0 and open_since is not None:
            spans.append((open_since, time_us))
            open_since = None
    if open_since is not None and events:
        spans.append((open_since, events[-1][0] + 1))
    return fn, TimeRangeSet(spans)


def _advertised_window(acks: list[TracePacket]) -> StepFunction:
    fn = StepFunction(initial=65535)
    for ack in sorted(acks, key=lambda a: a.effective_time_us):
        fn.add(ack.effective_time_us, ack.window)
    return fn


def _loss_series(labeling: LabelingResult) -> tuple[list, list, list]:
    """(upstream, downstream, reordering) span lists from the labels."""
    upstream: list[tuple] = []
    downstream: list[tuple] = []
    reordering: list[tuple] = []
    for label in labeling.labels:
        packet = label.packet
        if label.kind == KIND_REORDERING:
            reordering.append((packet.timestamp_us, packet.timestamp_us + 1))
            continue
        if not label.is_retransmission:
            continue
        start = label.trigger_time_us
        if start is None:
            start = packet.timestamp_us
        end = label.recovery_time_us
        if end is None or end <= start:
            end = max(packet.timestamp_us, start + 1)
        target = upstream if label.kind == KIND_UPSTREAM else downstream
        target.append((start, end))
    return upstream, downstream, reordering


@dataclass
class FlightCycle:
    """One data flight plus the quiet period until the next flight."""

    start_us: int
    last_data_us: int
    end_us: int
    packets: int
    bytes: int
    peak_outstanding: int
    acked_us: int | None
    next_start_us: int | None
    # The last ACK observed before the next flight began: a next flight
    # right on its heels is window-sliding, not application pacing.
    last_ack_before_next_us: int | None = None


def _flight_cycles(
    connection: Connection,
    data: list[TracePacket],
    acks: list[TracePacket],
    rtt_us: int,
) -> list[FlightCycle]:
    if not data:
        return []
    flights = group_flights(data, RESPONSE_THRESHOLD_US)
    # Per-flight ACK shifting may locally perturb the time order; sort
    # so the bisect lookups below stay correct.
    pairs = sorted(
        (a.effective_time_us, connection.relative_ack(a)) for a in acks
    )
    ack_times = [t for t, _ in pairs]
    ack_values = [v for _, v in pairs]
    # ack_values is non-decreasing in a sane trace; enforce monotonicity
    # so bisect works even through reordered captures.
    running = 0
    monotone = []
    for value in ack_values:
        running = max(running, value)
        monotone.append(running)

    cycles: list[FlightCycle] = []
    for i, flight in enumerate(flights):
        start = flight[0].timestamp_us
        last_data = flight[-1].timestamp_us
        next_start = (
            flights[i + 1][0].timestamp_us if i + 1 < len(flights) else None
        )
        end = next_start if next_start is not None else last_data + rtt_us
        flight_end_seq = max(
            connection.relative_seq(p) + p.payload_len for p in flight
        )
        acked_us = _first_ack_covering(
            ack_times, monotone, last_data, flight_end_seq
        )
        peak = max(
            flight_end_seq
            - _ack_value_at(ack_times, monotone, p.timestamp_us)
            for p in flight
        )
        last_ack_before_next = None
        if next_start is not None:
            idx = bisect.bisect_right(ack_times, next_start) - 1
            if idx >= 0:
                last_ack_before_next = ack_times[idx]
        cycles.append(
            FlightCycle(
                start_us=start,
                last_data_us=last_data,
                end_us=end,
                packets=len(flight),
                bytes=sum(p.payload_len for p in flight),
                peak_outstanding=peak,
                acked_us=acked_us,
                next_start_us=next_start,
                last_ack_before_next_us=last_ack_before_next,
            )
        )
    return cycles


def _first_ack_covering(
    ack_times: list[int], ack_values: list[int], after_us: int, seq: int
) -> int | None:
    start = bisect.bisect_left(ack_times, after_us)
    for i in range(start, len(ack_times)):
        if ack_values[i] >= seq:
            return ack_times[i]
    return None


def _ack_value_at(
    ack_times: list[int], ack_values: list[int], time_us: int
) -> int:
    idx = bisect.bisect_right(ack_times, time_us) - 1
    if idx < 0:
        return 0
    return ack_values[idx]


def _bandwidth_limited(
    data: list[TracePacket],
    byte_time: float,
    min_duration_us: int,
) -> TimeRangeSet:
    spans = []
    run_start: int | None = None
    run_packets = 0

    def commit(end_us: int) -> None:
        # A window-sized burst also rides at wire speed; only runs both
        # long (in packets) and sustained (in time, beyond a couple of
        # RTTs) indicate an actually bandwidth-limited path.
        if (
            run_start is not None
            and run_packets >= BANDWIDTH_MIN_PACKETS
            and end_us - run_start >= min_duration_us
        ):
            spans.append((run_start, end_us))

    for prev, curr in zip(data, data[1:]):
        gap = curr.timestamp_us - prev.timestamp_us
        expected = curr.wire_len * byte_time
        if gap <= expected * BANDWIDTH_SLACK:
            if run_start is None:
                run_start = prev.timestamp_us
                run_packets = 1
            run_packets += 1
        else:
            commit(prev.timestamp_us)
            run_start = None
            run_packets = 0
    commit(data[-1].timestamp_us if data else 0)
    return TimeRangeSet(spans)


def find_capture_voids(connection: Connection) -> CaptureVoidReport:
    """Detect periods where the tap demonstrably missed packets.

    Bytes that the receiver cumulatively acknowledged but that never
    appear in the capture (neither originally nor as retransmissions)
    are phantom bytes; the void window spans from the last packet seen
    before the phantom range to the first packet seen after it.
    """
    data = connection.data_packets()
    acks = connection.ack_packets()
    if not data or not acks:
        return CaptureVoidReport(detected=False)

    highest_ack = max(connection.relative_ack(a) for a in acks)
    if highest_ack <= 0:
        return CaptureVoidReport(detected=False)
    spans = []
    for packet in data:
        seq = connection.relative_seq(packet)
        spans.append((seq, seq + packet.payload_len))
    phantom = TimeRangeSet(spans).complement((0, highest_ack))
    if not phantom:
        return CaptureVoidReport(detected=False)

    # Map each phantom byte range to the time window it must have been
    # transmitted in: between the last seen packet below it and the
    # first seen packet above it.
    events = sorted(
        (connection.relative_seq(p), p.timestamp_us) for p in data
    )
    windows = []
    for hole in phantom:
        before = [t for seq, t in events if seq < hole.start]
        after = [t for seq, t in events if seq >= hole.end]
        start_us = max(before) if before else connection.packets[0].timestamp_us
        end_us = min(after) if after else connection.packets[-1].timestamp_us
        if end_us > start_us:
            windows.append((start_us, end_us))
    return CaptureVoidReport(
        detected=True,
        phantom_bytes=phantom.size(),
        void_windows=TimeRangeSet(windows),
    )


def detect_long_keepalive_pauses(
    connection: Connection,
) -> PeerGroupBlockingReport:
    """Single-trace variant: long sender pauses with only keepalives.

    A candidate pause is the whole period between two non-keepalive
    data packets; it qualifies when it is long and at least one BGP
    keepalive crossed the wire inside it (the session was alive but the
    application sent nothing) — the paper's "only keep-alive messages
    are seen within the whole idle period" confirmation.  Without the
    sibling connection's trace the cause cannot be pinned to peer-group
    replication, but the signature is the same.
    """
    real_data = []
    keepalive_times = []
    for packet in connection.data_packets():
        if packet.is_bgp_keepalive():
            keepalive_times.append(packet.timestamp_us)
        else:
            real_data.append(packet.timestamp_us)
    blocked = []
    for left, right in zip(real_data, real_data[1:]):
        if right - left < PEER_GROUP_MIN_BLOCK_US:
            continue
        inside = [t for t in keepalive_times if left < t < right]
        if inside:
            blocked.append(TimeRange(left, right))
    return PeerGroupBlockingReport(
        detected=bool(blocked),
        blocked_ranges=blocked,
        induced_delay_us=sum(r.duration for r in blocked),
    )


def _only_keepalives(connection: Connection, rng: TimeRange) -> bool:
    """No non-keepalive data left the sender inside ``rng``."""
    for packet in connection.data_packets():
        if rng.start <= packet.timestamp_us < rng.end:
            if not packet.is_bgp_keepalive():
                return False
    return True
