"""Packet labeling: retransmissions, out-of-sequence, reordering.

Implements the classification of Jaiswal et al. [17] as used by the
paper (section II-B2):

* a data packet whose bytes were **already seen** at the tap is a
  retransmission caused by loss *downstream* of the tap (between the
  sniffer and the receiver, or the ACK path) — the paper's
  receiver-local loss when the tap sits next to the receiver;
* a data packet that fills a **never-seen sequence gap** is
  out-of-sequence: either in-network *reordering* or a retransmission
  after *upstream* loss.  Reordering is filtered out when the packet
  arrives within a small window of the gap's creation and its IPv4
  identification predates the gap-creating packet (it was sent earlier);
* everything else advances the stream normally.

Every loss event also carries a *recovery range*: from the moment the
loss became visible to the moment an ACK finally covered the hole.
These ranges — not the drop instants — are what the paper's loss series
measure ("the whole retransmission period spent in recovering the
loss").
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.analysis.profile import Connection, TracePacket
from repro.core.timeranges import TimeRangeSet

# Out-of-order packets closer than this to the gap creation, with an
# earlier IP ID, are reordering rather than loss (Jaiswal threshold).
REORDER_WINDOW_US = 3_000

KIND_NEW = "new"
KIND_UPSTREAM = "upstream"
KIND_DOWNSTREAM = "downstream"
KIND_REORDERING = "reordering"


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
