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
from collections.abc import Sequence
from dataclasses import dataclass

from repro.analysis.columns import FirstAbove
from repro.analysis.profile import Connection
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
    """The classification of one data packet.

    ``position`` indexes the connection's ``data`` columns.
    """

    position: int
    kind: str
    timestamp_us: int


@dataclass
class LabelingResult:
    """All labels of one connection's data direction, as columns.

    ``kinds`` has one entry per data packet.  ``events`` lists only the
    packets that are not :data:`KIND_NEW`, in data order, as
    ``(position, kind, trigger_time_us, recovery_time_us)``; ``times``
    is the data packets' time column.
    """

    kinds: list[str]
    events: list[tuple[int, str, int | None, int | None]]
    times: Sequence[int]

    def retransmissions(self) -> list[PacketLabel]:
        times = self.times
        return [
            PacketLabel(position, kind, times[position])
            for position, kind, _, _ in self.events
            if kind in (KIND_UPSTREAM, KIND_DOWNSTREAM)
        ]

    def count(self, kind: str) -> int:
        return self.kinds.count(kind)


def label_connection(connection: Connection) -> LabelingResult:
    """Classify every data packet of the connection's data direction."""
    data, acks = connection.data, connection.acks
    if data is None or acks is None:
        raise ValueError("connection has no columns; call finalize() first")
    ack_times = acks.time
    recoveries = FirstAbove(acks.value)

    kinds: list[str] = []
    events: list[tuple[int, str, int | None, int | None]] = []
    seen = TimeRangeSet()  # sequence-space coverage
    first_seen_time: dict[int, int] = {}  # seg rel_seq -> first time
    # Sequence holes and when they became visible (the arrival of the
    # first packet that jumped past them).
    gaps: list[list[int]] = []  # [start, end, created_time, creator_ip_id]
    max_seq_end = 0
    max_end_time = 0  # when max_seq_end was reached
    max_end_ip_id = 0

    for position, (seq, end, time_us, ip_id) in enumerate(
        zip(data.seq, data.end, data.time, data.ip_id)
    ):
        if end <= max_seq_end:
            already = seen.clip(seq, end).size()
            if already >= end - seq:
                kind = KIND_DOWNSTREAM
                trigger = first_seen_time.get(seq, time_us)
            else:
                gap = _find_gap(gaps, seq)
                gap_time = gap[2] if gap else max_end_time
                gap_ip_id = gap[3] if gap else max_end_ip_id
                arrived_quickly = time_us - gap_time <= REORDER_WINDOW_US
                sent_before_gap = _ip_id_before(ip_id, gap_ip_id)
                if arrived_quickly and sent_before_gap:
                    kind = KIND_REORDERING
                    trigger = None
                else:
                    kind = KIND_UPSTREAM
                    trigger = gap_time
                if gap:
                    _shrink_gap(gaps, gap, seq, end)
            recovery = None
            if kind != KIND_REORDERING:
                found = recoveries.find(
                    bisect.bisect_right(ack_times, time_us), seq
                )
                if found is not None:
                    recovery = ack_times[found]
            kinds.append(kind)
            events.append((position, kind, trigger, recovery))
        else:
            kinds.append(KIND_NEW)
            if seq > max_seq_end:
                gaps.append([max_seq_end, seq, time_us, ip_id])
            max_seq_end = end
            max_end_time = time_us
            max_end_ip_id = ip_id
        seen.add_span(seq, end)
        first_seen_time.setdefault(seq, time_us)
    return LabelingResult(kinds=kinds, events=events, times=data.time)


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
