"""Correlating BGP messages with the TCP packets that carried them.

The paper's Table III shows updates a router *queued at the same
instant* arriving at the receiving BGP process seconds apart because of
retransmissions — a mapping between application messages and transport
packets.  This module makes that mapping a first-class API: for every
reconstructed BGP message it reports which sequence-range of the stream
held it, when its bytes were first put on the wire, when the receiver
finally had it contiguously, and whether retransmissions were involved.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass
from operator import itemgetter

from repro.analysis.profile import Connection
from repro.bgp.messages import BgpMessage, UpdateMessage, encode_message
from repro.core.timeranges import TimeRangeSet
from repro.tools.pcap2bgp import reconstruct_stream
from repro.wire.pcap import PcapRecord


@dataclass
class CorrelatedMessage:
    """One BGP message aligned with its transport-level history."""

    message: BgpMessage
    start_seq: int  # relative stream offset of the first byte
    end_seq: int  # one past the last byte
    first_attempt_us: int  # first time any of its bytes hit the wire
    delivered_us: int  # when the receiver acknowledged the last byte
    retransmitted: bool  # did recovering it need retransmissions?

    @property
    def delay_us(self) -> int:
        """Wire-to-delivery delay (the paper's Table III column)."""
        return max(self.delivered_us - self.first_attempt_us, 0)

    @property
    def wire_length(self) -> int:
        return self.end_seq - self.start_seq


def correlate_messages(
    connection: Connection, records: Sequence[PcapRecord]
) -> list[CorrelatedMessage]:
    """Align every reconstructed message with its carrying packets.

    ``records`` is the capture the connection was built from; the BGP
    stream is reassembled from its payloads.
    """
    stream = reconstruct_stream(connection, records)
    if stream.decode_error is not None:
        raise ValueError(f"stream does not decode: {stream.decode_error}")

    columns = connection.data
    # (seq, time, length) of every data packet, in sequence order.
    data = sorted(
        zip(columns.seq, columns.time, columns.length), key=itemgetter(0)
    )
    starts = [seq for seq, _, _ in data]

    # Bytes that crossed the tap more than once: retransmitted stream
    # content, independent of how the resends were re-segmented (a
    # go-back-N recovery coalesces holes into fresh MSS boundaries).
    seen = TimeRangeSet()
    retx_coverage = TimeRangeSet()
    for seq, end in zip(columns.seq, columns.end):
        for dup in seen.clip(seq, end):
            retx_coverage.add(dup)
        seen.add_span(seq, end)

    max_payload = max(columns.length, default=0)

    def covering_times(start: int, end: int):
        # Any packet whose [seq, seq+len) overlaps [start, end) counts;
        # walk back past duplicates and boundary-spanning segments.
        index = bisect.bisect_right(starts, start) - 1
        while index > 0 and starts[index - 1] + max_payload > start:
            index -= 1
        index = max(index, 0)
        found = []
        while index < len(data):
            seq, time_us, length = data[index]
            if seq >= end:
                break
            if seq + length > start:
                found.append(time_us)
            index += 1
        return found

    def overlaps_retransmission(start: int, end: int) -> bool:
        return bool(retx_coverage.overlapping(start, end))

    # Delivery is judged by the receiver's cumulative-ACK frontier: the
    # tap may capture bytes the receiver never got (downstream losses),
    # so capture completion is not delivery.
    ack_events = sorted(zip(connection.acks.time, connection.acks.value))
    frontier_times: list[int] = []
    frontier_values: list[int] = []
    best = 0
    for t, value in ack_events:
        if value > best:
            best = value
            frontier_times.append(t)
            frontier_values.append(best)

    def delivery_time(end: int, fallback: int) -> int:
        index = bisect.bisect_left(frontier_values, end)
        if index < len(frontier_times):
            return frontier_times[index]
        return fallback

    correlated: list[CorrelatedMessage] = []
    offset = 0
    for timed in stream.messages:
        length = len(encode_message(timed.message))
        start, end = offset, offset + length
        offset = end
        first_attempt = min(
            covering_times(start, end), default=timed.timestamp_us
        )
        delivered = delivery_time(end, timed.timestamp_us)
        correlated.append(
            CorrelatedMessage(
                message=timed.message,
                start_seq=start,
                end_seq=end,
                first_attempt_us=first_attempt,
                delivered_us=max(delivered, first_attempt),
                retransmitted=overlaps_retransmission(start, end),
            )
        )
    return correlated


def delayed_updates(
    connection: Connection,
    records: Sequence[PcapRecord],
    min_delay_us: int = 500_000,
) -> list[CorrelatedMessage]:
    """Table III extraction: UPDATEs delayed beyond ``min_delay_us``."""
    return [
        c
        for c in correlate_messages(connection, records)
        if isinstance(c.message, UpdateMessage) and c.delay_us >= min_delay_us
    ]
