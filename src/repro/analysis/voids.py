"""Capture-void detection: where the *sniffer* lost packets.

The paper (section II-A) notes that tcpdump itself sometimes drops
packets, leaving void periods that must be excluded from analysis —
otherwise sniffer artifacts masquerade as transfer pathologies.

A sniffer drop has a distinctive signature that distinguishes it from a
network loss: the receiver *acknowledges* bytes the capture never
contains.  A network loss leaves a hole that is eventually filled by a
visible retransmission; a capture hole is acked straight through and no
fill ever appears.

:func:`find_capture_voids` reports both the phantom byte ranges and the
corresponding void time windows, which callers subtract from the
analysis period (see ``analyze_connection(exclude_voids=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.profile import Connection
from repro.core.timeranges import TimeRangeSet


@dataclass
class CaptureVoidReport:
    """Output of the void detector for one connection."""

    detected: bool
    phantom_bytes: int = 0
    void_windows: TimeRangeSet = field(default_factory=TimeRangeSet)

    @property
    def excluded_us(self) -> int:
        """Total void time to exclude from the analysis period."""
        return self.void_windows.size()


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
