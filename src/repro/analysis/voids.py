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
analysis period (``analyze_connection`` always does).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from itertools import accumulate

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
    data, acks = connection.data, connection.acks
    if not data or not acks:
        return CaptureVoidReport(detected=False)

    highest_ack = max(acks.value)
    if highest_ack <= 0:
        return CaptureVoidReport(detected=False)
    phantom = TimeRangeSet(list(zip(data.seq, data.end))).complement(
        (0, highest_ack)
    )
    if not phantom:
        return CaptureVoidReport(detected=False)

    # Map each phantom byte range to the time window it must have been
    # transmitted in: between the last seen packet below it and the
    # first seen packet above it.  With the packets sorted by sequence
    # those are a prefix maximum and a suffix minimum of their times,
    # each found by one bisect per hole.
    events = sorted(zip(data.seq, data.time))
    seqs = [seq for seq, _ in events]
    latest_below = list(accumulate((t for _, t in events), max))
    earliest_above = list(accumulate((t for _, t in reversed(events)), min))
    earliest_above.reverse()
    packets = connection.packets
    windows = []
    for hole in phantom:
        below = bisect.bisect_left(seqs, hole.start)
        above = bisect.bisect_left(seqs, hole.end)
        start_us = latest_below[below - 1] if below else packets.time[0]
        end_us = (
            earliest_above[above] if above < len(seqs) else packets.time[-1]
        )
        if end_us > start_us:
            windows.append((start_us, end_us))
    return CaptureVoidReport(
        detected=True,
        phantom_bytes=phantom.size(),
        void_windows=TimeRangeSet(windows),
    )
