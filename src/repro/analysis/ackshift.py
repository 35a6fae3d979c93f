"""Sniffer-location accommodation: shift ACK flights forward by d2_min.

The paper (section III-B1) rewrites the receiver-side capture into an
approximate sender-side trace.  For every *flight* of ACKs the per-ACK
``d2`` (ACK seen at the tap → released data seen at the tap) is
estimated and the whole flight shifted forward by the flight's minimum
d2, which is the most precise of its members: the ACKs that explicitly
free window space are answered within one sender turnaround, whereas
later ACKs in the flight could have arrived anywhere in a wide interval
without changing the packet arrivals.

When the capture is already sender-side (d2 ≈ 0) the step is a safe
no-op, as the paper requires.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.analysis.columns import FirstAbove
from repro.analysis.flights import flight_gap_threshold_us, group_flights
from repro.analysis.profile import Connection


@dataclass
class AckShiftStats:
    """What the shift step did, for reporting and tests."""

    flights: int = 0
    shifted_flights: int = 0
    total_shift_us: int = 0
    max_shift_us: int = 0


def shift_acks(connection: Connection) -> AckShiftStats:
    """Rewrite the connection's shifted ACK-time column.

    Every call writes the whole ``connection.acks.shifted`` column:
    shifted flights move forward, the rest keep their raw times, so
    nothing from an earlier analysis survives.  Data packets keep their
    timestamps.  ACK flights split on :func:`flight_gap_threshold_us`.
    Returns summary statistics.
    """
    stats = AckShiftStats()
    profile = connection.profile
    if profile is None:
        return stats
    if profile.d2_us > 0:
        # The handshake gave a trustworthy tap->sender->tap delay;
        # anything much larger is application think time leaking into
        # the estimate (app-paced flows release data on their own
        # schedule, not the ACKs').
        max_reasonable_shift_us = int(profile.d2_us * 1.5) + 10_000
    else:
        max_reasonable_shift_us = profile.rtt_us + 100_000

    data, acks = connection.data, connection.acks
    data_times = data.time
    releases = FirstAbove(data.end)
    ack_times = acks.time
    shifted = list(ack_times)

    # Right edge (ack + window) in effect *before* each ACK: the data a
    # given ACK releases is the first segment past that old edge, which
    # is the [16]-style estimate that survives pipelined flows.
    edges_before: list[int] = []
    edge = 0
    for value, window in zip(acks.value, acks.window):
        edges_before.append(edge)
        if value + window > edge:
            edge = value + window

    fallback = profile.d2_us if 0 < profile.d2_us <= max_reasonable_shift_us else None

    gap_threshold_us = flight_gap_threshold_us(profile.rtt_us)
    for first, stop in group_flights(ack_times, gap_threshold_us):
        stats.flights += 1
        d2_min = None
        for i in range(first, stop):
            ack_us = ack_times[i]
            released = releases.find(
                bisect.bisect_right(data_times, ack_us), edges_before[i]
            )
            if released is not None:
                d2 = data_times[released] - ack_us
                if d2 > 0 and (d2_min is None or d2 < d2_min):
                    d2_min = d2
        if d2_min is None or d2_min > max_reasonable_shift_us:
            d2_min = fallback
        if d2_min is None:
            continue
        shift = d2_min - 1  # keep ACKs strictly before the data they free
        if shift <= 0:
            continue
        for i in range(first, stop):
            shifted[i] += shift
        stats.shifted_flights += 1
        stats.total_shift_us += shift
        stats.max_shift_us = max(stats.max_shift_us, shift)
    acks.shifted = shifted
    return stats


def unshift_acks(connection: Connection) -> None:
    """Reset the shifted ACK-time column to the raw ACK times."""
    acks = connection.acks
    if acks is not None:
        acks.shifted = acks.time
