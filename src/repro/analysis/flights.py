"""Flight grouping: split packet timelines on inter-arrival gaps.

Both the ACK-shift step and the congestion-window inference reason
about *flights* — bursts of packets separated by quiet periods, the
grouping technique of Zhang et al. [38] that the paper adopts for ACKs
as well as data.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import islice


def flight_gap_threshold_us(rtt_us: int) -> int:
    """The ACK-flight split threshold: half an RTT, floored at 1 ms."""
    return max(rtt_us // 2, 1_000)


def group_flights(
    times: Sequence[int], gap_threshold_us: int
) -> list[tuple[int, int]]:
    """Partition a time column into flights of consecutive positions.

    A gap of more than ``gap_threshold_us`` between consecutive times
    starts a new flight.  Each flight is a half-open ``(first, stop)``
    range of positions into ``times``.
    """
    if gap_threshold_us <= 0:
        raise ValueError(f"non-positive threshold {gap_threshold_us}")
    gaps = map(int.__sub__, islice(times, 1, None), times)
    bounds = [0]
    bounds += [i for i, gap in enumerate(gaps, 1) if gap > gap_threshold_us]
    bounds.append(len(times))
    return list(zip(bounds, bounds[1:])) if times else []
