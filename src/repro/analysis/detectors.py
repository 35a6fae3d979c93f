"""Detectors for the specific transport problems of paper section IV-B.

Each detector consumes the generated event series (not the raw trace),
demonstrating the paper's point that the unified time-range
representation makes targeted problem checks short and composable:

* **BGP timer gaps** — a knee in the sender-idle gap-length
  distribution reveals a timer-driven implementation and its period;
* **Consecutive losses** — coalesced loss-recovery ranges covering
  at least 8 retransmissions (enough to collapse cwnd and ssthresh to
  their minima);
* **Peer-group blocking** — one session's sender idleness coinciding
  with a sibling session's loss recovery, with only keepalives flowing;
* **ZeroAckBug** — simultaneous zero-window-bounded and upstream-loss
  periods (``ZeroAdvBndOut ∩ UpstreamLoss``), the implementation bug
  the paper discovered via conflicting series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.knee import l_method_knee, plateau_value
from repro.analysis.profile import Connection
from repro.analysis.series import ConnectionSeries
from repro.core.events import SeriesEventData
from repro.core.timeranges import TimeRange, TimeRangeSet
from repro.core.units import seconds

# Gaps outside this band are not implementation timers.
TIMER_GAP_MIN_US = 20_000
TIMER_GAP_MAX_US = seconds(5)
TIMER_MIN_GAPS = 8
TIMER_PLATEAU_FRACTION = 0.5

CONSECUTIVE_LOSS_THRESHOLD = 8

PEER_GROUP_MIN_BLOCK_US = seconds(10)


@dataclass
class TimerGapReport:
    """Outcome of the timer-gap detector for one connection."""

    detected: bool
    timer_us: int | None = None
    gap_count: int = 0
    plateau_count: int = 0
    induced_delay_us: int = 0
    gap_durations_us: list[int] = field(default_factory=list)


def detect_timer_gaps(series: ConnectionSeries) -> TimerGapReport:
    """Infer a BGP implementation timer from sender-idle gap lengths.

    The idle gap a timer leaves on the wire is roughly (timer − RTT),
    because the idle period is measured from ACK arrival at the sender
    to its next transmission; the reported timer adds the RTT back.
    """
    idle = series.catalog.get_or_empty("SendAppLimited")
    gaps = sorted(
        d for d in idle.ranges.durations()
        if TIMER_GAP_MIN_US <= d <= TIMER_GAP_MAX_US
    )
    if len(gaps) < TIMER_MIN_GAPS:
        return TimerGapReport(detected=False, gap_count=len(gaps),
                              gap_durations_us=gaps)
    median = gaps[len(gaps) // 2]
    if gaps[-1] - gaps[0] <= max(0.2 * median, 20_000):
        # The whole distribution is one flat plateau: a pure timer.
        return TimerGapReport(
            detected=True,
            timer_us=int(median) + series.rtt_us,
            gap_count=len(gaps),
            plateau_count=len(gaps),
            induced_delay_us=sum(gaps),
            gap_durations_us=gaps,
        )
    knee = l_method_knee(gaps)
    plateau = plateau_value(gaps, knee)
    if plateau is None:
        return TimerGapReport(detected=False, gap_count=len(gaps),
                              gap_durations_us=gaps)
    plateau_count = knee + 1
    # The plateau must be flat (a repeating timer, not a smooth spread)
    # and cover a meaningful share of the gaps.
    plateau_gaps = gaps[:plateau_count]
    flat = plateau_gaps[-1] - plateau_gaps[0] <= max(plateau * 0.5, 20_000)
    pronounced = plateau_count / len(gaps) >= TIMER_PLATEAU_FRACTION
    if not (flat and pronounced):
        return TimerGapReport(detected=False, gap_count=len(gaps),
                              gap_durations_us=gaps)
    return TimerGapReport(
        detected=True,
        timer_us=int(plateau) + series.rtt_us,
        gap_count=len(gaps),
        plateau_count=plateau_count,
        induced_delay_us=sum(plateau_gaps),
        gap_durations_us=gaps,
    )


@dataclass
class ConsecutiveLossReport:
    """Outcome of the consecutive-loss detector."""

    detected: bool
    episodes: int = 0
    worst_run: int = 0
    induced_delay_us: int = 0
    episode_ranges: list[TimeRange] = field(default_factory=list)


def detect_consecutive_losses(
    series: ConnectionSeries,
    threshold: int = CONSECUTIVE_LOSS_THRESHOLD,
    cluster_gap_us: int = 500_000,
) -> ConsecutiveLossReport:
    """Find recovery episodes covering >= ``threshold`` retransmissions.

    Individual loss-recovery ranges closer than ``cluster_gap_us`` are
    one episode: a burst of drops recovers through several RTO rounds
    whose ranges fragment, but operationally it is a single event whose
    cost is the whole recovery period (paper section IV-B).
    """
    send_local = series.catalog.get_or_empty("SendLocalLoss")
    recv_local = series.catalog.get_or_empty("RecvLocalLoss")
    network = series.catalog.get_or_empty("NetworkLoss")
    all_loss = send_local.union(recv_local, network, name="loss-union")
    clusters = all_loss.ranges.dilate(cluster_gap_us // 2)
    episodes = []
    worst = 0
    delay = 0
    for cluster in clusters:
        members = all_loss.ranges.overlapping(cluster.start, cluster.end)
        packets = sum(_range_packets(m) for m in members)
        worst = max(worst, packets)
        if packets >= threshold and members:
            span = TimeRange(
                min(m.start for m in members), max(m.end for m in members)
            )
            episodes.append(span)
            delay += span.duration
    return ConsecutiveLossReport(
        detected=bool(episodes),
        episodes=len(episodes),
        worst_run=worst,
        induced_delay_us=delay,
        episode_ranges=episodes,
    )


def _range_packets(rng: TimeRange) -> int:
    data = rng.data
    if isinstance(data, SeriesEventData):
        return data.packets
    if isinstance(data, list):
        return sum(
            item.packets for item in data if isinstance(item, SeriesEventData)
        )
    return 1 if data is None else 1


@dataclass
class PeerGroupBlockingReport:
    """Outcome of the cross-connection peer-group detector."""

    detected: bool
    blocked_ranges: list[TimeRange] = field(default_factory=list)
    induced_delay_us: int = 0


def detect_peer_group_blocking(
    idle_series: ConnectionSeries,
    idle_connection: Connection,
    failed_series: ConnectionSeries,
    min_block_us: int = PEER_GROUP_MIN_BLOCK_US,
) -> PeerGroupBlockingReport:
    """Did ``failed`` drag down ``idle`` through peer-group replication?

    Implements the paper's rule
    ``A.SendAppLimited ∩ B.Loss`` (section IV-B), confirmed by checking
    that only keepalives left A during the overlap.
    """
    # Candidate pauses on the idle session: whole periods between
    # non-keepalive data with keepalives flowing inside (keepalives
    # would otherwise chop SendAppLimited into sub-threshold pieces).
    pauses = detect_long_keepalive_pauses(
        idle_series, idle_connection, min_block_us
    ).blocked_ranges
    failed_loss = failed_series.catalog.get_or_empty("AllLoss").ranges
    blocked = []
    for pause in pauses:
        overlap = TimeRangeSet([pause]).intersection(failed_loss)
        if overlap.size() >= min(min_block_us, pause.duration // 2):
            blocked.append(pause)
    return PeerGroupBlockingReport(
        detected=bool(blocked),
        blocked_ranges=blocked,
        induced_delay_us=sum(r.duration for r in blocked),
    )


def detect_long_keepalive_pauses(
    series: ConnectionSeries,
    connection: Connection,
    min_block_us: int = PEER_GROUP_MIN_BLOCK_US,
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
        if right - left < min_block_us:
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


@dataclass
class ZeroAckBugReport:
    """Outcome of the zero-window probe-bug detector."""

    detected: bool
    occurrences: int = 0
    induced_delay_us: int = 0


def detect_zero_ack_bug(
    series: ConnectionSeries, min_delay_us: int = 10_000
) -> ZeroAckBugReport:
    """Conflicting series: zero-window-bounded while recovering losses."""
    bug = series.catalog.get_or_empty("ZeroAckBug")
    size = bug.size()
    return ZeroAckBugReport(
        detected=size >= min_delay_us and len(bug) > 0,
        occurrences=len(bug),
        induced_delay_us=size,
    )
