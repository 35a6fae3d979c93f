"""Event-series generation: the heart of T-DAT (paper section III-C).

From one connection's (ACK-shifted) packet timeline this module derives
the catalogue of named :class:`~repro.core.events.EventSeries`, through
the paper's three rule classes:

* **Extraction** — series read directly off the trace: transmission
  time, outstanding bytes, the receiver-advertised window, upstream and
  downstream loss-recovery periods, reordering, keepalives;
* **Interpretation** — renaming by deployment knowledge: with the
  sniffer next to the receiver, ``RecvLocalLoss := DownstreamLoss`` and
  ``NetworkLoss := UpstreamLoss`` (mirrored for a sender-side tap);
* **Operation** — inference and set algebra: sender application
  idleness, advertised-window-bounded and congestion-window-bounded
  flights, ``SmallAdvBndOut := AdvBndOut ∩ SmallAdv`` and friends.

The walk is organized around *flight cycles*: consecutive data flights
split on inter-arrival gaps, each cycle ending where the next flight
begins.  Per cycle the generator decides which constraint (receiver
window, congestion window, loss recovery, or the sending application)
explains the inter-transmission gap — the question the paper poses
under Figure 11.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import accumulate, compress, islice

from repro.analysis.flights import group_flights
from repro.analysis.labeling import (
    KIND_REORDERING,
    KIND_UPSTREAM,
    LabelingResult,
    label_connection,
)
from repro.analysis.columns import AckColumns, DataColumns
from repro.analysis.profile import Connection
from repro.core.events import EventSeries, SeriesCatalog
from repro.core.timeranges import TimeRange, TimeRangeSet

SNIFFER_AT_RECEIVER = "receiver"
SNIFFER_AT_SENDER = "sender"
SNIFFER_IN_MIDDLE = "middle"
SNIFFER_LOCATIONS = (SNIFFER_AT_RECEIVER, SNIFFER_AT_SENDER, SNIFFER_IN_MIDDLE)

#: All series the generator can emit (the paper's "34 internal series";
#: ours are enumerated here for discoverability).
SERIES_NAMES = [
    # Extraction
    "Transmission",
    "Outstanding",
    "AckArrivals",
    "ZeroAdvWindow",
    "SmallAdvWindow",
    "LargeAdvWindow",
    "UpstreamLoss",
    "DownstreamLoss",
    "AllLoss",
    "Reordering",
    "KeepAlives",
    "InterTransmissionGaps",
    # Interpretation
    "SendLocalLoss",
    "RecvLocalLoss",
    "NetworkLoss",
    # Operation
    "SenderIdleRaw",
    "SenderPacedRaw",
    "SmallAdvStall",
    "SendAppLimited",
    "AdvBndOut",
    "CwdBndOut",
    "ZeroAdvBndOut",
    "SmallAdvBndOut",
    "LargeAdvBndOut",
    "TcpAdvBndOut",
    "ZeroAckBug",
    "BandwidthLimited",
]


#: "Small"/"large" advertised-window margin, in MSS (paper: 3 MSS).
WINDOW_MARGIN_MSS = 3
#: A sender answering ACKs within this delay is not app-limited; data
#: flights split into cycles on gaps longer than it.
RESPONSE_THRESHOLD_US = 2_000
#: Back-to-back spacing slack for bandwidth-limit detection.
BANDWIDTH_SLACK = 1.3
#: Minimum packets of sustained bottleneck spacing.
BANDWIDTH_MIN_PACKETS = 5


@dataclass
class SeriesConfig:
    """Deployment knowledge the series generator needs: where the
    sniffer sat (the interpretation rules of paper section III-C)."""

    sniffer_location: str = SNIFFER_AT_RECEIVER


class StepFunction:
    """A right-continuous integer step function of time."""

    def __init__(self, initial: int = 0) -> None:
        self._times: list[int] = []
        self._values: list[int] = []
        self.initial = initial

    @classmethod
    def from_columns(
        cls, times: list[int], values: list[int], initial: int = 0
    ) -> "StepFunction":
        """Wrap strictly increasing ``times`` and their ``values``."""
        fn = cls(initial)
        fn._times, fn._values = times, values
        return fn

    def ranges_where(self, predicate, start_us: int, end_us: int) -> TimeRangeSet:
        """Intervals within [start, end) where ``predicate(value)`` holds.

        One linear walk over the samples — a true run opens where the
        predicate starts holding and closes where it stops, so each run
        is one span of the set, built once at the end.
        """
        if end_us <= start_us:
            return TimeRangeSet()
        spans = []
        times = self._times
        values = self._values
        i = bisect.bisect_right(times, start_us)
        current = self.initial if i == 0 else values[i - 1]
        run_start = start_us if predicate(current) else None
        for i in range(i, len(times)):
            t = times[i]
            if t >= end_us:
                break
            holds = predicate(values[i])
            if run_start is None:
                if holds:
                    run_start = t
            elif not holds:
                spans.append((run_start, t))
                run_start = None
        if run_start is not None:
            spans.append((run_start, end_us))
        return TimeRangeSet(spans)


@dataclass
class ConnectionSeries:
    """The output bundle of :func:`generate_series`."""

    catalog: SeriesCatalog
    labeling: LabelingResult
    window: TimeRange
    mss: int
    rtt_us: int
    serialization_us_per_byte: float

    def get(self, name: str) -> EventSeries:
        """Look up a series by name."""
        return self.catalog.get(name)


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
    profile = connection.profile
    if profile is None:
        raise ValueError("connection has no profile; call finalize() first")
    if labeling is None:
        labeling = label_connection(connection)
    mss = profile.mss
    data, acks = connection.data, connection.acks
    if window is None:
        start = data.time[0] if data else profile.start_time_us
        window = (start, profile.end_time_us)
    analysis = TimeRange(*window)
    catalog = SeriesCatalog()

    byte_time = _estimate_byte_time(data)

    # ------------------------------------------------------------- #
    # Extraction                                                      #
    # ------------------------------------------------------------- #
    transmission = TimeRangeSet([
        (time_us - max(1, round(wire * byte_time)), time_us)
        for time_us, wire in zip(data.time, data.wire)
    ])
    catalog.put(EventSeries("Transmission", transmission,
                            "time actually spent clocking data onto the wire"))

    outstanding_fn, outstanding_set = _outstanding(data, acks)
    catalog.put(EventSeries("Outstanding", outstanding_set,
                            "periods with unacknowledged data in flight"))

    ack_marks = TimeRangeSet([(t, t + 1) for t in acks.shifted])
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

    upstream, downstream, reordering = map(
        TimeRangeSet, _loss_series(labeling)
    )
    catalog.put(EventSeries("UpstreamLoss", upstream,
                            "recovery periods for losses upstream of the tap"))
    catalog.put(EventSeries("DownstreamLoss", downstream,
                            "recovery periods for losses downstream of the tap"))
    catalog.put(EventSeries("AllLoss", upstream.union(downstream),
                            "all loss-recovery periods"))
    catalog.put(EventSeries("Reordering", reordering,
                            "in-network reordering (not loss)"))

    keepalives = TimeRangeSet([
        (time_us, time_us + 1)
        for time_us in compress(data.time, data.keepalive)
    ])
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
    cycles = _flight_cycles(data, acks, profile.rtt_us)
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
        zero_bnd = zero_bnd.clip(analysis.start, data.time[-1])
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
def _estimate_byte_time(data: DataColumns) -> float:
    """Packet-pair estimate of the bottleneck's us-per-byte."""
    times = data.time
    rates = [
        gap / wire
        for gap, wire in zip(
            map(int.__sub__, islice(times, 1, None), times),
            islice(data.wire, 1, None),
        )
        if gap > 0 and wire != 0
    ]
    return min(rates) if rates else 0.01


def _bounded_ranges(
    out_fn: "StepFunction",
    adv_fn: "StepFunction",
    small_limit: int,
    start_us: int,
    end_us: int,
) -> tuple[TimeRangeSet, TimeRangeSet]:
    """(busy, advertised-window-bounded) ranges from the step functions.

    A two-pointer merge over both step functions' boundaries; run
    open/close bookkeeping emits each coalesced run once.
    """
    busy: list[tuple[int, int]] = []
    adv_bound: list[tuple[int, int]] = []
    out_times, out_values = out_fn._times, out_fn._values
    adv_times, adv_values = adv_fn._times, adv_fn._values
    len_out, len_adv = len(out_times), len(adv_times)
    i = bisect.bisect_right(out_times, start_us)
    j = bisect.bisect_right(adv_times, start_us)
    out_v = out_fn.initial if i == 0 else out_values[i - 1]
    adv_v = adv_fn.initial if j == 0 else adv_values[j - 1]
    left = start_us
    busy_start: int | None = None
    adv_start: int | None = None
    while left < end_us:
        right = end_us
        if i < len_out and out_times[i] < right:
            right = out_times[i]
        if j < len_adv and adv_times[j] < right:
            right = adv_times[j]
        if out_v > 0:
            if busy_start is None:
                busy_start = left
            if adv_v - out_v < small_limit:
                if adv_start is None:
                    adv_start = left
            elif adv_start is not None:
                adv_bound.append((adv_start, left))
                adv_start = None
        else:
            if busy_start is not None:
                busy.append((busy_start, left))
                busy_start = None
            if adv_start is not None:
                adv_bound.append((adv_start, left))
                adv_start = None
        if right == end_us:
            break
        while i < len_out and out_times[i] == right:
            out_v = out_values[i]
            i += 1
        while j < len_adv and adv_times[j] == right:
            adv_v = adv_values[j]
            j += 1
        left = right
    if busy_start is not None:
        busy.append((busy_start, end_us))
    if adv_start is not None:
        adv_bound.append((adv_start, end_us))
    return TimeRangeSet(busy), TimeRangeSet(adv_bound)


def _outstanding(
    data: DataColumns, acks: AckColumns
) -> tuple[StepFunction, TimeRangeSet]:
    """Outstanding bytes over time: highest data sent minus highest acked.

    One merge of the data events (by time) with the ACK events (by
    shifted time); a data event goes first on a tie.  Within a run of
    same-time, same-kind events the order cannot matter: the level
    moves one way only and only the run's last value is kept.
    """
    sent = sorted(zip(data.time, data.end))
    acked_at = sorted(zip(acks.shifted, acks.value))
    n_sent, n_acked = len(sent), len(acked_at)
    times: list[int] = []
    values: list[int] = []
    spans = []
    snd_max = 0
    acked = 0
    open_since: int | None = None
    i = j = 0
    time_us = 0
    while i < n_sent or j < n_acked:
        if j == n_acked or (i < n_sent and sent[i][0] <= acked_at[j][0]):
            time_us, value = sent[i]
            i += 1
            if value > snd_max:
                snd_max = value
        else:
            time_us, value = acked_at[j]
            j += 1
            if value > acked:
                acked = value
        outstanding = snd_max - acked if snd_max > acked else 0
        if times and times[-1] == time_us:
            values[-1] = outstanding
        else:
            times.append(time_us)
            values.append(outstanding)
        if outstanding > 0 and open_since is None:
            open_since = time_us
        elif outstanding == 0 and open_since is not None:
            spans.append((open_since, time_us))
            open_since = None
    if open_since is not None:
        spans.append((open_since, time_us + 1))
    return StepFunction.from_columns(times, values), TimeRangeSet(spans)


def _advertised_window(acks: AckColumns) -> StepFunction:
    """The advertised window at each shifted ACK time (last ACK wins)."""
    shifted = acks.shifted
    order = sorted(range(len(shifted)), key=shifted.__getitem__)
    steps = dict(zip(
        map(shifted.__getitem__, order), map(acks.window.__getitem__, order)
    ))
    return StepFunction.from_columns(
        list(steps), list(steps.values()), initial=65535
    )


def loss_spans(labeling: LabelingResult) -> Iterator[tuple[str, int, int]]:
    """``(kind, start, end)`` of each loss event's recovery, in data order.

    A span starts at the loss's trigger, or at the retransmission when
    it has none, and ends at the ACK that covered the hole; when no
    such ACK comes after the start, it ends at the retransmission or
    one microsecond after the start, whichever is later.  Reordering
    events are not losses and yield nothing.
    """
    times = labeling.times
    for position, kind, trigger, recovery in labeling.events:
        if kind == KIND_REORDERING:
            continue
        time_us = times[position]
        start = trigger if trigger is not None else time_us
        end = recovery
        if end is None or end <= start:
            end = max(time_us, start + 1)
        yield kind, start, end


def _loss_series(labeling: LabelingResult) -> tuple[list, list, list]:
    """(upstream, downstream, reordering) span lists from the labels."""
    upstream: list[tuple[int, int]] = []
    downstream: list[tuple[int, int]] = []
    for kind, start, end in loss_spans(labeling):
        target = upstream if kind == KIND_UPSTREAM else downstream
        target.append((start, end))
    times = labeling.times
    reordering = [
        (times[position], times[position] + 1)
        for position, kind, _, _ in labeling.events
        if kind == KIND_REORDERING
    ]
    return upstream, downstream, reordering


@dataclass
class FlightCycle:
    """One data flight plus the quiet period until the next flight."""

    start_us: int
    last_data_us: int
    end_us: int
    acked_us: int | None
    next_start_us: int | None
    # The last ACK observed before the next flight began: a next flight
    # right on its heels is window-sliding, not application pacing.
    last_ack_before_next_us: int | None = None


def _flight_cycles(
    data: DataColumns, acks: AckColumns, rtt_us: int
) -> list[FlightCycle]:
    if not data:
        return []
    times, ends = data.time, data.end
    flights = group_flights(times, RESPONSE_THRESHOLD_US)
    # Per-flight ACK shifting may locally perturb the time order; sort
    # so the bisect lookups below stay correct.
    pairs = sorted(zip(acks.shifted, acks.value))
    ack_times = [t for t, _ in pairs]
    # Relative ACKs are non-decreasing in a sane trace; the running
    # maximum makes them monotone through reordered captures too, so
    # the first covering ACK is one bisect.
    monotone = list(accumulate((v for _, v in pairs), max))
    n_acks = len(ack_times)

    cycles: list[FlightCycle] = []
    for i, (first, stop) in enumerate(flights):
        start = times[first]
        last_data = times[stop - 1]
        next_start = times[flights[i + 1][0]] if i + 1 < len(flights) else None
        end = next_start if next_start is not None else last_data + rtt_us
        flight_end_seq = max(ends[first:stop])
        covering = bisect.bisect_left(
            monotone, flight_end_seq, bisect.bisect_left(ack_times, last_data)
        )
        acked_us = ack_times[covering] if covering < n_acks else None
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
                acked_us=acked_us,
                next_start_us=next_start,
                last_ack_before_next_us=last_ack_before_next,
            )
        )
    return cycles


def _bandwidth_limited(
    data: DataColumns, byte_time: float, min_duration_us: int
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

    times = data.time
    slack = BANDWIDTH_SLACK
    for previous, time_us, wire in zip(
        times, islice(times, 1, None), islice(data.wire, 1, None)
    ):
        if time_us - previous <= wire * byte_time * slack:
            if run_start is None:
                run_start = previous
                run_packets = 1
            run_packets += 1
        else:
            commit(previous)
            run_start = None
            run_packets = 0
    commit(times[-1] if times else 0)
    return TimeRangeSet(spans)
