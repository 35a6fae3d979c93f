"""numpy-vectorized series kernels (optional fast backend).

The reference implementations in :mod:`repro.analysis.series` are the
contract; this module re-derives the hottest kernel — the Outstanding
accumulation, an event walk over every data packet and ACK of a
connection — with vectorized integer array operations.  The results
are **byte-identical** to the reference walk (integer microseconds and
byte counts throughout, no float arithmetic), which the differential
suite in ``tests/analysis/test_fastpath_differential.py`` enforces.

numpy is optional: :data:`AVAILABLE` gates every entry point, and
``SeriesConfig(series_backend="auto")`` only routes here for
connections with at least :data:`repro.analysis.series.AUTO_MIN_EVENTS`
events, below which the list<->array round-trip costs more than the
loop it replaces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

try:  # pragma: no cover - exercised via both branches in CI images
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

AVAILABLE = _np is not None

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.profile import Connection, TracePacket


def outstanding(
    connection: "Connection",
    data: "list[TracePacket]",
    acks: "list[TracePacket]",
):
    """Vectorized equivalent of ``series._outstanding``.

    Returns the same ``(StepFunction, TimeRangeSet)`` pair: the
    outstanding-bytes step function sampled at every event instant
    (last event of an instant wins, as the reference's same-time
    overwrite rule dictates) and the coalesced set of periods with
    unacknowledged data in flight.
    """
    from repro.analysis.series import StepFunction
    from repro.core.timeranges import TimeRangeSet

    if _np is None:  # pragma: no cover - guarded by AVAILABLE
        raise RuntimeError("numpy backend requested but numpy is unavailable")

    fn = StepFunction()
    n_data = len(data)
    n_acks = len(acks)
    if n_data + n_acks == 0:
        return fn, TimeRangeSet()

    relative_seq = connection.relative_seq
    relative_ack = connection.relative_ack
    times = _np.empty(n_data + n_acks, dtype=_np.int64)
    values = _np.empty(n_data + n_acks, dtype=_np.int64)
    prio = _np.empty(n_data + n_acks, dtype=_np.int64)
    for k, packet in enumerate(data):
        times[k] = packet.timestamp_us
        values[k] = relative_seq(packet) + packet.payload_len
        prio[k] = 0
    for k, ack in enumerate(acks, start=n_data):
        times[k] = ack.effective_time_us
        values[k] = relative_ack(ack)
        prio[k] = 1

    # The reference sorts events by (time, kind) with data before ACKs
    # at equal instants; lexsort's last key is primary.
    order = _np.lexsort((prio, times))
    times = times[order]
    values = values[order]
    is_ack = prio[order] == 1

    snd_max = _np.maximum.accumulate(_np.where(is_ack, 0, values))
    acked = _np.maximum.accumulate(_np.where(is_ack, values, 0))
    out = _np.maximum(snd_max - acked, 0)

    # Same-instant events collapse to the instant's final value — the
    # transient values can only open-and-close zero-length spans, which
    # the reference's TimeRangeSet drops anyway.
    last_of_instant = _np.empty(len(times), dtype=bool)
    last_of_instant[:-1] = times[:-1] != times[1:]
    last_of_instant[-1] = True
    step_times = times[last_of_instant]
    step_values = out[last_of_instant]

    fn._times = step_times.tolist()
    fn._values = step_values.tolist()

    positive = step_values > 0
    previous = _np.empty(len(positive), dtype=bool)
    previous[0] = False
    previous[1:] = positive[:-1]
    opens = step_times[positive & ~previous]
    closes = step_times[~positive & previous]
    spans = list(zip(opens.tolist(), closes.tolist()))
    if len(opens) > len(closes):
        # Still in flight at the final event, as in the reference.
        spans.append((int(opens[-1]), int(times[-1]) + 1))
    return fn, TimeRangeSet(spans)
