"""Ordered sets of time ranges — T-DAT's central data structure.

The paper (section III-A) represents every TCP behaviour as an *event
series*: "an ordered set of time durations, i.e., a special set container
in which each element is a continuous time duration".  Measuring the
delay a behaviour induces is then "equivalent to calculating the set
size", and new series are derived with set algebra
(``SmallAdvBndOut := AdvBndOut ∩ SmallAdv``).

:class:`TimeRange` is one half-open interval ``[start, end)`` in integer
microseconds, optionally carrying a reference back to the detailed trace
data (the paper's ``event_data`` field).  :class:`TimeRangeSet` is the
ordered, coalesced container with union / intersection / complement /
difference, total-size measurement, gap extraction and range queries.

A set is stored as columns: ``starts``/``ends`` int lists and a payload
column (``None`` when built without payloads).  One sort-and-coalesce
sweep builds sets, unions and dilations; intersection and difference
are two-pointer merges over the int columns; clip and complement are
bisected one-window cases.  :class:`TimeRange` objects are made only at
the API boundary.  A coalesced range carries a flat list of its parts'
payloads (order not promised), algebra pieces the left operand's.  A
set copies each payload list it stores, so ``add`` extends in place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter, sub
from typing import Any


@dataclass(frozen=True, order=True)
class TimeRange:
    """A half-open time interval ``[start, end)`` in integer microseconds.

    ``data`` is the paper's ``event_data``: an arbitrary reference to the
    underlying trace detail (packet indices, byte counts, ...).  It is
    excluded from ordering and equality so that set algebra compares
    ranges purely by extent.
    """

    start: int
    end: int
    data: Any = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> int:
        """Length of the interval in microseconds."""
        return self.end - self.start

    def is_empty(self) -> bool:
        """True for a zero-length (degenerate) range."""
        return self.end == self.start

    def contains(self, instant: int) -> bool:
        """True if ``instant`` lies inside the half-open interval."""
        return self.start <= instant < self.end

    def overlaps(self, other: "TimeRange") -> bool:
        """True if the two half-open intervals share any instant."""
        return self.start < other.end and other.start < self.end

    def touches(self, other: "TimeRange") -> bool:
        """True if the intervals overlap or are exactly adjacent."""
        return self.start <= other.end and other.start <= self.end

    def intersect(self, other: "TimeRange") -> "TimeRange | None":
        """The overlapping part of two ranges, or None when disjoint.

        The intersection carries ``data`` from ``self`` (the left operand
        is considered the primary series in T-DAT's algebra rules).
        """
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return TimeRange(start, end, self.data)

    def shift(self, offset: int) -> "TimeRange":
        """Translate the range by ``offset`` microseconds."""
        return TimeRange(self.start + offset, self.end + offset, self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeRange({self.start}, {self.end})"


class TimeRangeSet:
    """An ordered set of non-overlapping, coalesced time ranges.

    Invariants maintained at all times:

    * ranges are sorted by ``start``;
    * no two stored ranges overlap or touch (touching ranges coalesce);
    * no stored range is empty.

    It is built from :class:`TimeRange` objects or ``(start, end[,
    data])`` tuples in any order.  Coalescing merges ``data`` payloads
    into a list when both sides carry payloads, preserving the
    cross-reference back to raw trace events that the paper highlights
    as essential for drill-down inspection.
    """

    __slots__ = ("_starts", "_ends", "_data")

    def __init__(self, ranges: Iterable[TimeRange | tuple] = ()) -> None:
        self._starts, self._ends, self._data = _sweep([
            (r.start, r.end, r.data) if isinstance(r, TimeRange) else r
            for r in ranges
        ])

    @classmethod
    def _new(cls, starts, ends, data) -> "TimeRangeSet":
        """Wrap columns that already satisfy the class invariants."""
        self = cls.__new__(cls)
        self._starts, self._ends, self._data = starts, ends, data
        return self

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add(self, item: TimeRange | tuple) -> None:
        """Insert a range, coalescing with any overlapping/adjacent ones."""
        if isinstance(item, TimeRange):
            item = (item.start, item.end, item.data)
        self.add_span(*_check(item))

    def add_span(self, start: int, end: int, data: Any = None) -> None:
        """Insert ``[start, end)`` with optional payload."""
        _check((start, end))
        if end == start:
            return
        starts, ends, payload = self._starts, self._ends, self._data
        # Stored ranges lo..hi-1 overlap or touch the new one.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end, lo)
        if payload is None and data is not None:
            payload = self._data = [None] * len(starts)
        if payload is not None:
            merged = None
            for part in payload[lo:hi]:
                merged = part if merged is None else _join(merged, part)
            payload[lo:hi] = (_join(merged, data),)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)

    def remove_span(self, start: int, end: int) -> None:
        """Delete the interval ``[start, end)`` from the set."""
        if end > start:
            kept = self.difference(TimeRangeSet._new([start], [end], None))
            self._starts, self._ends, self._data = (
                kept._starts, kept._ends, kept._data
            )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[TimeRange]:
        return map(TimeRange, self._starts, self._ends, self._payloads())

    def __bool__(self) -> bool:
        return bool(self._starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeRangeSet):
            return NotImplemented
        return self._starts == other._starts and self._ends == other._ends

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        pairs = zip(self._starts[:8], self._ends[:8])
        inner = ", ".join(f"[{s},{e})" for s, e in pairs)
        if len(self) > 8:
            inner += ", ..."
        return f"TimeRangeSet({inner})"

    @property
    def ranges(self) -> Sequence[TimeRange]:
        """The stored ranges as an immutable view (sorted, coalesced)."""
        return tuple(self)

    def size(self) -> int:
        """Total covered duration in microseconds (the paper's set size)."""
        return sum(self._ends) - sum(self._starts)

    def span(self) -> TimeRange | None:
        """The bounding range from first start to last end, or None."""
        if not self._starts:
            return None
        return TimeRange(self._starts[0], self._ends[-1])

    def contains(self, instant: int) -> bool:
        """True if some stored range covers ``instant``."""
        return self.range_at(instant) is not None

    def range_at(self, instant: int) -> TimeRange | None:
        """The stored range covering ``instant``, or None."""
        hits = self.overlapping(instant, instant + 1)
        return hits[0] if hits else None

    def overlapping(self, start: int, end: int) -> list[TimeRange]:
        """All stored ranges intersecting the query window ``[start, end)``."""
        _check((start, end))
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo)
        data = repeat(None) if self._data is None else self._data[lo:hi]
        return list(
            map(TimeRange, self._starts[lo:hi], self._ends[lo:hi], data)
        )

    def durations(self) -> list[int]:
        """The individual range durations, in order.

        This is what the timer-gap detector histograms (paper Fig. 17).
        """
        return list(map(sub, self._ends, self._starts))

    def gaps(self) -> "TimeRangeSet":
        """The uncovered intervals *between* consecutive stored ranges."""
        return TimeRangeSet._new(self._ends[:-1], self._starts[1:], None)

    # ------------------------------------------------------------------
    # Set algebra (paper rule 4: series := series ⊕ series ...)
    # ------------------------------------------------------------------
    def union(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set union of this series with ``others``."""
        spans: list[tuple] = []
        for part in (self, *others):
            spans.extend(zip(part._starts, part._ends, part._payloads()))
        return TimeRangeSet._new(*_sweep(spans))

    def intersection(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set intersection of this series with ``others``."""
        result = self
        for other in others:
            result = _intersect(result, other)
        return result if others else self.shift(0)  # shift(0): a copy

    def difference(self, other: "TimeRangeSet") -> "TimeRangeSet":
        """Ranges of this series with ``other``'s coverage removed."""
        if not self._starts:
            return TimeRangeSet()
        # A - B = A ∩ ¬B, with ¬B taken over A's own span.
        window = (self._starts[0], self._ends[-1])
        return _intersect(self, other.complement(window))

    def complement(self, within: TimeRange | tuple) -> "TimeRangeSet":
        """The uncovered portion of ``within``.

        The paper uses complements to turn "time TCP spends transmitting"
        into "inter-transmission gaps to be explained".
        """
        if isinstance(within, TimeRange):
            within = (within.start, within.end)
        start, end, _ = _check(within)
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo)
        gap_s = [start, *self._ends[lo:hi]]
        gap_e = [*self._starts[lo:hi], end]
        if gap_e[0] <= start:  # a stored range covers the window's start
            del gap_s[0], gap_e[0]
        if gap_s and gap_s[-1] >= end:  # ... or its end
            del gap_s[-1], gap_e[-1]
        return TimeRangeSet._new(gap_s, gap_e, None)

    def clip(self, start: int, end: int) -> "TimeRangeSet":
        """Restrict the series to the analysis window ``[start, end)``."""
        _check((start, end))
        if end == start:
            return TimeRangeSet()
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo)
        starts, ends = self._starts[lo:hi], self._ends[lo:hi]
        if starts:
            starts[0] = max(starts[0], start)
            ends[-1] = min(ends[-1], end)
        data = self._data
        if data is not None:
            data = [_own(d) for d in data[lo:hi]]
        return TimeRangeSet._new(starts, ends, data)

    def shift(self, offset: int) -> "TimeRangeSet":
        """Translate every range by ``offset`` microseconds."""
        return TimeRangeSet._new(
            [s + offset for s in self._starts],
            [e + offset for e in self._ends],
            None if self._data is None else [_own(d) for d in self._data],
        )

    def dilate(self, margin_us: int) -> "TimeRangeSet":
        """Expand every range by ``margin_us`` on both sides.

        Used to test for *coincidence* between series whose ranges abut
        rather than overlap (e.g. a loss-recovery period starting the
        instant a zero-window episode ends).
        """
        if margin_us < 0:
            raise ValueError(f"negative margin {margin_us}")
        return TimeRangeSet._new(*_sweep(list(zip(
            [s - margin_us for s in self._starts],
            [e + margin_us for e in self._ends],
            self._payloads(),
        ))))

    def _payloads(self) -> Iterable[Any]:
        """The payload column, or endless ``None`` for a payload-free set."""
        return repeat(None) if self._data is None else self._data


def _sweep(spans: list[tuple]) -> tuple[list[int], list[int], list | None]:
    """Sort ``(start, end[, data])`` spans by start and coalesce them.

    Touching spans merge, empty ones drop, reversed ones raise
    ``ValueError``.  The payload column is None if no span has data.
    """
    spans.sort(key=itemgetter(0))
    keep = max(map(len, spans), default=0) > 2 and any(
        len(span) > 2 and span[2] is not None for span in spans
    )
    starts: list[int] = []
    ends: list[int] = []
    payload: list | None = [] if keep else None
    last = None
    for span in spans:
        start = span[0]
        end = span[1]
        if end <= start:
            _check(span)
            continue
        if last is not None and start <= last:
            if end > last:
                ends[-1] = last = end
            if keep and len(span) > 2:
                payload[-1] = _join(payload[-1], span[2])
        else:
            starts.append(start)
            ends.append(last := end)
            if keep:
                payload.append(_own(span[2]) if len(span) > 2 else None)
    return starts, ends, payload


def _intersect(a: TimeRangeSet, b: TimeRangeSet) -> TimeRangeSet:
    """Merge-intersect two sets; pieces carry ``a``'s payload."""
    a_s, a_e, a_d = a._starts, a._ends, a._data
    b_s, b_e = b._starts, b._ends
    out_s: list[int] = []
    out_e: list[int] = []
    out_d: list | None = None if a_d is None else []
    n_a, n_b = len(a_s), len(b_s)
    i = j = 0
    while i < n_a and j < n_b:
        start = a_s[i] if a_s[i] > b_s[j] else b_s[j]
        a_end, b_end = a_e[i], b_e[j]
        end = a_end if a_end < b_end else b_end
        if start < end:
            out_s.append(start)
            out_e.append(end)
            if out_d is not None:
                out_d.append(_own(a_d[i]))
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return TimeRangeSet._new(out_s, out_e, out_d)


def _check(span: tuple) -> tuple[int, int, Any]:
    """``(start, end, data)`` of a span tuple, validated like a TimeRange."""
    start, end, data = (*span, None)[:3]
    if end < start:
        raise ValueError(f"end {end} precedes start {start}")
    return start, end, data


def _own(data: Any) -> Any:
    """A payload the set may keep: lists are copied, anything else kept."""
    return data[:] if isinstance(data, list) else data


def _join(merged: Any, data: Any) -> Any:
    """Fold payload ``data`` into the owned payload ``merged``, in place."""
    if data is None:
        return merged
    if merged is None:
        return _own(data)
    merged = merged if isinstance(merged, list) else [merged]
    merged.extend(data if isinstance(data, list) else (data,))
    return merged
