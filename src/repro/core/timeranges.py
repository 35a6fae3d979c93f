"""Ordered sets of time ranges — T-DAT's central data structure.

The paper (section III-A) represents every TCP behaviour as an *event
series*: "an ordered set of time durations, i.e., a special set container
in which each element is a continuous time duration".  Measuring the
delay a behaviour induces is then "equivalent to calculating the set
size", and new series are derived with set algebra
(``SmallAdvBndOut := AdvBndOut ∩ SmallAdv``).

:class:`TimeRange` is one half-open interval ``[start, end)`` in integer
microseconds.  :class:`TimeRangeSet` is the ordered, coalesced container
with union / intersection / complement / difference, total-size
measurement and window queries.

A set is stored as two int columns, ``starts`` and ``ends``.  One
sort-and-coalesce sweep builds sets, unions and dilations; intersection
and difference are two-pointer merges over the columns; clip and
complement are bisected one-window cases.  :class:`TimeRange` objects
are made only at the API boundary.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter, sub


@dataclass(frozen=True, order=True)
class TimeRange:
    """A half-open time interval ``[start, end)`` in integer microseconds."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> int:
        """Length of the interval in microseconds."""
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeRange({self.start}, {self.end})"


class TimeRangeSet:
    """An ordered set of non-overlapping, coalesced time ranges.

    Invariants maintained at all times:

    * ranges are sorted by ``start``;
    * no two stored ranges overlap or touch (touching ranges coalesce);
    * no stored range is empty.

    It is built from :class:`TimeRange` objects or ``(start, end)``
    tuples in any order.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, ranges: Iterable[TimeRange | tuple] = ()) -> None:
        self._starts, self._ends = _sweep([
            (r.start, r.end) if isinstance(r, TimeRange) else r
            for r in ranges
        ])

    @classmethod
    def _new(cls, starts, ends) -> "TimeRangeSet":
        """Wrap columns that already satisfy the class invariants."""
        self = cls.__new__(cls)
        self._starts, self._ends = starts, ends
        return self

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add(self, item: TimeRange | tuple) -> None:
        """Insert a range, coalescing with any overlapping/adjacent ones."""
        if isinstance(item, TimeRange):
            item = (item.start, item.end)
        self.add_span(*item)

    def add_span(self, start: int, end: int) -> None:
        """Insert ``[start, end)``."""
        _check((start, end))
        if end == start:
            return
        starts, ends = self._starts, self._ends
        # Stored ranges lo..hi-1 overlap or touch the new one.
        lo = bisect_left(ends, start)
        hi = bisect_right(starts, end, lo)
        if lo < hi:
            start = min(start, starts[lo])
            end = max(end, ends[hi - 1])
        starts[lo:hi] = (start,)
        ends[lo:hi] = (end,)

    def remove_span(self, start: int, end: int) -> None:
        """Delete the interval ``[start, end)`` from the set."""
        if end > start:
            kept = self.difference(TimeRangeSet._new([start], [end]))
            self._starts, self._ends = kept._starts, kept._ends

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self) -> Iterator[TimeRange]:
        return map(TimeRange, self._starts, self._ends)

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

    def overlapping(self, start: int, end: int) -> list[TimeRange]:
        """All stored ranges intersecting the query window ``[start, end)``."""
        _check((start, end))
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo)
        return list(map(TimeRange, self._starts[lo:hi], self._ends[lo:hi]))

    def durations(self) -> list[int]:
        """The individual range durations, in order.

        This is what the timer-gap detector histograms (paper Fig. 17).
        """
        return list(map(sub, self._ends, self._starts))

    # ------------------------------------------------------------------
    # Set algebra (paper rule 4: series := series ⊕ series ...)
    # ------------------------------------------------------------------
    def union(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set union of this series with ``others``."""
        spans: list[tuple] = []
        for part in (self, *others):
            spans.extend(zip(part._starts, part._ends))
        return TimeRangeSet._new(*_sweep(spans))

    def intersection(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set intersection of this series with ``others``."""
        if not others:
            return TimeRangeSet._new(self._starts[:], self._ends[:])
        result = self
        for other in others:
            result = _intersect(result, other)
        return result

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
        start, end = _check(within)
        lo = bisect_right(self._ends, start)
        hi = bisect_left(self._starts, end, lo)
        gap_s = [start, *self._ends[lo:hi]]
        gap_e = [*self._starts[lo:hi], end]
        if gap_e[0] <= start:  # a stored range covers the window's start
            del gap_s[0], gap_e[0]
        if gap_s and gap_s[-1] >= end:  # ... or its end
            del gap_s[-1], gap_e[-1]
        return TimeRangeSet._new(gap_s, gap_e)

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
        return TimeRangeSet._new(starts, ends)

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
        ))))


def _sweep(spans: list[tuple]) -> tuple[list[int], list[int]]:
    """Sort ``(start, end)`` spans by start and coalesce them.

    Touching spans merge, empty ones drop, reversed ones raise
    ``ValueError``.
    """
    spans.sort(key=itemgetter(0))
    starts: list[int] = []
    ends: list[int] = []
    last = None
    for start, end in spans:
        if end <= start:
            _check((start, end))
            continue
        if last is not None and start <= last:
            if end > last:
                ends[-1] = last = end
        else:
            starts.append(start)
            ends.append(last := end)
    return starts, ends


def _intersect(a: TimeRangeSet, b: TimeRangeSet) -> TimeRangeSet:
    """Merge-intersect two sets."""
    a_s, a_e = a._starts, a._ends
    b_s, b_e = b._starts, b._ends
    out_s: list[int] = []
    out_e: list[int] = []
    n_a, n_b = len(a_s), len(b_s)
    i = j = 0
    while i < n_a and j < n_b:
        start = a_s[i] if a_s[i] > b_s[j] else b_s[j]
        a_end, b_end = a_e[i], b_e[j]
        end = a_end if a_end < b_end else b_end
        if start < end:
            out_s.append(start)
            out_e.append(end)
        if a_end <= b_end:
            i += 1
        else:
            j += 1
    return TimeRangeSet._new(out_s, out_e)


def _check(span: tuple) -> tuple[int, int]:
    """``(start, end)`` of a span tuple, validated like a TimeRange."""
    start, end = span
    if end < start:
        raise ValueError(f"end {end} precedes start {start}")
    return start, end
