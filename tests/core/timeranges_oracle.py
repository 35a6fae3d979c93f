"""Test-only oracle: the object-list ``TimeRangeSet``.

This is the original implementation of :mod:`repro.core.timeranges`,
kept without its payload column and the point queries the columnar
set dropped: every stored or intermediate range is a frozen
:class:`TimeRange`, sets grow one ``add`` at a time and the algebra
walks lists of range objects.  It is slow but simple,
and the differential property in ``test_timeranges_oracle.py`` replays
random operation sequences against it and the columnar implementation.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass


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

    def overlaps(self, other: "TimeRange") -> bool:
        """True if the two half-open intervals share any instant."""
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "TimeRange") -> "TimeRange | None":
        """The overlapping part of two ranges, or None when disjoint."""
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return TimeRange(start, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TimeRange({self.start}, {self.end})"


class TimeRangeSet:
    """An ordered set of non-overlapping, coalesced time ranges.

    Invariants maintained at all times:

    * ranges are sorted by ``start``;
    * no two stored ranges overlap or touch (touching ranges coalesce);
    * no stored range is empty.
    """

    __slots__ = ("_ranges", "_starts")

    def __init__(self, ranges: Iterable[TimeRange | tuple] = ()) -> None:
        self._ranges: list[TimeRange] = []
        self._starts: list[int] = []
        for item in ranges:
            self.add(_coerce(item))

    @classmethod
    def _from_sorted(cls, ranges: list[TimeRange]) -> "TimeRangeSet":
        """Adopt a list already satisfying the class invariants.

        Callers must guarantee the ranges are sorted, non-empty and
        pairwise non-touching — the outputs of the merge-walk algebra
        below qualify; arbitrary input does not.
        """
        self = cls.__new__(cls)
        self._ranges = ranges
        self._starts = [r.start for r in ranges]
        return self

    # ------------------------------------------------------------------
    # Construction and mutation
    # ------------------------------------------------------------------
    def add(self, item: TimeRange | tuple) -> None:
        """Insert a range, coalescing with any overlapping/adjacent ones."""
        rng = _coerce(item)
        if rng.end == rng.start:
            return
        ranges = self._ranges
        if ranges:
            last = ranges[-1]
            if rng.start > last.end:
                # Strictly after everything stored: plain append.
                ranges.append(rng)
                self._starts.append(rng.start)
                return
            if rng.start >= last.start:
                # Touches or overlaps only the final stored range.
                merged = TimeRange(
                    last.start if last.start < rng.start else rng.start,
                    last.end if last.end > rng.end else rng.end,
                )
                ranges[-1] = merged
                self._starts[-1] = merged.start
                return
        else:
            ranges.append(rng)
            self._starts.append(rng.start)
            return
        idx = bisect.bisect_left(self._starts, rng.start)
        # A predecessor may touch/overlap the new range.
        if idx > 0 and ranges[idx - 1].end >= rng.start:
            idx -= 1
        merged_start, merged_end = rng.start, rng.end
        remove_to = idx
        while remove_to < len(ranges) and (
            ranges[remove_to].start <= merged_end
        ):
            existing = ranges[remove_to]
            merged_start = min(merged_start, existing.start)
            merged_end = max(merged_end, existing.end)
            remove_to += 1
        merged = TimeRange(merged_start, merged_end)
        ranges[idx:remove_to] = [merged]
        self._starts[idx:remove_to] = [merged.start]

    def add_span(self, start: int, end: int) -> None:
        """Convenience: insert ``[start, end)``."""
        self.add(TimeRange(start, end))

    def remove_span(self, start: int, end: int) -> None:
        """Delete the interval ``[start, end)`` from the set."""
        if end <= start:
            return
        self._ranges = list(
            self._difference_ranges([TimeRange(start, end)])
        )
        self._starts = [r.start for r in self._ranges]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ranges)

    def __iter__(self) -> Iterator[TimeRange]:
        return iter(self._ranges)

    def __bool__(self) -> bool:
        return bool(self._ranges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeRangeSet):
            return NotImplemented
        return [(r.start, r.end) for r in self._ranges] == [
            (r.start, r.end) for r in other._ranges
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"[{r.start},{r.end})" for r in self._ranges[:8])
        if len(self._ranges) > 8:
            inner += ", ..."
        return f"TimeRangeSet({inner})"

    @property
    def ranges(self) -> Sequence[TimeRange]:
        """The stored ranges as an immutable view (sorted, coalesced)."""
        return tuple(self._ranges)

    def size(self) -> int:
        """Total covered duration in microseconds (the paper's set size)."""
        return sum(r.duration for r in self._ranges)

    def overlapping(self, start: int, end: int) -> list[TimeRange]:
        """All stored ranges intersecting the query window ``[start, end)``."""
        query = TimeRange(start, end)
        return [r for r in self._ranges if r.overlaps(query)]

    def durations(self) -> list[int]:
        """The individual range durations, in order.

        This is what the timer-gap detector histograms (paper Fig. 17).
        """
        return [r.duration for r in self._ranges]

    def union(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set union of this series with ``others``."""
        result = TimeRangeSet(self._ranges)
        for other in others:
            for rng in other:
                result.add(rng)
        return result

    def intersection(self, *others: "TimeRangeSet") -> "TimeRangeSet":
        """The set intersection of this series with ``others``."""
        current = self._ranges
        for other in others:
            current = list(_intersect_sorted(current, other._ranges))
        if current is self._ranges:
            current = list(current)
        return TimeRangeSet._from_sorted(current)

    def difference(self, other: "TimeRangeSet") -> "TimeRangeSet":
        """Ranges of this series with ``other``'s coverage removed."""
        return TimeRangeSet._from_sorted(
            list(self._difference_ranges(other._ranges))
        )

    def complement(self, within: TimeRange | tuple) -> "TimeRangeSet":
        """The uncovered portion of ``within``.

        The paper uses complements to turn "time TCP spends transmitting"
        into "inter-transmission gaps to be explained".
        """
        window = _coerce(within)
        return TimeRangeSet([window]).difference(self)

    def clip(self, start: int, end: int) -> "TimeRangeSet":
        """Restrict the series to the analysis window ``[start, end)``."""
        return self.intersection(TimeRangeSet([TimeRange(start, end)]))

    def dilate(self, margin_us: int) -> "TimeRangeSet":
        """Expand every range by ``margin_us`` on both sides.

        Used to test for *coincidence* between series whose ranges abut
        rather than overlap (e.g. a loss-recovery period starting the
        instant a zero-window episode ends).
        """
        if margin_us < 0:
            raise ValueError(f"negative margin {margin_us}")
        return TimeRangeSet(
            TimeRange(r.start - margin_us, r.end + margin_us)
            for r in self._ranges
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _difference_ranges(
        self, subtrahend: list[TimeRange]
    ) -> Iterator[TimeRange]:
        sub_iter = iter(subtrahend)
        sub = next(sub_iter, None)
        for rng in self._ranges:
            start = rng.start
            while sub is not None and sub.end <= start:
                sub = next(sub_iter, None)
            cursor = start
            while sub is not None and sub.start < rng.end:
                if sub.start > cursor:
                    yield TimeRange(cursor, sub.start)
                cursor = max(cursor, sub.end)
                if sub.end >= rng.end:
                    break
                sub = next(sub_iter, None)
            if cursor < rng.end:
                yield TimeRange(cursor, rng.end)


def _intersect_sorted(
    left: list[TimeRange], right: list[TimeRange]
) -> Iterator[TimeRange]:
    """Merge-intersect two sorted, coalesced range lists."""
    i = j = 0
    while i < len(left) and j < len(right):
        overlap = left[i].intersect(right[j])
        if overlap is not None:
            yield overlap
        if left[i].end <= right[j].end:
            i += 1
        else:
            j += 1


def _coerce(item: TimeRange | tuple) -> TimeRange:
    if isinstance(item, TimeRange):
        return item
    return TimeRange(*item)
