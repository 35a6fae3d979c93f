"""Named event series and series catalogues.

The analyzer internally manages 34 series per connection (paper
section III-C).  :class:`EventSeries` couples a :class:`TimeRangeSet`
with a name and a description.  :class:`SeriesCatalog` is the
per-connection registry the generation rules read from and write to.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.core.timeranges import TimeRange, TimeRangeSet


class EventSeries:
    """A named time-range series representing one TCP behaviour."""

    def __init__(
        self,
        name: str,
        ranges: TimeRangeSet | Iterable[TimeRange | tuple] | None = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.description = description
        if isinstance(ranges, TimeRangeSet):
            self.ranges = ranges
        else:
            self.ranges = TimeRangeSet(ranges or ())

    # Basic container protocol ----------------------------------------
    def __iter__(self) -> Iterator[TimeRange]:
        return iter(self.ranges)

    def __len__(self) -> int:
        return len(self.ranges)

    def __bool__(self) -> bool:
        return bool(self.ranges)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventSeries({self.name!r}, n={len(self.ranges)}, "
            f"size={self.ranges.size()}us)"
        )

    # Measurement -------------------------------------------------------
    def size(self) -> int:
        """Total covered microseconds (the paper's series size)."""
        return self.ranges.size()

    def delay_ratio(self, analysis_period_us: int) -> float:
        """Series size divided by the analysis period (paper III-D)."""
        if analysis_period_us <= 0:
            return 0.0
        return self.size() / analysis_period_us

    # Derivation (paper rules 2-4) ---------------------------------------
    def renamed(self, name: str, description: str = "") -> "EventSeries":
        """Paper rule 2 (*Interpretation*): clone under a new name."""
        return EventSeries(name, self.ranges, description or self.description)

    def union(self, *others: "EventSeries", name: str = "") -> "EventSeries":
        """Set union with other series (paper rule 4)."""
        merged = self.ranges.union(*(o.ranges for o in others))
        return EventSeries(name or self.name, merged)

    def intersection(
        self, *others: "EventSeries", name: str = ""
    ) -> "EventSeries":
        """Set intersection with other series (paper rule 4)."""
        merged = self.ranges.intersection(*(o.ranges for o in others))
        return EventSeries(name or self.name, merged)

    def difference(self, other: "EventSeries", name: str = "") -> "EventSeries":
        """Set difference with another series."""
        return EventSeries(name or self.name, self.ranges.difference(other.ranges))

    def complement(
        self, within: TimeRange | tuple, name: str = ""
    ) -> "EventSeries":
        """Uncovered time inside the analysis window."""
        return EventSeries(name or self.name, self.ranges.complement(within))

    def clip(self, start: int, end: int) -> "EventSeries":
        """Restrict to the analysis window ``[start, end)``."""
        return EventSeries(self.name, self.ranges.clip(start, end), self.description)


class SeriesCatalog:
    """The per-connection registry of generated event series."""

    def __init__(self) -> None:
        self._series: dict[str, EventSeries] = {}

    def put(self, series: EventSeries) -> EventSeries:
        """Register (or replace) a series under its own name."""
        self._series[series.name] = series
        return series

    def get(self, name: str) -> EventSeries:
        """Look up a series; an absent name raises ``KeyError``."""
        return self._series[name]

    def get_or_empty(self, name: str) -> EventSeries:
        """Look up a series, returning an empty one when absent."""
        return self._series.get(name, EventSeries(name))

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __iter__(self) -> Iterator[EventSeries]:
        return iter(self._series.values())

    def __len__(self) -> int:
        return len(self._series)

    def names(self) -> list[str]:
        """All registered series names, in insertion order."""
        return list(self._series)
