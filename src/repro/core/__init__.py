"""Core data structures of the T-DAT delay analyzer."""

from repro.core.events import EventSeries, SeriesCatalog
from repro.core.health import IngestError, IngestIssue, TraceHealth
from repro.core.timeranges import TimeRange, TimeRangeSet
from repro.core import units

__all__ = [
    "EventSeries",
    "IngestError",
    "IngestIssue",
    "SeriesCatalog",
    "TimeRange",
    "TimeRangeSet",
    "TraceHealth",
    "units",
]
