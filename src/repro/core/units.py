"""Time units and arithmetic helpers.

T-DAT operates entirely in integer microseconds, mirroring the paper's
implementation which converts tcpdump second-based timestamps to
microseconds and stores them as big integers (paper section V-C).  Using
integers everywhere keeps range arithmetic exact and hashable.
"""

from __future__ import annotations

# Canonical conversion constants.
US_PER_SECOND = 1_000_000
US_PER_MS = 1_000


def seconds(value: float) -> int:
    """Convert seconds (possibly fractional) to integer microseconds."""
    return round(value * US_PER_SECOND)


def milliseconds(value: float) -> int:
    """Convert milliseconds (possibly fractional) to integer microseconds."""
    return round(value * US_PER_MS)


def microseconds(value: float) -> int:
    """Round a (possibly fractional) microsecond value to an integer."""
    return round(value)


def to_milliseconds(us: int) -> float:
    """Convert integer microseconds back to float milliseconds."""
    return us / US_PER_MS


def pcap_timestamp(us: int) -> tuple[int, int]:
    """Split integer microseconds into a pcap ``(ts_sec, ts_usec)`` pair."""
    return divmod(us, US_PER_SECOND)


def from_pcap_timestamp(ts_sec: int, ts_usec: int) -> int:
    """Combine a pcap ``(ts_sec, ts_usec)`` pair into integer microseconds."""
    return ts_sec * US_PER_SECOND + ts_usec
