"""MCT — estimating the end of a BGP table transfer (Zhang et al. [36]).

A table transfer is the burst of UPDATEs right after session
establishment announcing the peer's full table.  Its end is estimated
from the update stream itself: the transfer is over once prefixes stop
being *new* — steady-state updates mostly re-announce or withdraw known
prefixes — or once the stream goes quiet for longer than an idle
timeout.  The paper runs MCT only on the stream following a TCP
connection start, which is how this module is meant to be driven (the
connection start time comes from the packet trace).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.messages import UpdateMessage
from repro.core.units import seconds

#: the stream going quiet this long ends the transfer
IDLE_TIMEOUT_US = seconds(30)
#: the transfer ends once more than this fraction of its updates
#: announced only known prefixes
DUPLICATE_TOLERANCE = 0.05


@dataclass
class TableTransfer:
    """The MCT estimate for one table transfer."""

    start_us: int
    end_us: int
    updates: int
    prefixes: int
    ended_by: str  # "duplicates" | "idle" | "stream-end"

    @property
    def duration_us(self) -> int:
        return self.end_us - self.start_us


def minimum_collection_time(
    updates: list[tuple[int, UpdateMessage]],
    start_us: int | None = None,
) -> TableTransfer | None:
    """Estimate the table-transfer extent from (timestamp, UPDATE) pairs.

    ``start_us`` anchors the transfer start (the TCP connection start in
    the paper's pipeline); it defaults to the first update's timestamp.
    The transfer ends at the last update that still contributed new
    prefixes, before either the duplicate fraction exceeded the
    tolerance or the stream idled.
    """
    if not updates:
        return None
    if start_us is None:
        start_us = updates[0][0]
    seen: set[int] = set()  # packed Prefix.key ints
    end_us = updates[0][0]
    total_updates = 0
    duplicates = 0
    ended_by = "stream-end"
    previous_ts = updates[0][0]
    for ts, update in updates:
        if ts - previous_ts > IDLE_TIMEOUT_US:
            ended_by = "idle"
            break
        previous_ts = ts
        total_updates += 1
        announced = update.announced_keys
        known = len(seen)
        seen.update(announced)
        new_prefixes = len(seen) - known
        if announced and new_prefixes == 0:
            duplicates += 1
            if duplicates / max(total_updates, 1) > DUPLICATE_TOLERANCE:
                ended_by = "duplicates"
                break
        if new_prefixes:
            end_us = ts
    return TableTransfer(
        start_us=start_us,
        end_us=end_us,
        updates=total_updates,
        prefixes=len(seen),
        ended_by=ended_by,
    )


def transfers_from_mrt_records(
    records, connection_start_us: int
) -> TableTransfer | None:
    """Run MCT over MRT records for one peer, anchored at a TCP start."""
    updates = [
        (record.timestamp_us, record.message)
        for record in records
        if isinstance(record.message, UpdateMessage)
        and record.timestamp_us >= connection_start_us
    ]
    return minimum_collection_time(updates, start_us=connection_start_us)
