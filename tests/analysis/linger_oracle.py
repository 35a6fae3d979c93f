"""Test-only oracle: the per-packet linger sweep of ``iter_connections``.

This is the original streaming ingest of
:mod:`repro.analysis.profile`, kept verbatim apart from this docstring,
the imports, the per-record decode, which now yields the shared
ingest row, and the budget's single eviction rule (every victim is
finalized early): on every decoded packet it rescans every open flow
for one whose close has lingered out, which costs O(open flows) per
packet.  It is slow but obviously right, and the differential property
in ``test_linger_oracle.py`` replays generated packet schedules against
it and the deadline-ordered sweep.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

from repro.analysis.budget import StateLedger
from repro.analysis.columns import ROW_FLAGS, ROW_LENGTH, ROW_SRC
from repro.analysis.profile import (
    Connection,
    FlowKey,
    _decode_record,
    _flow_key,
)
from repro.core.health import STAGE_FRAME, TraceHealth
from repro.wire.pcap import PcapReader, PcapRecord
from repro.wire.tcpw import FIN, RST


@dataclass
class _OpenFlow:
    """Streaming-ingest state of one not-yet-finalized connection."""

    connection: Connection
    last_ts_us: int = 0
    fin_from: set = field(default_factory=set)
    saw_rst: bool = False

    @property
    def closable(self) -> bool:
        """Both sides said FIN (or someone said RST): no data expected.

        The flow is still held open for a linger period so trailing
        ACKs and retransmitted FINs land in the connection instead of
        after its finalization.
        """
        return self.saw_rst or len(self.fin_from) >= 2


#: how long after its last packet a closed flow lingers before being
#: finalized (covers the final ACK of the FIN exchange and stragglers).
DEFAULT_LINGER_US = 2_000_000


def iter_connections(
    source: BinaryIO | str | Path | list[PcapRecord],
    health: TraceHealth | None = None,
    tolerant: bool = False,
    linger_us: int = DEFAULT_LINGER_US,
    *,
    ledger: StateLedger | None = None,
) -> Iterator[Connection]:
    """Stream finalized connections out of a capture, flow by flow.

    The buffered path (:meth:`Trace.from_pcap`) holds every parsed
    frame of every connection until the file ends; this iterator
    finalizes and yields each connection as soon as its flow has closed
    (FINs from both sides or an RST) and stayed quiet for
    ``linger_us``, so peak memory is bounded by the *open* flows, not
    the whole capture.  Per-connection results are identical to the
    buffered path for captures whose flows close cleanly; a packet
    arriving for an already-emitted flow is dropped and accounted in
    ``health`` rather than resurrecting the connection.

    A :class:`~repro.analysis.budget.StateLedger` bounds even the open
    flows: every packet is metered through it, per-connection caps shed
    excess data (``connection.complete`` flips to ``False``), and when
    a global watermark trips its victims are finalized and yielded
    early here.  Each victim's key joins ``emitted``, so stragglers
    land as benign ``packet-after-close`` issues instead of
    resurrecting state.
    """
    health = health if health is not None else TraceHealth()
    reader: PcapReader | None = None
    if isinstance(source, list):
        records: Iterator[PcapRecord] = iter(source)
        reader_counts = False
    else:
        reader = PcapReader(source, tolerant=tolerant, health=health)
        records = iter(reader)
        reader_counts = True
    open_flows: dict[FlowKey, _OpenFlow] = {}
    emitted: set[FlowKey] = set()
    try:
        for index, record in enumerate(records):
            if not reader_counts:
                health.records_read += 1
            decoded = _decode_record(index, record, health)
            if decoded is None:
                continue
            flow_id, row = decoded
            key = _flow_key(flow_id)
            # Sweep flows whose close has lingered long enough.
            now = record.timestamp_us
            for other_key in list(open_flows):
                flow = open_flows[other_key]
                if (
                    other_key != key
                    and flow.closable
                    and now - flow.last_ts_us > linger_us
                ):
                    del open_flows[other_key]
                    emitted.add(other_key)
                    if ledger is not None:
                        ledger.discharge(other_key)
                    flow.connection.finalize()
                    yield flow.connection
            if key in emitted:
                health.record(
                    STAGE_FRAME, "packet-after-close",
                    timestamp_us=record.timestamp_us,
                    bytes_lost=row[ROW_LENGTH],
                    detail=f"{key}: flow already finalized and emitted",
                    benign=True,
                )
                continue
            if ledger is not None and not ledger.admit(
                key, row[ROW_LENGTH], row[ROW_FLAGS], now
            ):
                # A capped connection sheds this packet, but its clock
                # must keep running so the linger sweep stays honest.
                flow = open_flows.get(key)
                if flow is not None:
                    flow.connection.complete = False
                    flow.last_ts_us = now
                continue
            flow = open_flows.get(key)
            if flow is None:
                flow = _OpenFlow(connection=Connection(key))
                open_flows[key] = flow
            flow.connection.add(row)
            flow.last_ts_us = record.timestamp_us
            if row[ROW_FLAGS] & FIN:
                flow.fin_from.add(row[ROW_SRC])
            if row[ROW_FLAGS] & RST:
                flow.saw_rst = True
            if ledger is not None:
                for victim_key in ledger.plan_evictions(open_flows, key, now):
                    victim = open_flows.pop(victim_key)
                    emitted.add(victim_key)
                    # Early render: complete only if the flow had
                    # already closed and was merely lingering.
                    victim.connection.complete = (
                        victim.connection.complete and victim.closable
                    )
                    victim.connection.finalize()
                    yield victim.connection
        for key, flow in open_flows.items():
            if ledger is not None:
                ledger.discharge(key)
            flow.connection.finalize()
            yield flow.connection
        if ledger is not None:
            ledger.finish()
    finally:
        if reader is not None:
            reader.close()
