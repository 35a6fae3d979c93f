"""pcap2bgp: reconstruct BGP messages out of a raw packet trace.

The paper's side tool (section II-A, Table VI): for vendor collectors
that keep no MRT archive, the BGP message stream is recovered from the
tcpdump trace itself.  The reconstruction handles TCP out-of-order
delivery and retransmissions, then extracts individual BGP messages
from the contiguous byte stream and stores them as MRT records.

Each message is stamped with the capture time of the packet whose
arrival made it complete and contiguous — the earliest moment a
receiver behind the tap could have had it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.analysis.profile import Connection, Trace
from repro.bgp.messages import BgpMessage, MessageDecoder, UpdateMessage
from repro.bgp.mrt import MrtRecord, write_mrt
from repro.core.health import STAGE_BGP, TraceHealth
from repro.wire import frames
from repro.wire.pcap import PcapRecord, read_pcap

#: Fewest data segments a connection needs to have a stream rebuilt.
MIN_DATA_PACKETS = 1


@dataclass
class TimedMessage:
    """One reconstructed message with its completion timestamp."""

    timestamp_us: int
    message: BgpMessage


@dataclass
class StreamResult:
    """Reconstruction output for one direction of one connection."""

    sender_ip: str
    receiver_ip: str
    messages: list[TimedMessage]
    stream_bytes: int
    missing_bytes: int  # holes never filled (capture drops)
    decode_error: str | None = None  # the first skip, "kind: detail"
    resync_events: int = 0  # malformed messages skipped via marker scan
    skipped_bytes: int = 0  # stream bytes those skips discarded

    def updates(self) -> list[TimedMessage]:
        """Only the UPDATE messages."""
        return [m for m in self.messages if isinstance(m.message, UpdateMessage)]


class _Reassembler:
    """One direction of a BGP session's TCP stream, in stream order.

    Segments arrive by relative sequence number, in any order and
    possibly repeated; the bytes each one makes contiguous go through
    one resyncing :class:`MessageDecoder`, and the messages they
    complete are stamped with that segment's capture time.
    """

    def __init__(self, on_issue) -> None:
        self.decoder = MessageDecoder(resync=True, on_issue=on_issue)
        self.next_seq = 0
        self.pending: dict[int, bytes] = {}  # rel_seq -> bytes not yet contiguous
        self.stream_bytes = 0
        self.timestamp_us = 0  # capture time of the last contiguous bytes

    def add(self, seq: int, payload: bytes, timestamp_us: int) -> list[TimedMessage]:
        """Take one segment; returns the messages it completed."""
        out: list[TimedMessage] = []
        pending = self.pending
        held = pending.get(seq)
        if held is None or len(payload) > len(held):
            pending[seq] = payload  # keep the longest segment per seq
        # Drain the stash while it continues the stream.
        while pending:
            first = min(pending)
            if first > self.next_seq:
                break
            stashed = pending.pop(first)
            end = first + len(stashed)
            if end <= self.next_seq:
                continue  # pure retransmission of old data
            data = stashed[self.next_seq - first :]
            self.next_seq = end
            self.timestamp_us = timestamp_us
            self.stream_bytes += len(data)
            for message in self.decoder.feed(data):
                out.append(TimedMessage(timestamp_us, message))
        return out

    def missing_bytes(self) -> int:
        """Stashed bytes beyond a hole that never filled, each byte
        counted once however many stashed segments overlap it."""
        missing = 0
        covered = self.next_seq
        for seq in sorted(self.pending):
            end = seq + len(self.pending[seq])
            if end > covered:
                missing += end - max(seq, covered)
                covered = end
        return missing


def reconstruct_stream(
    connection: Connection,
    records: Sequence[PcapRecord],
    health: TraceHealth | None = None,
) -> StreamResult:
    """Reassemble the data direction of one connection into messages.

    The connection's columns carry no payloads; each data segment's
    bytes are cut from ``records``, the capture it was built from (its
    ``index`` column holds positions in that list).

    A malformed BGP message costs exactly that message: the decoder
    scans forward for the next marker and resumes, recording the skip
    in the result (and ``health`` when given); the first skip is kept
    in ``decode_error``.
    """
    messages: list[TimedMessage] = []
    error: str | None = None

    def on_issue(kind: str, bytes_lost: int, detail: str) -> None:
        nonlocal error
        if error is None:
            error = f"{kind}: {detail}"
        if health is not None:
            health.record(
                STAGE_BGP, kind,
                timestamp_us=stream.timestamp_us,
                bytes_lost=bytes_lost,
                detail=f"{connection.key}: {detail}",
            )

    stream = _Reassembler(on_issue)
    data = connection.data
    for index, seq, end, time_us in zip(
        data.index, data.seq, data.end, data.time
    ):
        if end <= stream.next_seq:
            continue  # pure retransmission: no payload to cut
        messages += stream.add(seq, _payload(records[index]), time_us)
    missing = stream.missing_bytes()
    if missing > 0 and health is not None:
        # Capture drops left sequence holes that never filled: the
        # stashed segments beyond them could not be decoded.
        health.record(
            STAGE_BGP, "stream-hole",
            timestamp_us=stream.timestamp_us,
            bytes_lost=missing,
            detail=f"{connection.key}: {missing} stream bytes never arrived",
            benign=True,
        )
    return StreamResult(
        sender_ip=connection.sender_ip or "0.0.0.0",
        receiver_ip=connection.receiver_ip or "0.0.0.0",
        messages=messages,
        stream_bytes=stream.stream_bytes,
        missing_bytes=missing,
        decode_error=error,
        resync_events=stream.decoder.resync_count,
        skipped_bytes=stream.decoder.bytes_skipped,
    )


def _payload(record: PcapRecord) -> bytes:
    """The TCP payload of one already-decoded capture record."""
    data = record.data
    fields = frames.decode_fields(data)
    return data[fields[9] : fields[10]]


def pcap_to_bgp(
    source: BinaryIO | str | Path | list[PcapRecord],
    health: TraceHealth | None = None,
) -> dict[tuple, StreamResult]:
    """Reconstruct every connection's BGP stream from a capture.

    Connections without :data:`MIN_DATA_PACKETS` data segments carry
    no stream and are left out.
    """
    if isinstance(source, list):
        records = source
    else:
        records = read_pcap(source, tolerant=health is not None, health=health)
        if health is not None:
            # The reader counted these records; the drain below counts
            # the records it is handed, so they would count twice.
            health.records_read -= len(records)
    trace = Trace.from_pcap(records, health=health)
    results: dict[tuple, StreamResult] = {}
    for connection in trace:
        if connection.profile is None:
            continue
        if connection.profile.total_data_packets < MIN_DATA_PACKETS:
            continue
        results[connection.key] = reconstruct_stream(
            connection, records, health=health
        )
    return results


def pcap_to_mrt(
    source: BinaryIO | str | Path | list[PcapRecord],
    target: BinaryIO | str | Path,
    local_as: int = 0,
    peer_as: int = 0,
) -> int:
    """pcap -> MRT file of all reconstructed messages; returns the count."""
    results = pcap_to_bgp(source)
    records = []
    for result in results.values():
        for timed in result.messages:
            records.append(
                MrtRecord(
                    timestamp_us=timed.timestamp_us,
                    peer_as=peer_as,
                    local_as=local_as,
                    peer_ip=result.sender_ip,
                    local_ip=result.receiver_ip,
                    message=timed.message,
                )
            )
    records.sort(key=lambda r: r.timestamp_us)
    write_mrt(target, records)
    return len(records)
