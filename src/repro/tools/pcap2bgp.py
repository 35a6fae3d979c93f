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
from repro.bgp.messages import BgpError, BgpMessage, MessageDecoder, UpdateMessage
from repro.bgp.mrt import MrtRecord, write_mrt
from repro.core.health import STAGE_BGP, TraceHealth
from repro.wire import frames
from repro.wire.pcap import PcapRecord, read_pcap


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
    decode_error: str | None = None
    resync_events: int = 0  # malformed messages skipped via marker scan
    skipped_bytes: int = 0  # stream bytes those skips discarded

    def updates(self) -> list[TimedMessage]:
        """Only the UPDATE messages."""
        return [m for m in self.messages if isinstance(m.message, UpdateMessage)]


def reconstruct_stream(
    connection: Connection,
    records: Sequence[PcapRecord],
    resync: bool = True,
    health: TraceHealth | None = None,
) -> StreamResult:
    """Reassemble the data direction of one connection into messages.

    The connection's columns carry no payloads; each data segment's
    bytes are cut from ``records``, the capture it was built from (its
    ``index`` column holds positions in that list).

    With ``resync`` (the default) a malformed BGP message costs exactly
    that message: the decoder scans forward for the next marker and
    resumes, recording the skip in the result (and ``health`` when
    given).  With ``resync=False`` the first decode error stops the
    stream, preserved in ``decode_error`` — the legacy fail-fast mode.
    """
    messages: list[TimedMessage] = []
    pending: dict[int, bytes] = {}  # rel_seq -> payload not yet contiguous
    next_seq = 0
    stream_bytes = 0
    error: str | None = None
    current_time = 0

    def on_issue(kind: str, bytes_lost: int, detail: str) -> None:
        nonlocal error
        if error is None:
            error = f"{kind}: {detail}"
        if health is not None:
            health.record(
                STAGE_BGP, kind,
                timestamp_us=current_time,
                bytes_lost=bytes_lost,
                detail=f"{connection.key}: {detail}",
            )

    decoder = MessageDecoder(resync=resync, on_issue=on_issue)

    def feed(data: bytes, timestamp: int) -> None:
        nonlocal stream_bytes, error, current_time
        stream_bytes += len(data)
        current_time = timestamp
        if error is not None and not resync:
            return
        try:
            for message in decoder.feed(data):
                messages.append(TimedMessage(timestamp, message))
        except BgpError as exc:
            error = str(exc)
            if health is not None:
                health.record(
                    STAGE_BGP, "stream-desynchronized",
                    timestamp_us=timestamp,
                    detail=f"{connection.key}: {exc}",
                )

    data = connection.data
    for index, seq, end, time_us in zip(
        data.index, data.seq, data.end, data.time
    ):
        if end <= next_seq:
            continue  # pure retransmission of old data
        payload = _payload(records[index])
        if seq > next_seq:
            pending.setdefault(seq, payload)
            continue
        feed(payload[next_seq - seq :], time_us)
        next_seq = end
        # Drain any stashed segments that are now contiguous.
        progressed = True
        while progressed:
            progressed = False
            for stash_seq in sorted(pending):
                payload = pending[stash_seq]
                stash_end = stash_seq + len(payload)
                if stash_end <= next_seq:
                    del pending[stash_seq]
                    progressed = True
                elif stash_seq <= next_seq:
                    del pending[stash_seq]
                    feed(payload[next_seq - stash_seq :], time_us)
                    next_seq = stash_end
                    progressed = True
                    break
    missing = sum(
        max(0, seq + len(payload) - max(next_seq, seq))
        for seq, payload in pending.items()
    )
    if missing > 0 and health is not None:
        # Capture drops left sequence holes that never filled: the
        # stashed segments beyond them could not be decoded.
        health.record(
            STAGE_BGP, "stream-hole",
            timestamp_us=current_time,
            bytes_lost=missing,
            detail=f"{connection.key}: {missing} stream bytes never arrived",
            benign=True,
        )
    return StreamResult(
        sender_ip=connection.sender_ip or "0.0.0.0",
        receiver_ip=connection.receiver_ip or "0.0.0.0",
        messages=messages,
        stream_bytes=stream_bytes,
        missing_bytes=missing,
        decode_error=error,
        resync_events=decoder.resync_count,
        skipped_bytes=decoder.bytes_skipped,
    )


def _payload(record: PcapRecord) -> bytes:
    """The TCP payload of one already-decoded capture record."""
    data = record.data
    fields = frames.decode_fields(data)
    return data[fields[9] : fields[10]]


class StreamingPcap2Bgp:
    """Online reconstruction: feed captured frames as they arrive.

    The paper notes pcap2bgp "could run either online or offline"; this
    is the online half.  Frames go in one at a time (e.g. straight off
    a live tap), reassembly state is kept per flow direction, and every
    completed BGP message is delivered to ``on_message(flow, timed)``
    the moment its last contiguous byte arrives.
    """

    def __init__(self, on_message=None, resync: bool = True) -> None:
        self.on_message = on_message
        self.resync = resync
        self._flows: dict[tuple, dict] = {}
        self.messages: list[tuple[tuple, TimedMessage]] = []
        self.frames_consumed = 0
        self.skipped_frames = 0
        self.resync_events = 0

    def feed(self, record: PcapRecord) -> list[TimedMessage]:
        """Process one captured frame; returns messages it completed."""
        self.frames_consumed += 1
        try:
            parsed = frames.parse_frame(record.data)
        except (frames.FrameError, ValueError):
            self.skipped_frames += 1
            return []
        if not parsed.tcp.payload and not parsed.tcp.is_syn:
            return []
        flow = parsed.flow
        state = self._flows.get(flow)
        if state is None:
            state = {
                "isn": None,
                "next_seq": 0,
                "pending": {},
                "decoder": MessageDecoder(
                    resync=self.resync, on_issue=self._count_resync
                ),
                "dead": False,
            }
            self._flows[flow] = state
        if parsed.tcp.is_syn:
            state["isn"] = parsed.tcp.seq
            return []
        if state["dead"] or not parsed.tcp.payload:
            return []
        if state["isn"] is None:
            state["isn"] = parsed.tcp.seq - 1
        rel = (parsed.tcp.seq - state["isn"] - 1) & 0xFFFFFFFF
        return self._ingest(flow, state, rel, parsed.tcp.payload,
                            record.timestamp_us)

    def _count_resync(self, kind: str, bytes_lost: int, detail: str) -> None:
        self.resync_events += 1

    def _ingest(self, flow, state, seq, payload, timestamp):
        out: list[TimedMessage] = []

        def feed_bytes(data: bytes) -> None:
            if state["dead"]:
                return
            try:
                for message in state["decoder"].feed(data):
                    timed = TimedMessage(timestamp, message)
                    out.append(timed)
                    self.messages.append((flow, timed))
                    if self.on_message is not None:
                        self.on_message(flow, timed)
            except BgpError:
                state["dead"] = True

        end = seq + len(payload)
        if end <= state["next_seq"]:
            return out  # pure retransmission
        if seq > state["next_seq"]:
            state["pending"].setdefault(seq, payload)
            return out
        feed_bytes(payload[state["next_seq"] - seq:])
        state["next_seq"] = end
        progressed = True
        while progressed and not state["dead"]:
            progressed = False
            for stash_seq in sorted(state["pending"]):
                stashed = state["pending"][stash_seq]
                stash_end = stash_seq + len(stashed)
                if stash_end <= state["next_seq"]:
                    del state["pending"][stash_seq]
                    progressed = True
                elif stash_seq <= state["next_seq"]:
                    del state["pending"][stash_seq]
                    feed_bytes(stashed[state["next_seq"] - stash_seq:])
                    state["next_seq"] = stash_end
                    progressed = True
                    break
        return out

    def flows(self) -> list[tuple]:
        """The flow 4-tuples seen so far."""
        return list(self._flows)


def pcap_to_bgp(
    source: BinaryIO | str | Path | list[PcapRecord],
    min_data_packets: int = 1,
    resync: bool = True,
    health: TraceHealth | None = None,
) -> dict[tuple, StreamResult]:
    """Reconstruct every connection's BGP stream from a capture."""
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
        if connection.profile.total_data_packets < min_data_packets:
            continue
        results[connection.key] = reconstruct_stream(
            connection, records, resync=resync, health=health
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
