"""pcap (libpcap classic) file reading and writing.

Implements the 24-byte global header plus 16-byte per-record headers,
microsecond and nanosecond timestamp variants, both byte orders on
read, and truncation-aware iteration so analysis survives the capture
drops the paper notes tcpdump suffers (section II-A).

There is one record walk and two disciplines over it:

* tolerant (``PcapReader(..., tolerant=True)``): nothing past the
  global header raises.  Implausible record headers trigger a forward
  scan that resynchronizes on the next plausible record boundary, and
  every skipped or truncated region is recorded as an
  :class:`~repro.core.health.IngestIssue` in the supplied
  :class:`~repro.core.health.TraceHealth` ledger;
* strict (the default): the same walk, raising :class:`PcapError`
  wherever the tolerant walk would record a non-benign issue (a bad
  record header, an unreadable tail, an implausible timestamp).  A
  truncated final record or record header still ends the read quietly,
  as ``tcpdump -r`` does.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.core.health import STAGE_PCAP, TraceHealth
from repro.core.units import US_PER_SECOND, from_pcap_timestamp, pcap_timestamp
from repro.obs import get_obs

MAGIC_US = 0xA1B2C3D4
MAGIC_US_SWAPPED = 0xD4C3B2A1
MAGIC_NS = 0xA1B23C4D
MAGIC_NS_SWAPPED = 0x4D3CB2A1
LINKTYPE_ETHERNET = 1

GLOBAL_HEADER = struct.Struct("IHHiIII")
RECORD_HEADER = struct.Struct("IIII")
DEFAULT_SNAPLEN = 65535

# The reader refuses to believe record headers claiming more than
# this many captured bytes: it bounds memory on corrupt length fields
# and is far above any real snaplen.
MAX_PLAUSIBLE_CAPLEN = 1 << 22
# Resync scans look this far ahead for the next plausible record
# boundary before declaring the remainder of the file unreadable.
RESYNC_SCAN_LIMIT = 1 << 20
# The reader disbelieves records whose timestamp jumps more than
# this far from their neighbours.  A structurally intact header with a
# mangled timestamp field passes every length check — and in
# nanosecond-magic files the fraction field's plausibility bound is
# 1000x looser than in microsecond ones, so corrupt headers slip
# through there far more often.  No real capture spans a year between
# adjacent records.
MAX_PLAUSIBLE_TS_JUMP_US = 366 * 86_400 * US_PER_SECOND


class PcapError(ValueError):
    """Raised on malformed pcap files."""


@dataclass(frozen=True)
class PcapRecord:
    """One captured packet: integer-microsecond timestamp plus raw frame."""

    timestamp_us: int
    data: bytes
    original_length: int | None = None

    @property
    def captured_length(self) -> int:
        """Bytes actually stored in the file."""
        return len(self.data)

    @property
    def wire_length(self) -> int:
        """Original on-the-wire length (>= captured length)."""
        return self.original_length if self.original_length is not None else len(self.data)


class PcapWriter:
    """Streams :class:`PcapRecord` items into a classic pcap file."""

    def __init__(
        self,
        target: BinaryIO | str | Path,
        linktype: int = LINKTYPE_ETHERNET,
        snaplen: int = DEFAULT_SNAPLEN,
        nanosecond: bool = False,
    ) -> None:
        if isinstance(target, (str, Path)):
            self._stream: BinaryIO = open(target, "wb")
            self._owns_stream = True
        else:
            self._stream = target
            self._owns_stream = False
        self.snaplen = snaplen
        self.nanosecond = nanosecond
        self._closed = False
        magic = MAGIC_NS if nanosecond else MAGIC_US
        try:
            self._stream.write(
                GLOBAL_HEADER.pack(magic, 2, 4, 0, 0, snaplen, linktype)
            )
        except Exception:
            # Never leak the file handle when the header write fails.
            self.close()
            raise

    def write(self, record: PcapRecord) -> None:
        """Append one record, honouring the snap length.

        The on-disk ``orig_len`` field always records the true wire
        length: when this writer's snaplen truncates ``record.data``,
        the full pre-truncation length is written, never the truncated
        one, so readers can still account for the missing bytes.
        """
        data = record.data[: self.snaplen]
        wire_length = max(record.wire_length, len(record.data))
        ts_sec, ts_frac = pcap_timestamp(record.timestamp_us)
        if self.nanosecond:
            ts_frac *= 1000
        self._stream.write(
            RECORD_HEADER.pack(ts_sec, ts_frac, len(data), wire_length)
        )
        self._stream.write(data)

    def write_all(self, records: Iterable[PcapRecord]) -> None:
        """Append many records."""
        for record in records:
            self.write(record)

    def close(self) -> None:
        """Flush and close (only closes streams this writer opened).

        Idempotent, so error paths may call it unconditionally.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._stream.flush()
        finally:
            if self._owns_stream:
                self._stream.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class PcapReader:
    """Iterates :class:`PcapRecord` items out of a classic pcap file.

    With ``tolerant=True`` nothing past the global header raises:
    damaged regions are skipped (resynchronizing on the next plausible
    record header) and accounted in ``health``.  An unrecognizable
    global header yields an empty iteration instead of raising.
    Without it, the same walk raises :class:`PcapError` at the first
    damage it would have accounted.
    """

    def __init__(
        self,
        source: BinaryIO | str | Path,
        tolerant: bool = False,
        health: TraceHealth | None = None,
    ) -> None:
        if isinstance(source, (str, Path)):
            self._stream: BinaryIO = open(source, "rb")
            self._owns_stream = True
        else:
            self._stream = source
            self._owns_stream = False
        self.tolerant = tolerant
        self.health = health if health is not None else TraceHealth()
        self.nanosecond = False
        self.snaplen = DEFAULT_SNAPLEN
        self.linktype = LINKTYPE_ETHERNET
        self._offset = 0  # absolute byte offset of the next unread byte
        self._unusable = False
        self._endian = "<"
        self._read_global_header()
        # Record-header layout and plausibility limits, as fixed by the
        # global header.
        self._record_header = struct.Struct(self._endian + "IIII")
        self._frac_limit = US_PER_SECOND * (1000 if self.nanosecond else 1)
        self._max_caplen = (
            self.snaplen
            if 0 < self.snaplen <= MAX_PLAUSIBLE_CAPLEN
            else DEFAULT_SNAPLEN
        )

    # ------------------------------------------------------------------
    # Header parsing
    # ------------------------------------------------------------------
    def _read_global_header(self) -> None:
        header = self._stream.read(GLOBAL_HEADER.size)
        self._offset += len(header)
        if len(header) < GLOBAL_HEADER.size:
            self._give_up("truncated-global-header",
                          f"{len(header)} of {GLOBAL_HEADER.size} bytes",
                          bytes_lost=len(header))
            return
        magic = struct.unpack("<I", header[:4])[0]
        if magic in (MAGIC_US, MAGIC_NS):
            self._endian = "<"
        elif magic in (MAGIC_US_SWAPPED, MAGIC_NS_SWAPPED):
            self._endian = ">"
        else:
            self._give_up("bad-magic", f"0x{magic:08x}")
            return
        self.nanosecond = magic in (MAGIC_NS, MAGIC_NS_SWAPPED)
        fields = struct.unpack(self._endian + "IHHiIII", header)
        _, major, minor, _, _, self.snaplen, self.linktype = fields
        if (major, minor) != (2, 4):
            if not self.tolerant:
                raise PcapError(f"unsupported pcap version {major}.{minor}")
            # Record layout has been 2.4 since libpcap 0.4; carry on.
            self.health.record(
                STAGE_PCAP, "unsupported-version",
                offset=0, detail=f"{major}.{minor}",
            )

    def _give_up(self, kind: str, detail: str, bytes_lost: int = 0) -> None:
        """Global-header damage: raise (strict) or drain (tolerant)."""
        if not self.tolerant:
            if kind == "bad-magic":
                raise PcapError(f"unrecognized pcap magic {detail}")
            raise PcapError("truncated pcap global header")
        rest = self._stream.read()
        self.health.record(
            STAGE_PCAP, kind,
            offset=0, bytes_lost=bytes_lost + len(rest), detail=detail,
        )
        self._unusable = True

    # ------------------------------------------------------------------
    # Record iteration
    # ------------------------------------------------------------------
    def _timestamp(self, ts_sec: int, ts_frac: int) -> int:
        if self.nanosecond:
            return ts_sec * US_PER_SECOND + ts_frac // 1000
        return from_pcap_timestamp(ts_sec, ts_frac)

    def _plausible_header(self, raw: bytes, at: int = 0) -> bool:
        """Could ``raw[at:at+16]`` be a believable record header?"""
        if len(raw) - at < RECORD_HEADER.size:
            return False
        _, ts_frac, incl_len, orig_len = self._record_header.unpack_from(raw, at)
        return self._plausible(ts_frac, incl_len, orig_len)

    def _plausible(self, ts_frac: int, incl_len: int, orig_len: int) -> bool:
        """Could a record header carrying these fields be believed?"""
        return (
            ts_frac < self._frac_limit
            and incl_len <= self._max_caplen
            and incl_len <= orig_len <= MAX_PLAUSIBLE_CAPLEN
        )

    def __iter__(self) -> Iterator[PcapRecord]:
        if self._unusable:
            return
        obs = get_obs()
        if not obs.enabled:
            yield from self._iter_records()
            return
        # Aggregate locally and flush once at end-of-iteration: the
        # per-record cost with observability on is two local adds.
        records = 0
        data_bytes = 0
        try:
            for record in self._iter_records():
                records += 1
                data_bytes += len(record.data)
                yield record
        finally:
            obs.metrics.counter("pcap.records").inc(records)
            obs.metrics.counter("pcap.bytes").inc(data_bytes)

    def _damage(self, kind: str, offset: int, detail: str, **fields) -> None:
        """One non-benign pcap issue: raise (strict) or account it."""
        if not self.tolerant:
            raise PcapError(f"damaged pcap: {kind} at offset {offset}")
        self.health.record(
            STAGE_PCAP, kind, offset=offset, detail=detail, **fields
        )

    def _iter_records(self) -> Iterator[PcapRecord]:
        last_ts: int | None = None
        regressions = 0
        first_regression_at: int | None = None
        # Timestamp-continuity adjudication.  A header whose length
        # fields survived mangling still frames the stream correctly,
        # so a corrupt timestamp must cost one record, not a resync —
        # but the reader cannot tell *which* of two wildly disagreeing
        # neighbours is the liar without a third opinion.  Until an
        # anchor is established the first records are buffered and
        # settled by quorum; afterwards any record a year away from the
        # anchor is dropped (with re-anchoring when two consecutive
        # drops agree with each other, i.e. the anchor was the liar).
        pending: list[tuple[int, PcapRecord]] = []
        anchor: int | None = None
        dropped_ts: int | None = None

        def emit(record: PcapRecord) -> PcapRecord:
            nonlocal last_ts, regressions, first_regression_at
            if last_ts is not None and record.timestamp_us < last_ts:
                regressions += 1
                if first_regression_at is None:
                    first_regression_at = record.timestamp_us
            last_ts = record.timestamp_us
            self.health.records_read += 1
            return record

        try:
            for start, record in self._iter_framed():
                ready: list[PcapRecord]
                if anchor is None:
                    pending.append((start, record))
                    if len(pending) < 2:
                        continue
                    if len(pending) == 2:
                        if self._ts_consistent(pending[0][1], pending[1][1]):
                            ready = [item[1] for item in pending]
                            anchor = record.timestamp_us
                            pending = []
                        else:
                            continue  # disagreement: wait for a tiebreaker
                    else:
                        (s0, r0), (s1, r1), (s2, r2) = pending
                        if self._ts_consistent(r0, r2):
                            self._drop_implausible_ts(s1, r1)
                            ready = [r0, r2]
                        elif self._ts_consistent(r1, r2):
                            self._drop_implausible_ts(s0, r0)
                            ready = [r1, r2]
                        else:
                            ready = [r0, r1, r2]  # no quorum: keep everything
                        anchor = r2.timestamp_us
                        pending = []
                elif abs(record.timestamp_us - anchor) > MAX_PLAUSIBLE_TS_JUMP_US:
                    if dropped_ts is not None and abs(
                        record.timestamp_us - dropped_ts
                    ) <= MAX_PLAUSIBLE_TS_JUMP_US:
                        # Two consecutive "implausible" records agree
                        # with each other: the anchor was the corrupt
                        # one.  Re-anchor and keep this record.
                        anchor = record.timestamp_us
                        dropped_ts = None
                        ready = [record]
                    else:
                        dropped_ts = record.timestamp_us
                        self._drop_implausible_ts(start, record)
                        continue
                else:
                    anchor = record.timestamp_us
                    dropped_ts = None
                    yield emit(record)
                    continue
                for item in ready:
                    yield emit(item)
            # EOF with the jury still out (a file of one or two
            # records): keep what was read, as the pre-continuity
            # reader did.
            for _, item in pending:
                yield emit(item)
        finally:
            if regressions:
                # One summary issue per file: clock steps and capture
                # reordering are common enough that per-record entries
                # would drown the report.
                self.health.record(
                    STAGE_PCAP, "timestamp-regression",
                    timestamp_us=first_regression_at,
                    detail=f"{regressions} record(s) went backwards in time",
                    benign=True,
                )

    def _ts_consistent(self, a: PcapRecord, b: PcapRecord) -> bool:
        return abs(a.timestamp_us - b.timestamp_us) <= MAX_PLAUSIBLE_TS_JUMP_US

    def _drop_implausible_ts(self, start: int, record: PcapRecord) -> None:
        self._damage(
            "implausible-timestamp", start,
            "timestamp a year away from its neighbours",
            timestamp_us=record.timestamp_us,
            bytes_lost=RECORD_HEADER.size + len(record.data),
        )

    def _iter_framed(self) -> Iterator[tuple[int, PcapRecord]]:
        """Structurally validated records plus their file offsets.

        A truncated final record (or record header) ends the walk; only
        the tolerant discipline accounts it.
        """
        unpack = self._record_header.unpack
        plausible = self._plausible
        while True:
            start = self._offset
            header = self._read_exact(RECORD_HEADER.size)
            if not header:
                return
            if len(header) < RECORD_HEADER.size:
                if self.tolerant:
                    self.health.record(
                        STAGE_PCAP, "truncated-record-header",
                        offset=start, bytes_lost=len(header),
                        detail=f"{len(header)} of {RECORD_HEADER.size} header bytes",
                    )
                return
            ts_sec, ts_frac, incl_len, orig_len = unpack(header)
            if not plausible(ts_frac, incl_len, orig_len):
                if not self._resync(start, header):
                    return
                continue
            data = self._read_exact(incl_len)
            if len(data) < incl_len:
                if self.tolerant:
                    self.health.record(
                        STAGE_PCAP, "truncated-record",
                        offset=start,
                        timestamp_us=self._timestamp(ts_sec, ts_frac),
                        bytes_lost=RECORD_HEADER.size + len(data),
                        detail=f"{len(data)} of {incl_len} data bytes",
                    )
                return
            yield start, PcapRecord(
                timestamp_us=self._timestamp(ts_sec, ts_frac),
                data=data,
                original_length=orig_len,
            )

    def _read_exact(self, count: int) -> bytes:
        data = self._stream.read(count)
        self._offset += len(data)
        return data

    def _resync(self, start: int, bad_header: bytes) -> bool:
        """Scan forward for the next plausible record boundary.

        ``bad_header`` is the 16 implausible bytes already consumed.
        Returns True when a boundary was found (stream positioned at
        it); False when the rest of the file had to be abandoned.  A
        candidate is *verified* when the record it frames is followed
        by another plausible header — that keeps random payload bytes
        from masquerading as a boundary.  A candidate whose record runs
        to or past the end of the scan window cannot be verified; the
        first such candidate is kept only as a fallback, used when no
        verified boundary exists in the window.
        """
        window = bytearray(bad_header)
        window += self._stream.read(RESYNC_SCAN_LIMIT)
        self._offset = start + len(window)
        found_at: int | None = None
        fallback_at: int | None = None
        for i in range(1, len(window) - RECORD_HEADER.size + 1):
            if not self._plausible_header(window, i):
                continue
            _, _, incl_len, _ = self._record_header.unpack_from(window, i)
            following = i + RECORD_HEADER.size + incl_len
            if self._plausible_header(window, following):
                found_at = i
                break
            if following >= len(window) and fallback_at is None:
                fallback_at = i
        if found_at is None:
            found_at = fallback_at
        if found_at is None:
            self._damage(
                "unreadable-tail", start,
                "no plausible record boundary found",
                bytes_lost=len(window),
            )
            return False
        self._damage(
            "bad-record-header", start,
            f"resynchronized after {found_at} bytes",
            bytes_lost=found_at,
        )
        get_obs().metrics.counter("pcap.resyncs").inc()
        # Rewind the unconsumed tail of the scan window.
        tail = bytes(window[found_at:])
        self._stream = _ChainedStream(tail, self._stream)
        self._offset = start + found_at
        return True

    def close(self) -> None:
        """Close the underlying stream if this reader opened it."""
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ChainedStream:
    """A minimal read-only stream serving buffered bytes then a stream."""

    def __init__(self, head: bytes, rest: BinaryIO) -> None:
        self._head = head
        self._pos = 0
        self._rest = rest

    def read(self, count: int = -1) -> bytes:
        if count is None or count < 0:
            out = self._head[self._pos:] + self._rest.read()
            self._pos = len(self._head)
            return out
        out = self._head[self._pos : self._pos + count]
        self._pos += len(out)
        if len(out) < count:
            out += self._rest.read(count - len(out))
        return out

    def close(self) -> None:
        self._rest.close()


def read_pcap(
    source: BinaryIO | str | Path,
    tolerant: bool = False,
    health: TraceHealth | None = None,
) -> list[PcapRecord]:
    """Read an entire pcap file into memory."""
    with PcapReader(source, tolerant=tolerant, health=health) as reader:
        return list(reader)


def write_pcap(
    target: BinaryIO | str | Path,
    records: Iterable[PcapRecord],
    snaplen: int = DEFAULT_SNAPLEN,
    nanosecond: bool = False,
) -> None:
    """Write ``records`` as a complete pcap file."""
    with PcapWriter(target, snaplen=snaplen, nanosecond=nanosecond) as writer:
        writer.write_all(records)


def records_to_bytes(
    records: Iterable[PcapRecord],
    snaplen: int = DEFAULT_SNAPLEN,
    nanosecond: bool = False,
) -> bytes:
    """Render a pcap file as an in-memory byte string."""
    buffer = io.BytesIO()
    write_pcap(buffer, records, snaplen=snaplen, nanosecond=nanosecond)
    return buffer.getvalue()
