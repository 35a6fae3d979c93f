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
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import BinaryIO, NamedTuple

from repro.core.health import STAGE_PCAP, TraceHealth
from repro.core.units import US_PER_SECOND, pcap_timestamp
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
# The reader reads its source in blocks of this many bytes.
READ_CHUNK = 1 << 16
# Resync scans look this far ahead for the next plausible record
# boundary before declaring the remainder of the file unreadable.
RESYNC_SCAN_LIMIT = 1 << 20
# A resync prefers a boundary whose timestamp lies within this of the
# last emitted record's.  A header read one byte before its true start
# splices a payload byte into its seconds field; for some real
# timestamps (2020's among them) that lands within a year of the truth,
# and such a near-miss passes every other test.
RESYNC_TS_WINDOW_US = 3_600 * US_PER_SECOND
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


class PcapRecord(NamedTuple):
    """One captured packet: integer-microsecond timestamp plus raw frame.

    An immutable tuple, which is far cheaper to build than a dataclass.
    """

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

    The source is read in :data:`READ_CHUNK` blocks, each read repeated
    until it has the bytes it needs or ``read`` returns ``b""``, so a
    source that returns short reads reads like a whole file.
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
        # ``_buf[_pos:]`` is read but not yet walked; ``_buf[0]`` is at
        # file offset ``_base``.
        self._buf = b""
        self._pos = 0
        self._base = 0
        self._eof = False
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

    def _fill(self, buf: bytes, pos: int, need: int) -> bytes:
        """``buf[pos:]`` extended by whole blocks to ``need`` bytes.

        Fewer come back only at end of stream.
        """
        pieces = [buf[pos:]]
        have = len(pieces[0])
        while have < need and not self._eof:
            block = self._stream.read(READ_CHUNK)
            if block:
                pieces.append(block)
                have += len(block)
            else:
                self._eof = True
        return b"".join(pieces)

    # ------------------------------------------------------------------
    # Header parsing
    # ------------------------------------------------------------------
    def _read_global_header(self) -> None:
        self._buf = self._fill(b"", 0, GLOBAL_HEADER.size)
        header = self._buf[: GLOBAL_HEADER.size]
        self._pos = len(header)
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
        rest = len(self._fill(self._buf, self._pos, sys.maxsize))
        self.health.record(
            STAGE_PCAP, kind,
            offset=0, bytes_lost=bytes_lost + rest, detail=detail,
        )
        self._unusable = True

    # ------------------------------------------------------------------
    # Record iteration
    # ------------------------------------------------------------------
    def _plausible(self, ts_frac: int, incl_len: int, orig_len: int) -> bool:
        """Could a record header carrying these fields be believed?"""
        return (
            ts_frac < self._frac_limit
            and incl_len <= self._max_caplen
            and incl_len <= orig_len <= MAX_PLAUSIBLE_CAPLEN
        )

    def _damage(self, kind: str, offset: int, detail: str, **fields) -> None:
        """One non-benign pcap issue: raise (strict) or account it."""
        if not self.tolerant:
            raise PcapError(f"damaged pcap: {kind} at offset {offset}")
        self.health.record(
            STAGE_PCAP, kind, offset=offset, detail=detail, **fields
        )

    def __iter__(self) -> Iterator[PcapRecord]:
        """The record walk.

        A truncated final record (or record header) ends the walk; only
        the tolerant discipline accounts it.
        """
        if self._unusable:
            return
        obs = get_obs()
        health = self.health
        unpack_from = self._record_header.unpack_from
        frac_limit = self._frac_limit
        max_caplen = self._max_caplen
        frac_divisor = 1000 if self.nanosecond else 1
        jump = MAX_PLAUSIBLE_TS_JUMP_US
        new_record = tuple.__new__
        buf, pos, base = self._buf, self._pos, self._base
        records_before = health.records_read
        data_bytes = 0
        regressions = 0
        first_regression_at: int | None = None
        # Timestamp-continuity adjudication.  A header whose length
        # fields survived mangling still frames the stream correctly,
        # so a corrupt timestamp must cost one record, not a resync —
        # but the reader cannot tell *which* of two wildly disagreeing
        # neighbours is the liar without a third opinion.  Until an
        # anchor is established the first records are held back and
        # settled by quorum; afterwards any record a year away from the
        # anchor is dropped (with re-anchoring when two consecutive
        # drops agree with each other, i.e. the anchor was the liar).
        # Once set, the anchor is also the last emitted timestamp.
        pending: list[tuple[int, PcapRecord]] = []
        anchor: int | None = None
        dropped_ts: int | None = None
        try:
            while True:
                settled = None
                while True:
                    if len(buf) - pos < 16:
                        base += pos
                        buf, pos = self._fill(buf, pos, 16), 0
                        if len(buf) < 16:
                            if buf and self.tolerant:
                                health.record(
                                    STAGE_PCAP, "truncated-record-header",
                                    offset=base, bytes_lost=len(buf),
                                    detail=f"{len(buf)} of {RECORD_HEADER.size} header bytes",
                                )
                            break
                    ts_sec, ts_frac, incl_len, orig_len = unpack_from(buf, pos)
                    if not (
                        ts_frac < frac_limit
                        and incl_len <= max_caplen
                        and incl_len <= orig_len <= MAX_PLAUSIBLE_CAPLEN
                    ):
                        window = RECORD_HEADER.size + RESYNC_SCAN_LIMIT
                        if len(buf) - pos < window and not self._eof:
                            base += pos
                            buf, pos = self._fill(buf, pos, window), 0
                        found = self._resync(buf, pos, base, anchor)
                        if found is None:
                            break
                        pos = found
                        continue
                    ts = ts_sec * US_PER_SECOND + ts_frac // frac_divisor
                    end = pos + 16 + incl_len
                    if end > len(buf):
                        base += pos
                        buf, pos = self._fill(buf, pos, 16 + incl_len), 0
                        end = 16 + incl_len
                        if end > len(buf):
                            if self.tolerant:
                                health.record(
                                    STAGE_PCAP, "truncated-record",
                                    offset=base, timestamp_us=ts,
                                    bytes_lost=len(buf),
                                    detail=f"{len(buf) - 16} of {incl_len} data bytes",
                                )
                            break
                    record = new_record(PcapRecord, (ts, buf[pos + 16 : end], orig_len))
                    start = base + pos
                    pos = end
                    if anchor is not None:
                        if not -jump <= ts - anchor <= jump:
                            if dropped_ts is None or not -jump <= ts - dropped_ts <= jump:
                                dropped_ts = ts
                                self._drop_implausible_ts(start, record)
                                continue
                            # Two consecutive "implausible" records agree
                            # with each other: the anchor was the corrupt
                            # one.  Re-anchor and keep this record.
                        if ts < anchor:
                            regressions += 1
                            if first_regression_at is None:
                                first_regression_at = ts
                        anchor = ts
                        dropped_ts = None
                        health.records_read += 1
                        data_bytes += incl_len
                        yield record
                        continue
                    pending.append((start, record))
                    settled = self._settle(pending)
                    if settled is not None:
                        break
                # The first records have settled, or the file ended
                # with the jury still out (a file of one or two
                # records): keep what was read, as the
                # pre-continuity reader did.
                for record in settled or [item for _, item in pending]:
                    ts = record[0]
                    if anchor is not None and ts < anchor:
                        regressions += 1
                        if first_regression_at is None:
                            first_regression_at = ts
                    anchor = ts
                    health.records_read += 1
                    data_bytes += len(record[1])
                    yield record
                if settled is None:
                    break
                pending = []
        finally:
            self._buf, self._pos, self._base = buf, pos, base
            obs.metrics.counter("pcap.records").inc(
                health.records_read - records_before
            )
            obs.metrics.counter("pcap.bytes").inc(data_bytes)
            if regressions:
                # One summary issue per file: clock steps and capture
                # reordering are common enough that per-record entries
                # would drown the report.
                health.record(
                    STAGE_PCAP, "timestamp-regression",
                    timestamp_us=first_regression_at,
                    detail=f"{regressions} record(s) went backwards in time",
                    benign=True,
                )

    def _settle(
        self, pending: list[tuple[int, PcapRecord]]
    ) -> list[PcapRecord] | None:
        """The first records once a quorum settles them, else None.

        Two records that agree settle each other.  Two that disagree
        wait for a third, which keeps the pair member it agrees with
        and drops the other; with no agreement at all every record is
        kept.
        """
        if len(pending) < 2:
            return None
        if len(pending) == 2:
            (_, r0), (_, r1) = pending
            return [r0, r1] if self._ts_consistent(r0, r1) else None
        (s0, r0), (s1, r1), (_, r2) = pending
        if self._ts_consistent(r0, r2):
            self._drop_implausible_ts(s1, r1)
            return [r0, r2]
        if self._ts_consistent(r1, r2):
            self._drop_implausible_ts(s0, r0)
            return [r1, r2]
        return [r0, r1, r2]

    def _ts_consistent(self, a: PcapRecord, b: PcapRecord) -> bool:
        return abs(a.timestamp_us - b.timestamp_us) <= MAX_PLAUSIBLE_TS_JUMP_US

    def _drop_implausible_ts(self, start: int, record: PcapRecord) -> None:
        self._damage(
            "implausible-timestamp", start,
            "timestamp a year away from its neighbours",
            timestamp_us=record.timestamp_us,
            bytes_lost=RECORD_HEADER.size + len(record.data),
        )

    def _resync(
        self, buf: bytes, at: int, base: int, anchor: int | None
    ) -> int | None:
        """Scan forward for the next plausible record boundary.

        ``buf[at:at+16]`` is the implausible header, at file offset
        ``base + at``.  The scan window is that header plus the
        :data:`RESYNC_SCAN_LIMIT` bytes after it (fewer at end of
        file), scanned in place.  Returns the boundary's index in
        ``buf``, or None when the rest of the file had to be abandoned.
        A candidate is *verified* when the record it frames is followed
        by another plausible header — that keeps random payload bytes
        from masquerading as a boundary.  The first verified candidate
        within :data:`RESYNC_TS_WINDOW_US` of ``anchor``, the last
        emitted timestamp (any, before the first records settle), wins;
        failing that, the first verified candidate.  A candidate whose
        record runs to or past the end of the scan window cannot be
        verified; the first such candidate is kept only as a fallback,
        used when no verified boundary exists in the window.
        """
        size = RECORD_HEADER.size
        end = min(len(buf), at + size + RESYNC_SCAN_LIMIT)
        unpack_from = self._record_header.unpack_from
        plausible = self._plausible
        frac_divisor = 1000 if self.nanosecond else 1
        window = RESYNC_TS_WINDOW_US
        found_at: int | None = None
        distant_at: int | None = None
        fallback_at: int | None = None
        for i in range(at + 1, end - size + 1):
            ts_sec, ts_frac, incl_len, orig_len = unpack_from(buf, i)
            if not plausible(ts_frac, incl_len, orig_len):
                continue
            following = i + size + incl_len
            if following + size <= end and plausible(
                *unpack_from(buf, following)[1:]
            ):
                if anchor is None or -window <= (
                    ts_sec * US_PER_SECOND + ts_frac // frac_divisor - anchor
                ) <= window:
                    found_at = i
                    break
                if distant_at is None:
                    distant_at = i
            elif following >= end and fallback_at is None:
                fallback_at = i
        if found_at is None:
            found_at = distant_at if distant_at is not None else fallback_at
        if found_at is None:
            self._damage(
                "unreadable-tail", base + at,
                "no plausible record boundary found",
                bytes_lost=end - at,
            )
            return None
        self._damage(
            "bad-record-header", base + at,
            f"resynchronized after {found_at - at} bytes",
            bytes_lost=found_at - at,
        )
        get_obs().metrics.counter("pcap.resyncs").inc()
        return found_at

    def close(self) -> None:
        """Close the underlying stream if this reader opened it."""
        if self._owns_stream:
            self._stream.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


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
