"""Seeded, deterministic pcap mangling: composable fault operators.

Each operator is a small named transform over raw pcap file bytes that
models one way a real capture gets damaged (paper section II-A and
DESIGN.md section 7):

========================  ====================================================
``truncate``              cut the file mid-record (interrupted tcpdump,
                          full disk)
``corrupt-record-header`` smash bytes inside per-record headers (bit rot,
                          bad transfer)
``corrupt-payload``       flip bytes inside captured frames
``drop-records``          delete whole records (sniffer drop voids)
``duplicate-records``     repeat records (span-port duplication)
``reorder-records``       swap neighbouring records (multi-queue capture)
``regress-timestamps``    pull timestamps backwards (clock steps)
``slice-frames``          re-truncate frames below the snap length
``flip-bgp``              corrupt BGP marker/length fields inside TCP
                          payloads (the in-stream damage pcap2bgp must
                          resynchronize around)
========================  ====================================================

All randomness flows from one ``random.Random`` seeded by the caller,
so a (seed, operator plan) pair always produces byte-identical output —
every fuzz failure is replayable.

Operators never need the file to be well-formed: they work on a
best-effort structural split (:func:`split_pcap`) and fall back to raw
byte edits when the structure is already too damaged to parse, so they
compose in any order.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from repro.bgp.header import MARKER as BGP_MARKER
from repro.wire.pcap import GLOBAL_HEADER, RECORD_HEADER

_MIN_FILE = GLOBAL_HEADER.size + RECORD_HEADER.size


@dataclass
class SplitPcap:
    """A best-effort structural view of a pcap byte string."""

    header: bytes  # the 24-byte global header (possibly damaged)
    records: list[bytes]  # each element: 16-byte record header + data
    trailer: bytes  # bytes after the last whole record

    def join(self) -> bytes:
        """Reassemble the exact byte string."""
        return self.header + b"".join(self.records) + self.trailer


def split_pcap(blob: bytes) -> SplitPcap:
    """Split pcap bytes into header/records/trailer without validating.

    Walks the record chain trusting ``incl_len`` fields; stops at the
    first record that overruns the buffer (that tail becomes the
    trailer).  Works for both byte orders; gives up gracefully (all
    bytes in ``trailer``) when even the global header is short.
    """
    if len(blob) < GLOBAL_HEADER.size:
        return SplitPcap(header=b"", records=[], trailer=blob)
    header = blob[: GLOBAL_HEADER.size]
    magic_le = struct.unpack("<I", header[:4])[0]
    endian = ">" if magic_le in (0xD4C3B2A1, 0x4D3CB2A1) else "<"
    records: list[bytes] = []
    i = GLOBAL_HEADER.size
    while i + RECORD_HEADER.size <= len(blob):
        incl_len = struct.unpack_from(endian + "I", blob, i + 8)[0]
        end = i + RECORD_HEADER.size + incl_len
        if incl_len > len(blob) or end > len(blob):
            break
        records.append(blob[i:end])
        i = end
    return SplitPcap(header=header, records=records, trailer=blob[i:])


class FaultOp:
    """One named, deterministic fault transform over pcap bytes."""

    name: str = "fault"

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultOp {self.name}>"


class Truncate(FaultOp):
    """Cut the file at an arbitrary byte somewhere past the magic."""

    name = "truncate"

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        if len(blob) <= _MIN_FILE:
            return blob
        # Bias toward mid-record cuts but allow any position after the
        # magic so global-header truncation is exercised too.
        cut = rng.randrange(4, len(blob))
        return blob[:cut]


class CorruptRecordHeaders(FaultOp):
    """Smash random bytes inside a few per-record headers."""

    name = "corrupt-record-header"

    def __init__(self, max_records: int = 3) -> None:
        self.max_records = max_records

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        if not split.records:
            return blob
        count = rng.randint(1, min(self.max_records, len(split.records)))
        for index in rng.sample(range(len(split.records)), count):
            record = bytearray(split.records[index])
            for _ in range(rng.randint(1, 4)):
                position = rng.randrange(RECORD_HEADER.size)
                record[position] = rng.randrange(256)
            split.records[index] = bytes(record)
        return split.join()


class CorruptPayload(FaultOp):
    """Flip random bytes inside captured frame data."""

    name = "corrupt-payload"

    def __init__(self, max_flips: int = 24) -> None:
        self.max_flips = max_flips

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        candidates = [
            i for i, r in enumerate(split.records)
            if len(r) > RECORD_HEADER.size
        ]
        if not candidates:
            return blob
        for _ in range(rng.randint(1, self.max_flips)):
            index = rng.choice(candidates)
            record = bytearray(split.records[index])
            position = rng.randrange(RECORD_HEADER.size, len(record))
            record[position] ^= 1 << rng.randrange(8)
            split.records[index] = bytes(record)
        return split.join()


class DropRecords(FaultOp):
    """Delete whole records — the file-level twin of a sniffer void."""

    name = "drop-records"

    def __init__(self, max_fraction: float = 0.2) -> None:
        self.max_fraction = max_fraction

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        if len(split.records) < 2:
            return blob
        rate = rng.uniform(0.02, self.max_fraction)
        kept = [r for r in split.records if rng.random() >= rate]
        if len(kept) == len(split.records):
            kept = kept[:-1]  # guarantee at least one drop
        split.records = kept
        return split.join()


class DuplicateRecords(FaultOp):
    """Repeat records in place (span ports love doing this)."""

    name = "duplicate-records"

    def __init__(self, max_fraction: float = 0.2) -> None:
        self.max_fraction = max_fraction

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        if not split.records:
            return blob
        rate = rng.uniform(0.02, self.max_fraction)
        doubled: list[bytes] = []
        for record in split.records:
            doubled.append(record)
            if rng.random() < rate:
                doubled.append(record)
        split.records = doubled
        return split.join()


class ReorderRecords(FaultOp):
    """Swap neighbouring records, breaking timestamp monotonicity."""

    name = "reorder-records"

    def __init__(self, max_swaps: int = 8) -> None:
        self.max_swaps = max_swaps

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        if len(split.records) < 2:
            return blob
        for _ in range(rng.randint(1, self.max_swaps)):
            i = rng.randrange(len(split.records) - 1)
            split.records[i], split.records[i + 1] = (
                split.records[i + 1],
                split.records[i],
            )
        return split.join()


class RegressTimestamps(FaultOp):
    """Pull some record timestamps backwards (NTP step, clock reset)."""

    name = "regress-timestamps"

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        if not split.records:
            return blob
        magic_le = struct.unpack("<I", split.header[:4])[0] if split.header else 0
        endian = ">" if magic_le in (0xD4C3B2A1, 0x4D3CB2A1) else "<"
        count = rng.randint(1, max(1, len(split.records) // 4))
        for index in rng.sample(range(len(split.records)), count):
            record = bytearray(split.records[index])
            ts_sec = struct.unpack_from(endian + "I", record, 0)[0]
            regress = rng.randint(1, 30)
            struct.pack_into(endian + "I", record, 0, max(0, ts_sec - regress))
            split.records[index] = bytes(record)
        return split.join()


class SliceFrames(FaultOp):
    """Re-truncate frames below the snap length, keeping headers honest.

    Models a sniffer with a short snaplen: ``incl_len`` shrinks with
    the data while ``orig_len`` keeps the wire truth, so the file stays
    structurally valid but frames lose their tails.
    """

    name = "slice-frames"

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        candidates = [
            i for i, r in enumerate(split.records)
            if len(r) - RECORD_HEADER.size > 16
        ]
        if not candidates:
            return blob
        magic_le = struct.unpack("<I", split.header[:4])[0] if split.header else 0
        endian = ">" if magic_le in (0xD4C3B2A1, 0x4D3CB2A1) else "<"
        count = rng.randint(1, max(1, len(candidates) // 2))
        for index in rng.sample(candidates, count):
            record = bytearray(split.records[index])
            data_len = len(record) - RECORD_HEADER.size
            keep = rng.randrange(14, data_len)
            struct.pack_into(endian + "I", record, 8, keep)
            split.records[index] = bytes(record[: RECORD_HEADER.size + keep])
        return split.join()


class FlipBgpFields(FaultOp):
    """Corrupt BGP marker/length fields found inside record payloads.

    Finds 16-byte all-ones markers in the raw record bytes (they only
    occur in BGP payloads; pcap/IP/TCP headers never contain one) and
    either damages the marker itself or inflates the following length
    field — exactly the in-stream damage the tolerant MessageDecoder
    must contain to a single message.
    """

    name = "flip-bgp"

    def __init__(self, max_hits: int = 4) -> None:
        self.max_hits = max_hits

    def __call__(self, blob: bytes, rng: random.Random) -> bytes:
        split = split_pcap(blob)
        hits: list[tuple[int, int]] = []  # (record index, offset in record)
        for index, record in enumerate(split.records):
            position = record.find(BGP_MARKER, RECORD_HEADER.size)
            while position >= 0:
                hits.append((index, position))
                position = record.find(BGP_MARKER, position + 1)
        if not hits:
            return blob
        count = rng.randint(1, min(self.max_hits, len(hits)))
        for index, position in rng.sample(hits, count):
            record = bytearray(split.records[index])
            if rng.random() < 0.5:
                # Damage the marker itself: the stream desynchronizes.
                record[position + rng.randrange(16)] ^= 0xFF
            elif position + 18 <= len(record):
                # Inflate the length field: framing lies about extent.
                struct.pack_into(
                    "!H", record, position + 16, rng.choice((0, 18, 5000, 65535))
                )
            split.records[index] = bytes(record)
        return split.join()


#: the default operator set, keyed by name (stable across releases so
#: seeds stay replayable).
OPERATORS: dict[str, FaultOp] = {
    op.name: op
    for op in (
        Truncate(),
        CorruptRecordHeaders(),
        CorruptPayload(),
        DropRecords(),
        DuplicateRecords(),
        ReorderRecords(),
        RegressTimestamps(),
        SliceFrames(),
        FlipBgpFields(),
    )
}


def mangle(
    blob: bytes,
    ops: list[str | FaultOp],
    seed: int,
) -> bytes:
    """Apply ``ops`` in order, all randomness drawn from ``seed``.

    Deterministic: the same (blob, ops, seed) triple always returns the
    same bytes.  Operator names resolve through :data:`OPERATORS`.
    """
    rng = random.Random(seed)
    for op in ops:
        resolved = OPERATORS[op] if isinstance(op, str) else op
        blob = resolved(blob, rng)
    return blob


def random_plan(
    rng: random.Random, min_ops: int = 1, max_ops: int = 3
) -> list[str]:
    """Draw a random operator plan (names, application order)."""
    count = rng.randint(min_ops, max_ops)
    return rng.sample(sorted(OPERATORS), count)
