"""The buffered pcap walk against the stream-chaining oracle.

``tests/wire/pcap_oracle.py`` keeps the reader that re-read its stream
twice per record and rewound every resync window through a
``_ChainedStream``.  The property here reads the same damaged bytes
through both and demands identical records, health issues (every
field), ``pcap.*`` counters and, in strict mode, ``PcapError`` text.
The block size and the resync window are drawn small as well as at
their defaults, so small captures cross block boundaries mid-record
and run out of scan window.

The oracle resyncs to the first verified boundary; the reader prefers
the first one within ``RESYNC_TS_WINDOW_US`` of the last emitted
record.  With that window opened wide the reader must match the oracle
on every input; with it as shipped, on every input where each boundary
the oracle took lies inside the window.  The inputs where the two
differ by design are pinned with exact counts below.
"""

import io
import random
import struct
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.health import TraceHealth
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import OPERATORS, mangle
from repro.obs import Observability, use_obs
from repro.serve.session import ChunkFeeder
from repro.wire import pcap
from repro.wire.pcap import (
    MAGIC_NS,
    MAGIC_US,
    RESYNC_SCAN_LIMIT,
    RESYNC_TS_WINDOW_US,
    PcapError,
    PcapReader,
)

from tests.wire import pcap_oracle

#: a real monitored transfer, cut to a few dozen frames.
_TRANSFER = clean_trace_bytes(table_prefixes=200, duration_s=10)


def _transfer_records(count: int) -> list[tuple[int, int, int, bytes]]:
    """``(ts_sec, ts_usec, orig_len, data)`` of the first records."""
    out, at = [], 24
    while len(out) < count and at + 16 <= len(_TRANSFER):
        ts_sec, ts_usec, incl_len, orig_len = struct.unpack_from(
            "<IIII", _TRANSFER, at
        )
        data = _TRANSFER[at + 16 : at + 16 + incl_len]
        out.append((ts_sec, ts_usec, orig_len, data))
        at += 16 + incl_len
    return out


def _encode(records, nanosecond: bool, endian: str) -> bytes:
    magic = MAGIC_NS if nanosecond else MAGIC_US
    parts = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, 1)]
    for ts_sec, ts_usec, orig_len, data in records:
        frac = ts_usec * 1000 if nanosecond else ts_usec
        parts.append(struct.pack(endian + "IIII", ts_sec, frac, len(data), orig_len))
        parts.append(data)
    return b"".join(parts)


def _smash(blob: bytes, rng: random.Random, smashes: int) -> bytes:
    """Overwrite 4-byte words past the global header.

    Half of them land on a record-header field, so resyncs are common.
    """
    out = bytearray(blob)
    headers, at = [], 24
    while at + 16 <= len(blob):
        headers.append(at)
        at += 16 + struct.unpack_from(_endian(blob) + "I", blob, at + 8)[0]
    for _ in range(smashes):
        if len(out) <= 28:
            break
        if headers and rng.random() < 0.5:
            at = rng.choice(headers) + rng.choice((0, 4, 8, 12))
        else:
            at = rng.randrange(24, len(out) - 4)
        out[at : at + 4] = rng.choice(
            (b"\xff\xff\xff\x7f", b"\x00\x00\x00\x00", rng.randbytes(4))
        )
    return bytes(out)


def _endian(blob: bytes) -> str:
    return ">" if blob[:4] in (b"\xa1\xb2\xc3\xd4", b"\xa1\xb2\x3c\x4d") else "<"


def _source(blob: bytes, cuts: list[int] | None):
    if cuts is None:
        return io.BytesIO(blob)
    feeder = ChunkFeeder()
    at = 0
    for size in cuts:
        feeder.feed(blob[at : at + size])
        at += size
    feeder.feed(blob[at:])
    feeder.close()
    return feeder


def _read(reader_cls, source, tolerant: bool):
    """Everything a read shows: records, ledger, counters, error."""
    health = TraceHealth()
    obs = Observability.create()
    records, error = [], None
    with use_obs(obs):
        try:
            for record in reader_cls(source, tolerant=tolerant, health=health):
                records.append(tuple(record))
        except PcapError as exc:
            error = str(exc)
    issues = [
        (i.stage, i.kind, i.offset, i.timestamp_us, i.bytes_lost, i.detail, i.benign)
        for i in health.issues
    ]
    counters = {
        name: value
        for name, value in obs.metrics.to_dict().items()
        if name.startswith("pcap.")
    }
    return records, issues, health.records_read, counters, error


def _read_open_window(source, tolerant: bool):
    """:func:`_read` with any boundary counted as near, as the oracle
    does, and how far each one taken lay from the last emitted record.
    """
    gaps = []
    resync = PcapReader._resync

    def spy(self, buf, at, base, anchor):
        found = resync(self, buf, at, base, anchor)
        if found is not None and anchor is not None:
            ts_sec, ts_frac = self._record_header.unpack_from(buf, found)[:2]
            ts = ts_sec * 1_000_000 + ts_frac // (1000 if self.nanosecond else 1)
            gaps.append(abs(ts - anchor))
        return found

    with mock.patch.object(pcap, "RESYNC_TS_WINDOW_US", 2**64), mock.patch.object(
        PcapReader, "_resync", spy
    ):
        return _read(PcapReader, source, tolerant), gaps


captures = st.tuples(
    st.integers(min_value=0, max_value=40),  # records
    st.booleans(),  # nanosecond magic
    st.sampled_from("<>"),  # byte order
    st.lists(st.sampled_from(sorted(OPERATORS)), max_size=3),
    st.integers(min_value=0, max_value=2**32),  # damage seed
    st.integers(min_value=0, max_value=6),  # word smashes
    st.none() | st.integers(min_value=0, max_value=10**6),  # truncation
)


def _damaged_blob(count, nanosecond, endian, ops, seed, smashes, cut) -> bytes:
    blob = _encode(_transfer_records(count), nanosecond, endian)
    blob = mangle(blob, ops, seed)
    blob = _smash(blob, random.Random(seed), smashes)
    if cut is not None:
        blob = blob[: cut % (len(blob) + 1)]
    return blob


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    capture=captures,
    tolerant=st.booleans(),
    read_chunk=st.sampled_from([1, 7, 100, 4096, pcap.READ_CHUNK]),
    scan_limit=st.sampled_from([24, 200, 3000, RESYNC_SCAN_LIMIT]),
    cuts=st.none() | st.lists(st.integers(min_value=1, max_value=300), max_size=8),
)
def test_reader_matches_oracle(capture, tolerant, read_chunk, scan_limit, cuts):
    blob = _damaged_blob(*capture)
    with mock.patch.object(pcap, "READ_CHUNK", read_chunk), mock.patch.object(
        pcap, "RESYNC_SCAN_LIMIT", scan_limit
    ), mock.patch.object(pcap_oracle, "RESYNC_SCAN_LIMIT", scan_limit):
        opened, gaps = _read_open_window(_source(blob, cuts), tolerant)
        expected = _read(pcap_oracle.PcapReader, _source(blob, cuts), tolerant)
        assert opened == expected
        if all(gap <= RESYNC_TS_WINDOW_US for gap in gaps):
            assert _read(PcapReader, _source(blob, cuts), tolerant) == expected


def test_every_mangle_operator_matches_oracle():
    """Each operator alone, over a whole small transfer, both modes."""
    for op in sorted(OPERATORS):
        for seed in range(4):
            blob = mangle(_TRANSFER, [op], seed)
            for tolerant in (False, True):
                got = _read(PcapReader, io.BytesIO(blob), tolerant)
                expected = _read(pcap_oracle.PcapReader, io.BytesIO(blob), tolerant)
                assert got == expected, (op, seed, tolerant)


# Inputs where the oracle resyncs to a boundary a window away from the
# last emitted record and the reader to a nearer one further on: the
# first two lose a false record to the year-jump rule in the oracle
# only; in the third the oracle keeps a false record and a regression.
NEAR_BOUNDARY_CASES = [
    (
        (30, True, ">", ["flip-bgp"], 3225647124, 5, None), 3000,
        12, {"bad-record-header": 1},
    ),
    (
        (34, False, ">", ["reorder-records", "corrupt-record-header",
                          "drop-records"], 2723073566, 2, None), 3000,
        8, {"bad-record-header": 1, "timestamp-regression": 1},
    ),
    (
        (14, False, ">", ["corrupt-record-header", "duplicate-records"],
         886449832, 3, None), RESYNC_SCAN_LIMIT,
        10, {"bad-record-header": 1},
    ),
]


def test_near_boundary_beats_a_distant_one():
    for capture, scan_limit, records, kinds in NEAR_BOUNDARY_CASES:
        blob = _damaged_blob(*capture)
        with mock.patch.object(pcap, "RESYNC_SCAN_LIMIT", scan_limit), \
                mock.patch.object(pcap_oracle, "RESYNC_SCAN_LIMIT", scan_limit):
            got = _read(PcapReader, io.BytesIO(blob), True)
            expected = _read(pcap_oracle.PcapReader, io.BytesIO(blob), True)
        assert got != expected
        assert len(got[0]) == records
        assert Counter(issue[1] for issue in got[1]) == kinds
