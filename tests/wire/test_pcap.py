"""Unit tests for pcap reading/writing and full-frame composition."""

import io
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.health import TraceHealth
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import mangle
from repro.faults.stress import BASE_TIME_US, connection_flood
from repro.obs import Observability, use_obs
from repro.wire import frames, tcpw
from repro.wire.pcap import (
    MAGIC_NS,
    READ_CHUNK,
    PcapError,
    PcapReader,
    PcapRecord,
    PcapWriter,
    read_pcap,
    records_to_bytes,
    write_pcap,
)

from tests.wire.frame_oracle import EthernetFrame, Ipv4Header, parse_frame


def sample_records():
    return [
        PcapRecord(timestamp_us=1_000_000, data=b"frame-one"),
        PcapRecord(timestamp_us=1_000_250, data=b"frame-two-longer"),
        PcapRecord(timestamp_us=2_500_000, data=b"x" * 100),
    ]


class TestPcapRoundtrip:
    def test_roundtrip_memory(self):
        blob = records_to_bytes(sample_records())
        got = read_pcap(io.BytesIO(blob))
        assert [(r.timestamp_us, r.data) for r in got] == [
            (r.timestamp_us, r.data) for r in sample_records()
        ]

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "trace.pcap"
        write_pcap(path, sample_records())
        got = read_pcap(path)
        assert len(got) == 3
        assert got[0].data == b"frame-one"

    def test_snaplen_truncation(self):
        buffer = io.BytesIO()
        write_pcap(buffer, [PcapRecord(0, b"y" * 200)], snaplen=64)
        buffer.seek(0)
        (record,) = read_pcap(buffer)
        assert record.captured_length == 64
        assert record.wire_length == 200

    def test_bad_magic(self):
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(b"\x00" * 24))

    def test_truncated_global_header(self):
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(b"\xd4\xc3\xb2\xa1"))

    def test_truncated_trailing_record_tolerated(self):
        blob = records_to_bytes(sample_records())
        health = TraceHealth(strict=True)
        got = read_pcap(io.BytesIO(blob[:-5]), health=health)
        assert got == read_pcap(io.BytesIO(blob))[:2]
        assert health.issues == []

    def test_truncated_record_header_tolerated(self):
        blob = records_to_bytes(sample_records())
        health = TraceHealth(strict=True)
        got = read_pcap(io.BytesIO(blob[:-105]), health=health)
        assert got == read_pcap(io.BytesIO(blob))[:2]
        assert health.issues == []

    def test_big_endian_read(self):
        # Hand-build a big-endian pcap with one record.
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 3, 500, 4, 4) + b"abcd"
        got = read_pcap(io.BytesIO(header + record))
        assert got == [PcapRecord(timestamp_us=3_000_500, data=b"abcd", original_length=4)]

    def test_unsupported_version(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 1, 0, 0, 0, 65535, 1)
        with pytest.raises(PcapError):
            PcapReader(io.BytesIO(header))

    def test_reader_exposes_metadata(self):
        blob = records_to_bytes([])
        reader = PcapReader(io.BytesIO(blob))
        assert reader.linktype == 1
        assert reader.snaplen == 65535

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.binary(min_size=1, max_size=300),
            ),
            max_size=20,
        )
    )
    def test_roundtrip_property(self, items):
        records = [PcapRecord(ts, data) for ts, data in items]
        got = read_pcap(io.BytesIO(records_to_bytes(records)))
        assert [(r.timestamp_us, r.data) for r in got] == items


class TestNanosecondMagic:
    def test_roundtrip_nanosecond_file(self):
        blob = records_to_bytes(sample_records(), nanosecond=True)
        assert struct.unpack("<I", blob[:4])[0] == MAGIC_NS
        got = read_pcap(io.BytesIO(blob))
        assert [(r.timestamp_us, r.data) for r in got] == [
            (r.timestamp_us, r.data) for r in sample_records()
        ]

    def test_reader_flags_nanosecond(self):
        reader = PcapReader(io.BytesIO(records_to_bytes([], nanosecond=True)))
        assert reader.nanosecond
        assert not PcapReader(io.BytesIO(records_to_bytes([]))).nanosecond

    def test_hand_built_swapped_nanosecond(self):
        # Big-endian file with the nanosecond magic: ts_frac is in ns.
        header = struct.pack(">IHHiIII", MAGIC_NS, 2, 4, 0, 0, 65535, 1)
        record = struct.pack(">IIII", 3, 500_000_123, 4, 4) + b"abcd"
        (got,) = read_pcap(io.BytesIO(header + record))
        assert got.timestamp_us == 3_500_000  # sub-µs precision truncated
        assert got.data == b"abcd"

    @given(st.integers(min_value=0, max_value=2**40))
    def test_microsecond_precision_preserved(self, timestamp_us):
        blob = records_to_bytes(
            [PcapRecord(timestamp_us, b"x")], nanosecond=True
        )
        (got,) = read_pcap(io.BytesIO(blob))
        assert got.timestamp_us == timestamp_us


class TestPcapWriter:
    def test_snaplen_truncation_keeps_true_wire_length(self, tmp_path):
        path = tmp_path / "short.pcap"
        with PcapWriter(path, snaplen=32) as writer:
            writer.write(PcapRecord(0, b"q" * 90))
        (got,) = read_pcap(path)
        assert got.captured_length == 32
        assert got.wire_length == 90

    def test_wire_length_never_below_captured(self):
        # An inconsistent record (orig_len < captured bytes) is repaired
        # on write so readers never see orig_len < incl_len.
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            writer.write(PcapRecord(0, b"z" * 100, original_length=50))
        buffer.seek(0)
        (got,) = read_pcap(buffer)
        assert got.wire_length == 100

    def test_context_manager_closes_on_error(self, tmp_path):
        path = tmp_path / "err.pcap"
        with pytest.raises(RuntimeError):
            with PcapWriter(path) as writer:
                writer.write(PcapRecord(0, b"partial"))
                raise RuntimeError("simulated failure mid-write")
        assert writer._stream.closed
        # What made it to disk before the error is a readable pcap.
        (got,) = read_pcap(path)
        assert got.data == b"partial"

    def test_close_is_idempotent(self, tmp_path):
        writer = PcapWriter(tmp_path / "idem.pcap")
        writer.close()
        writer.close()

    def test_borrowed_stream_left_open(self):
        buffer = io.BytesIO()
        with PcapWriter(buffer) as writer:
            writer.write(PcapRecord(0, b"a"))
        assert not buffer.closed


class TestTolerantReader:
    def damaged_blob(self):
        """Five records with the middle one's length field smashed."""
        records = [
            PcapRecord(timestamp_us=i * 1_000, data=bytes([i]) * 40)
            for i in range(5)
        ]
        blob = bytearray(records_to_bytes(records))
        offset = 24 + 2 * (16 + 40)  # third record's header
        struct.pack_into("<I", blob, offset + 8, 0xFFFFFFFF)
        return bytes(blob), records

    def test_bad_magic_yields_empty_plus_issue(self):
        health = TraceHealth()
        got = read_pcap(io.BytesIO(b"\x00" * 64), tolerant=True, health=health)
        assert got == []
        assert health.by_kind() == {"bad-magic": 1}

    def test_truncated_global_header_tolerated(self):
        health = TraceHealth()
        got = read_pcap(io.BytesIO(b"\xd4\xc3"), tolerant=True, health=health)
        assert got == []
        assert health.by_kind() == {"truncated-global-header": 1}

    def test_strict_still_raises(self):
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(b"\x00" * 64))

    def test_resync_skips_only_damaged_record(self):
        blob, records = self.damaged_blob()
        health = TraceHealth()
        got = read_pcap(io.BytesIO(blob), tolerant=True, health=health)
        assert [r.data for r in got] == [
            r.data for i, r in enumerate(records) if i != 2
        ]
        assert health.by_kind().get("bad-record-header") == 1
        assert health.records_read == 4

    def test_mid_file_truncation_recorded(self):
        blob = records_to_bytes(sample_records())
        health = TraceHealth()
        got = read_pcap(io.BytesIO(blob[:-5]), tolerant=True, health=health)
        assert len(got) == 2
        assert health.by_kind() == {"truncated-record": 1}

    def test_timestamp_regression_is_one_benign_issue(self):
        records = [
            PcapRecord(timestamp_us=5_000_000, data=b"a"),
            PcapRecord(timestamp_us=1_000_000, data=b"b"),
            PcapRecord(timestamp_us=500_000, data=b"c"),
        ]
        health = TraceHealth(strict=True)  # benign: must not raise
        got = read_pcap(
            io.BytesIO(records_to_bytes(records)), tolerant=True, health=health
        )
        assert len(got) == 3
        assert health.by_kind() == {"timestamp-regression": 1}

    def test_clean_file_tolerant_equals_strict(self):
        """Same records and ledger, the benign regression included."""
        records = sample_records()
        records[0], records[1] = records[1], records[0]
        blob = records_to_bytes(records)
        health, strict_health = TraceHealth(), TraceHealth(strict=True)
        tolerant = read_pcap(io.BytesIO(blob), tolerant=True, health=health)
        assert tolerant == read_pcap(io.BytesIO(blob), health=strict_health)
        assert health.by_kind() == {"timestamp-regression": 1}
        assert strict_health.to_dict() == health.to_dict()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.binary(min_size=1, max_size=200),
            ),
            max_size=12,
        ),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_truncation_never_raises_yields_prefix(self, items, cut_draw):
        """The satellite property: write → truncate anywhere → tolerant
        read never raises and yields a prefix of the original records."""
        records = [PcapRecord(ts, data) for ts, data in items]
        blob = records_to_bytes(records)
        cut = cut_draw % (len(blob) + 1)
        health = TraceHealth()
        got = read_pcap(io.BytesIO(blob[:cut]), tolerant=True, health=health)
        assert len(got) <= len(records)
        assert [(r.timestamp_us, r.data) for r in got] == [
            (r.timestamp_us, r.data) for r in records[: len(got)]
        ]
        if cut < len(blob):
            assert not health.ok or len(got) < len(records) or cut == 0


@pytest.fixture(scope="module")
def transfer_blob():
    """One deterministic monitored table transfer, as pcap bytes."""
    return clean_trace_bytes(table_prefixes=800, duration_s=60)


class TestStrictReader:
    """Strict reading is the tolerant walk, raising at the first damage."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_corrupt_record_header_raises(self, transfer_blob, seed):
        blob = mangle(transfer_blob, ["corrupt-record-header"], seed=seed)
        health = TraceHealth()
        read_pcap(io.BytesIO(blob), tolerant=True, health=health)
        assert health.by_kind().get("bad-record-header")
        with pytest.raises(PcapError, match="bad-record-header"):
            read_pcap(io.BytesIO(blob))

    def test_implausible_timestamp_raises(self):
        records = [
            PcapRecord(timestamp_us=1_000_000 + i, data=b"r") for i in range(5)
        ]
        blob = bytearray(records_to_bytes(records))
        struct.pack_into("<I", blob, 24 + 2 * 17, 0x7FFFFFFF)  # third ts_sec
        with pytest.raises(PcapError, match="implausible-timestamp"):
            read_pcap(io.BytesIO(bytes(blob)))


class TestTimestampContinuity:
    """The tolerant reader adjudicates corrupt timestamps by continuity.

    A record header whose *length* fields survive mangling still frames
    the stream correctly, so a smashed timestamp must cost exactly one
    record — it must neither trigger a resync nor poison the output
    with a time 28 years in the future (the old nanosecond-magic
    failure mode, where the ns frac bound admitted ~23% of random
    values that the microsecond bound rejected).
    """

    def steady_records(self, n=5, start=1_000_000, step=1_000):
        # Nonzero payload bytes: a zero-filled payload reads as a
        # plausible all-zero record header during resync, which would
        # add an unrelated artifact to what these tests measure.
        return [
            PcapRecord(timestamp_us=start + i * step, data=bytes([65 + i]) * 40)
            for i in range(n)
        ]

    def test_garbage_first_timestamp_settled_by_quorum(self):
        records = self.steady_records()
        records[0] = PcapRecord(timestamp_us=10**15, data=records[0].data)
        health = TraceHealth()
        got = read_pcap(
            io.BytesIO(records_to_bytes(records)), tolerant=True, health=health
        )
        assert [r.data for r in got] == [r.data for r in records[1:]]
        assert health.by_kind() == {"implausible-timestamp": 1}

    def test_garbage_middle_timestamp_dropped(self):
        records = self.steady_records()
        records[2] = PcapRecord(timestamp_us=10**15, data=records[2].data)
        health = TraceHealth()
        got = read_pcap(
            io.BytesIO(records_to_bytes(records)), tolerant=True, health=health
        )
        assert [r.data for r in got] == [
            r.data for i, r in enumerate(records) if i != 2
        ]
        assert health.by_kind() == {"implausible-timestamp": 1}
        # The issue accounts the whole record (header + payload).
        assert health.bytes_lost == 16 + 40

    def test_genuine_jump_reanchors_on_agreement(self):
        """A capture resumed years later: the far side re-anchors.

        The first post-jump record is the unavoidable casualty (one
        opinion cannot outvote the anchor); the moment a second record
        agrees with it, the reader re-anchors and keeps everything.
        """
        later = 2 * 366 * 86_400 * 1_000_000
        records = self.steady_records(3) + [
            PcapRecord(timestamp_us=later + i * 1_000, data=bytes([10 + i]) * 40)
            for i in range(3)
        ]
        health = TraceHealth()
        got = read_pcap(
            io.BytesIO(records_to_bytes(records)), tolerant=True, health=health
        )
        assert [r.data for r in got] == [
            r.data for i, r in enumerate(records) if i != 3
        ]
        assert health.by_kind() == {"implausible-timestamp": 1}

    def test_short_files_keep_everything(self):
        # One or two records: the jury never convenes, nothing is lost.
        for n in (1, 2):
            records = self.steady_records(n)
            health = TraceHealth()
            got = read_pcap(
                io.BytesIO(records_to_bytes(records)),
                tolerant=True, health=health,
            )
            assert len(got) == n
            assert health.ok

    def test_mangled_first_record_ns_behaves_like_us(self):
        """The regression this guards: ns and us magics must recover
        identically when the first record's timestamp fields are
        smashed.  The ns fractional bound (10**9) accepts mangled
        values the us bound (10**6) rejects, so before continuity
        adjudication the ns path emitted a garbage-timestamp record
        where the us path resynced past it."""
        records = self.steady_records()
        recovered = {}
        for nanosecond in (False, True):
            blob = bytearray(records_to_bytes(records, nanosecond=nanosecond))
            # ts_sec and ts_frac of the first record (offset 24..31):
            # garbage that the ns frac bound accepts.
            struct.pack_into("<II", blob, 24, 0x39ABCDEF, 0x30000000)
            health = TraceHealth()
            got = read_pcap(io.BytesIO(bytes(blob)), tolerant=True, health=health)
            assert not health.ok
            recovered[nanosecond] = [r.data for r in got]
            # Whatever survived must carry sane timestamps.
            for record in got:
                assert record.timestamp_us < 10**9
        assert recovered[False] == recovered[True]
        assert recovered[True] == [r.data for r in records[1:]]


class _CountingStream(io.BytesIO):
    def __init__(self, blob):
        super().__init__(blob)
        self.reads = 0

    def read(self, size=-1):
        self.reads += 1
        return super().read(size)


class _DribblingStream(io.RawIOBase):
    """A raw stream that returns at most seven bytes per read."""

    def __init__(self, blob):
        self._blob = blob
        self._at = 0

    def readable(self):
        return True

    def readinto(self, buffer):
        piece = self._blob[self._at : self._at + min(7, len(buffer))]
        buffer[: len(piece)] = piece
        self._at += len(piece)
        return len(piece)


def _ledger(health):
    return [
        (i.kind, i.offset, i.timestamp_us, i.bytes_lost, i.detail, i.benign)
        for i in health.issues
    ]


class TestBufferedWalk:
    """The reader reads its source in blocks and resyncs in place."""

    def test_thousands_of_resyncs(self):
        # Every third header claims 2 GiB, so each resync is verified by
        # the good header after the next one.  The payload bytes (0xAB)
        # never read as a plausible header.
        records = [
            PcapRecord(1_000_000 + i * 1_000, b"\xab" * 20, original_length=20)
            for i in range(3_752)
        ]
        blob = bytearray(records_to_bytes(records))
        damaged = range(2, len(records) - 2, 3)
        for i in damaged:
            struct.pack_into("<I", blob, 24 + i * 36 + 8, 0x7FFFFFFF)
        stream = _CountingStream(bytes(blob))
        health = TraceHealth()
        obs = Observability.create()
        with use_obs(obs):
            got = read_pcap(stream, tolerant=True, health=health)
        assert got == [r for i, r in enumerate(records) if i % 3 != 2]
        assert health.by_kind() == {"bad-record-header": len(damaged)}
        assert [issue.offset for issue in health.issues] == [
            24 + i * 36 for i in damaged
        ]
        assert obs.metrics.get("pcap.resyncs").value == len(damaged)
        # No per-resync re-reads: each block of the file is read once.
        assert stream.reads <= len(blob) // READ_CHUNK + 3

    def test_timestamp_zero_flood_resyncs_each_damaged_header(self):
        # Flood records start on a whole second, so the next record's
        # ts_usec is below 3,906 and its incl_len below 256: read a byte
        # early, a header splices the damaged record's last byte into
        # its seconds field and still reads as plausible, 253 days from
        # the truth.  Each resync must land on the real header anyway.
        records = list(connection_flood(connections=1000, base_time_us=BASE_TIME_US))
        blob = bytearray(records_to_bytes(records))
        at, headers = 24, []
        for record in records:
            headers.append(at)
            at += 16 + len(record.data)
        damaged = range(2, 9_000, 3)
        for i in damaged:
            struct.pack_into("<I", blob, headers[i] + 8, 0x7FFFFFFF)
        health = TraceHealth()
        got = read_pcap(io.BytesIO(bytes(blob)), tolerant=True, health=health)
        assert health.by_kind() == {"bad-record-header": 3_000}
        assert [r[:2] for r in got] == [
            r[:2] for i, r in enumerate(records) if i not in damaged
        ]

    def test_resync_past_a_long_idle_gap(self):
        # Nothing within the resync time window follows the damaged
        # header: the first verified boundary, hours on, still wins.
        hour = 3_600_000_000
        records = [
            PcapRecord(
                1_000_000 + i * 1_000 + (i >= 3) * 5 * hour,
                b"\xab" * 20,
                original_length=20,
            )
            for i in range(6)
        ]
        blob = bytearray(records_to_bytes(records))
        struct.pack_into("<I", blob, 24 + 2 * 36 + 8, 0x7FFFFFFF)
        health = TraceHealth()
        got = read_pcap(io.BytesIO(bytes(blob)), tolerant=True, health=health)
        assert got == records[:2] + records[3:]
        assert health.by_kind() == {"bad-record-header": 1}

    def test_short_reads_read_like_a_whole_file(self, transfer_blob):
        damaged = mangle(transfer_blob, ["corrupt-record-header"], seed=5)
        for blob in (transfer_blob, damaged):
            expected_health, health = TraceHealth(), TraceHealth()
            expected = read_pcap(
                io.BytesIO(blob), tolerant=True, health=expected_health
            )
            got = read_pcap(_DribblingStream(blob), tolerant=True, health=health)
            assert len(got) > 20
            assert got == expected
            assert _ledger(health) == _ledger(expected_health)
        assert not health.ok

    def test_record_is_an_immutable_tuple(self):
        record = PcapRecord(timestamp_us=7, data=b"abc", original_length=9)
        assert record == (7, b"abc", 9)
        assert (record.captured_length, record.wire_length) == (3, 9)
        assert PcapRecord(7, b"abc").wire_length == 3
        with pytest.raises(AttributeError):
            record.timestamp_us = 8


class TestFrames:
    def make_tcp(self, **kw):
        defaults = dict(
            src_port=179, dst_port=40000, seq=1, ack=2,
            flags=tcpw.ACK, window=16384, payload=b"update",
        )
        defaults.update(kw)
        return tcpw.TcpHeader(**defaults)

    def test_build_and_parse(self):
        raw = frames.build_frame("10.1.1.1", "10.2.2.2", self.make_tcp())
        parse_frame(raw, verify_checksums=True)
        fields = frames.parse_packet(raw)
        assert fields.src_ip == "10.1.1.1"
        assert fields.dst_ip == "10.2.2.2"
        assert fields.payload == b"update"
        assert fields[:4] == ("10.1.1.1", 179, "10.2.2.2", 40000)

    def test_frame_length_matches_model(self):
        from repro.netsim.packet import tcp_wire_length

        payload = b"z" * 1400
        raw = frames.build_frame("10.1.1.1", "10.2.2.2", self.make_tcp(payload=payload))
        assert len(raw) == tcp_wire_length(len(payload))

    def test_syn_frame_carries_options(self):
        header = self.make_tcp(flags=tcpw.SYN, payload=b"", mss_option=1460)
        raw = frames.build_frame("10.1.1.1", "10.2.2.2", header)
        assert frames.parse_packet(raw).mss_option == 1460

    def test_non_ip_frame_rejected(self):
        raw = EthernetFrame(
            b"\x02" * 6, b"\x02" * 6, 0x0806, b"arp"
        ).encode()
        with pytest.raises(frames.FrameError, match="not IPv4"):
            frames.parse_packet(raw)

    def test_non_tcp_packet_rejected(self):
        udp_ip = Ipv4Header(
            src="1.1.1.1", dst="2.2.2.2", payload=b"", protocol=17
        ).encode()
        raw = EthernetFrame(
            b"\x02" * 6, b"\x02" * 6, 0x0800, udp_ip
        ).encode()
        with pytest.raises(frames.FrameError, match="not TCP"):
            frames.parse_packet(raw)

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=65535),
        st.binary(max_size=1460),
    )
    def test_tcp_fields_roundtrip_property(self, seq, ack, window, payload):
        header = self.make_tcp(seq=seq, ack=ack, window=window, payload=payload)
        raw = frames.build_frame("10.0.0.1", "10.0.0.2", header)
        parse_frame(raw, verify_checksums=True)
        fields = frames.parse_packet(raw)
        assert fields.seq == seq
        assert fields.ack == ack
        assert fields.window == window
        assert fields.payload == payload
