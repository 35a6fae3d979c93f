"""Tests for TABLE_DUMP_V2 RIB snapshots."""

import io
import random
import struct

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.mrt import MrtError, RibSnapshot, read_rib_snapshot
from repro.bgp.table import generate_table
from repro.core.units import seconds


def make_snapshot(size=50, ts=seconds(1_300_000_000)):
    table = generate_table(size, random.Random(81))
    return RibSnapshot(
        timestamp_us=ts,
        collector_id="10.255.0.1",
        peer_as=65001,
        peer_ip="10.1.0.1",
        entries=tuple((r.prefix, r.attributes) for r in table),
    ), table


class TestRibSnapshotCodec:
    def test_roundtrip(self):
        snapshot, table = make_snapshot()
        decoded = read_rib_snapshot(io.BytesIO(snapshot.encode()))
        assert decoded.collector_id == "10.255.0.1"
        assert decoded.peer_as == 65001
        assert decoded.peer_ip == "10.1.0.1"
        assert len(decoded.entries) == len(table)
        assert set(str(p) for p, _ in decoded.entries) == set(
            str(route.prefix) for route in table
        )

    def test_attributes_preserved(self):
        snapshot, table = make_snapshot(size=20)
        decoded = read_rib_snapshot(io.BytesIO(snapshot.encode()))
        originals = {str(r.prefix): r.attributes for r in table}
        for prefix, attributes in decoded.entries:
            assert originals[str(prefix)] == attributes

    def test_empty_snapshot(self):
        snapshot = RibSnapshot(
            timestamp_us=0, collector_id="1.1.1.1", peer_as=1,
            peer_ip="2.2.2.2", entries=(),
        )
        decoded = read_rib_snapshot(io.BytesIO(snapshot.encode()))
        assert decoded.entries == ()

    def test_second_granularity_timestamp(self):
        snapshot, _ = make_snapshot(size=2, ts=seconds(100) + 123)
        decoded = read_rib_snapshot(io.BytesIO(snapshot.encode()))
        assert decoded.timestamp_us == seconds(100)  # truncated to seconds

    def test_garbage_rejected(self):
        with pytest.raises(MrtError):
            read_rib_snapshot(io.BytesIO(b"\x00" * 40))

    def test_truncated_peer_index_rejected(self):
        data = make_snapshot(size=0)[0].encode()
        index = data[12:]
        for length in range(len(index)):
            header = struct.pack("!IHHI", 0, 13, 1, length)
            with pytest.raises(MrtError, match="truncated PEER_INDEX_TABLE"):
                read_rib_snapshot(io.BytesIO(header + index[:length]))


def with_rib_record(body: bytes) -> bytes:
    """A one-entry snapshot followed by a RIB record holding ``body``."""
    index_only, _ = make_snapshot(size=0)
    header = struct.pack("!IHHI", 0, 13, 2, len(body))  # TABLE_DUMP_V2 RIB
    return index_only.encode() + header + body


class TestRibRecordErrors:
    @pytest.mark.parametrize(
        "body, message",
        [
            # prefix length 33: five address bytes would follow
            (b"\x00\x00\x00\x00\x21" + bytes(5 + 10), "bad prefix length 33"),
            # a /24 with two of its three address bytes
            (b"\x00\x00\x00\x00\x18\x0a\x00", "truncated prefix"),
            (b"\x00\x00\x00", "truncated RIB entry"),
            # a whole /8, then the entry header cut short
            (b"\x00\x00\x00\x00\x08\x0a\x00\x01\x00", "truncated RIB entry"),
        ],
    )
    def test_malformed_entry_raises_mrt_error(self, body, message):
        with pytest.raises(MrtError, match=message):
            read_rib_snapshot(io.BytesIO(with_rib_record(body)))

    def test_malformed_attributes_raise_mrt_error(self):
        # A 3-route snapshot whose first ORIGIN claims a 2-byte value.
        data = bytearray(make_snapshot(size=3)[0].encode())
        (index_length,) = struct.unpack_from("!I", data, 8)
        body = 12 + index_length + 12  # the first RIB record's body
        attrs = body + 5 + (data[body + 4] + 7) // 8 + 2 + 8
        assert data[attrs + 1] == 1  # ORIGIN
        data[attrs + 2] = 2
        with pytest.raises(MrtError, match="ORIGIN must be 1 byte"):
            read_rib_snapshot(io.BytesIO(bytes(data)))

    def test_well_formed_record_reads(self):
        attrs = PathAttributes.from_path([65001], "10.1.0.1").encode()
        body = (
            b"\x00\x00\x00\x00\x08\x0a" + struct.pack("!H", 1)
            + struct.pack("!HIH", 0, 0, len(attrs)) + attrs
        )
        snapshot = read_rib_snapshot(io.BytesIO(with_rib_record(body)))
        assert [(str(p), a.path_asns()) for p, a in snapshot.entries] == [
            ("10.0.0.0/8", (65001,))
        ]


class TestCollectorSnapshot:
    def test_collector_writes_its_rib(self, tmp_path):
        from repro.netsim.simulator import Simulator
        from repro.workloads.scenarios import MonitoringSetup, RouterParams

        sim = Simulator()
        setup = MonitoringSetup(sim)
        table = generate_table(500, random.Random(82))
        setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
        setup.start()
        sim.run(until_us=seconds(60))
        path = tmp_path / "rib.dump"
        count = setup.collector.write_rib_snapshot(
            path, peer_as=65001, peer_ip="10.1.0.1"
        )
        assert count == len(table)
        decoded = read_rib_snapshot(path)
        assert len(decoded.entries) == len(table)
        assert decoded.peer_ip == "10.1.0.1"
