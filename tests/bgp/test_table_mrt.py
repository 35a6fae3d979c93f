"""Unit tests for the RIB, table generator and MRT codec."""

import io
import random

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import (
    KeepaliveMessage,
    Prefix,
    UpdateMessage,
    decode_message,
    encode_message,
)
from repro.bgp.mrt import MrtRecord, read_mrt, write_mrt
from repro.bgp.table import Rib, Route, generate_table


class TestRib:
    def route(self, cidr, path=(65001,)):
        return Route(Prefix.parse(cidr), PathAttributes.from_path(list(path), "10.0.0.1"))

    def test_add_lookup_len(self):
        rib = Rib([self.route("10.0.0.0/8"), self.route("192.0.2.0/24")])
        assert len(rib) == 2
        assert rib.lookup(Prefix("10.0.0.0", 8)) is not None
        assert Prefix("10.0.0.0", 8) in rib

    def test_replace_same_prefix(self):
        rib = Rib()
        rib.add(self.route("10.0.0.0/8", path=(1,)))
        rib.add(self.route("10.0.0.0/8", path=(2,)))
        assert len(rib) == 1
        assert rib.lookup(Prefix("10.0.0.0", 8)).attributes.path_asns() == (2,)

    def test_withdraw(self):
        rib = Rib([self.route("10.0.0.0/8")])
        removed = rib.withdraw(Prefix("10.0.0.0", 8))
        assert removed is not None
        assert len(rib) == 0
        assert rib.withdraw(Prefix("10.0.0.0", 8)) is None

    def test_to_updates_groups_by_attributes(self):
        shared = PathAttributes.from_path([1, 2], "10.0.0.1")
        other = PathAttributes.from_path([3], "10.0.0.1")
        rib = Rib(
            [
                Route(Prefix("10.1.0.0", 16), shared),
                Route(Prefix("10.2.0.0", 16), shared),
                Route(Prefix("10.3.0.0", 16), other),
            ]
        )
        updates = rib.to_updates()
        assert len(updates) == 2
        sizes = sorted(len(u.announced) for u in updates)
        assert sizes == [1, 2]

    def test_to_updates_groups_equal_attribute_objects_in_order(self):
        # Equal values held by distinct objects share an UPDATE, groups
        # follow first insertion and prefixes keep their order inside.
        a1 = PathAttributes.from_path([1, 2], "10.0.0.1")
        a2 = PathAttributes.from_path([1, 2], "10.0.0.1")
        b = PathAttributes.from_path([3], "10.0.0.1")
        assert a1 == a2 and a1 is not a2
        cidrs = ["10.1.0.0/16", "10.9.0.0/16", "10.2.0.0/16", "10.3.0.0/16"]
        rib = Rib([
            Route(Prefix.parse(cidr), attributes)
            for cidr, attributes in zip(cidrs, (b, a1, a2, b))
        ])
        updates = rib.to_updates()
        assert [u.attributes for u in updates] == [b, a1]
        assert [[str(p) for p in u.announced] for u in updates] == [
            ["10.1.0.0/16", "10.3.0.0/16"], ["10.9.0.0/16", "10.2.0.0/16"],
        ]

    @pytest.mark.parametrize("max_len", [4096, 1000, 300, 60, 40, 1])
    def test_to_updates_packs_like_the_one_at_a_time_walk(self, max_len):
        rib = generate_table(3000, random.Random(12), attribute_groups=7)

        def greedy(prefixes, attributes):
            base_len = 19 + 4 + len(attributes.encode())
            runs, current, used = [], [], base_len
            for prefix in prefixes:
                nlri_len = len(prefix.encode())
                if used + nlri_len > max_len and current:
                    runs.append(current)
                    current, used = [], base_len
                current.append(prefix)
                used += nlri_len
            return runs + [current] if current else runs

        groups = {}
        for route in rib:
            groups.setdefault(route.attributes, []).append(route.prefix)
        expected = [
            (tuple(run), attributes)
            for attributes, prefixes in groups.items()
            for run in greedy(prefixes, attributes)
        ]
        updates = rib.to_updates(max_message_len=max_len)
        assert [(u.announced, u.attributes) for u in updates] == expected

    def test_announce_files_all_prefixes_of_an_update(self):
        old = PathAttributes.from_path([1], "10.0.0.1")
        new = PathAttributes.from_path([2], "10.0.0.1")
        rib = Rib([Route(Prefix("10.2.0.0", 16), old)])
        prefixes = (Prefix("10.1.0.0", 16), Prefix("10.2.0.0", 16))
        rib.announce(prefixes, new)
        assert len(rib) == 2
        # A replaced prefix keeps its place; a new one goes last.
        assert [route.prefix for route in rib] == [prefixes[1], prefixes[0]]
        assert list(rib) == [Route(prefixes[1], new), Route(prefixes[0], new)]

    def test_to_updates_respects_message_limit(self):
        shared = PathAttributes.from_path([1], "10.0.0.1")
        rib = Rib(
            [
                Route(Prefix(f"10.{i // 256}.{i % 256}.0", 24), shared)
                for i in range(2000)
            ]
        )
        updates = rib.to_updates()
        assert len(updates) > 1
        for update in updates:
            assert len(encode_message(update)) <= 4096
        total = sum(len(u.announced) for u in updates)
        assert total == 2000

    def test_updates_reconstruct_table(self):
        rng = random.Random(3)
        rib = generate_table(500, rng)
        rebuilt = Rib()
        for update in rib.to_updates():
            for prefix in update.announced:
                rebuilt.add(Route(prefix, update.attributes))
        assert len(rebuilt) == 500
        assert sorted(str(route.prefix) for route in rebuilt) == sorted(
            str(route.prefix) for route in rib
        )

    def test_wire_size_positive(self):
        rib = generate_table(100, random.Random(1))
        assert rib.wire_size() > 100 * 4


class TestGenerateTable:
    def test_exact_size_and_uniqueness(self):
        rib = generate_table(1000, random.Random(42))
        assert len(rib) == 1000
        assert len({str(route.prefix) for route in rib}) == 1000

    def test_deterministic_for_seed(self):
        a = generate_table(200, random.Random(5))
        b = generate_table(200, random.Random(5))
        assert [str(route.prefix) for route in a] == [
            str(route.prefix) for route in b
        ]

    def test_prefix_length_distribution(self):
        rib = generate_table(2000, random.Random(9))
        lengths = [route.prefix.length for route in rib]
        frac_24 = sum(1 for l in lengths if l == 24) / len(lengths)
        assert 0.4 < frac_24 < 0.7  # /24 dominates the real table
        assert all(8 <= l <= 24 for l in lengths)

    def test_attribute_sharing(self):
        rib = generate_table(1200, random.Random(4))
        distinct = {route.attributes for route in rib}
        assert len(distinct) <= 1200 // 10

    def test_realistic_wire_size(self):
        # The paper: ~5-8 MB for ~300K prefixes (~20 B/prefix with
        # headers amortized). Scaled: 3K prefixes -> roughly 12-60 KB.
        rib = generate_table(3000, random.Random(8))
        assert 10_000 < rib.wire_size() < 60_000

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            generate_table(-1, random.Random(0))

    def test_empty_table(self):
        rib = generate_table(0, random.Random(0))
        assert len(rib) == 0
        assert rib.to_updates() == []


class TestMrt:
    def records(self):
        update = UpdateMessage(
            announced=(Prefix("10.0.0.0", 8),),
            attributes=PathAttributes.from_path([65001], "10.0.0.1"),
        )
        return [
            MrtRecord(
                timestamp_us=1_300_000_000_500_000,
                peer_as=65001,
                local_as=65000,
                peer_ip="10.0.0.1",
                local_ip="10.0.0.2",
                message=update,
            ),
            MrtRecord(
                timestamp_us=1_300_000_001_000_000,  # whole second
                peer_as=65001,
                local_as=65000,
                peer_ip="10.0.0.1",
                local_ip="10.0.0.2",
                message=KeepaliveMessage(),
            ),
        ]

    def test_roundtrip_memory(self):
        buffer = io.BytesIO()
        write_mrt(buffer, self.records())
        buffer.seek(0)
        got = list(read_mrt(buffer))
        assert got == self.records()

    def test_roundtrip_file(self, tmp_path):
        path = tmp_path / "updates.mrt"
        write_mrt(path, self.records())
        got = list(read_mrt(path))
        assert got == self.records()

    def test_microsecond_precision_preserved(self):
        buffer = io.BytesIO()
        write_mrt(buffer, self.records()[:1])
        buffer.seek(0)
        (got,) = read_mrt(buffer)
        assert got.timestamp_us == 1_300_000_000_500_000

    def test_malformed_message_raises_mrt_error(self):
        buffer = io.BytesIO()
        write_mrt(buffer, self.records()[:1])
        data = bytearray(buffer.getvalue())
        assert data[-2:] == b"\x08\x0a"  # the NLRI 10.0.0.0/8
        data[-2] = 40
        from repro.bgp.mrt import MrtError

        with pytest.raises(MrtError, match="bad prefix length 40"):
            list(read_mrt(io.BytesIO(bytes(data))))

    def test_truncated_record_raises(self):
        buffer = io.BytesIO()
        write_mrt(buffer, self.records())
        data = buffer.getvalue()
        from repro.bgp.mrt import MrtError

        with pytest.raises(MrtError):
            list(read_mrt(io.BytesIO(data[:-3])))
