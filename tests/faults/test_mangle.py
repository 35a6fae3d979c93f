"""Tests for the seeded pcap mangler: determinism and operator behavior."""

import struct

from repro.bgp.header import MARKER
from repro.faults.mangle import (
    OPERATORS,
    mangle,
    random_plan,
    split_pcap,
)
from repro.wire.pcap import (
    GLOBAL_HEADER,
    RECORD_HEADER,
    PcapRecord,
    records_to_bytes,
)

import random


def make_blob(count: int = 12) -> bytes:
    """A small clean pcap whose payloads contain BGP markers."""
    records = []
    for i in range(count):
        payload = (
            bytes(range(40))  # stand-in for eth/ip/tcp headers
            + MARKER
            + struct.pack("!HB", 19, 4)  # KEEPALIVE framing
            + bytes([i]) * 20
        )
        records.append(PcapRecord(timestamp_us=1_000_000 + i * 250, data=payload))
    return records_to_bytes(records)


class TestSplitPcap:
    def test_join_is_identity(self):
        blob = make_blob()
        split = split_pcap(blob)
        assert split.join() == blob
        assert len(split.records) == 12
        assert split.trailer == b""

    def test_short_blob_all_trailer(self):
        split = split_pcap(b"tiny")
        assert split.header == b""
        assert split.records == []
        assert split.join() == b"tiny"

    def test_overrunning_record_becomes_trailer(self):
        blob = make_blob(2)
        cut = blob[: len(blob) - 5]
        split = split_pcap(cut)
        assert len(split.records) == 1
        assert split.join() == cut


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        blob = make_blob()
        plan = sorted(OPERATORS)
        assert mangle(blob, plan, seed=41) == mangle(blob, plan, seed=41)

    def test_different_seed_different_bytes(self):
        blob = make_blob()
        plan = ["corrupt-payload", "drop-records"]
        outputs = {mangle(blob, plan, seed=s) for s in range(8)}
        assert len(outputs) > 1

    def test_random_plan_is_deterministic(self):
        assert random_plan(random.Random(3)) == random_plan(random.Random(3))
        plans = {tuple(random_plan(random.Random(s))) for s in range(20)}
        assert len(plans) > 1
        for plan in plans:
            assert all(name in OPERATORS for name in plan)

    def test_every_operator_alone_is_deterministic(self):
        blob = make_blob()
        for name in OPERATORS:
            assert mangle(blob, [name], seed=9) == mangle(blob, [name], seed=9)


class TestOperators:
    def test_truncate_shortens(self):
        blob = make_blob()
        out = mangle(blob, ["truncate"], seed=1)
        assert len(out) < len(blob)
        assert out == blob[: len(out)]

    def test_drop_records_removes_some(self):
        blob = make_blob()
        out = mangle(blob, ["drop-records"], seed=1)
        assert len(split_pcap(out).records) < 12

    def test_duplicate_records_repeats_some(self):
        blob = make_blob(40)
        out = mangle(blob, ["duplicate-records"], seed=1)
        assert len(split_pcap(out).records) > 40

    def test_reorder_preserves_multiset(self):
        blob = make_blob()
        out = mangle(blob, ["reorder-records"], seed=1)
        assert out != blob
        assert sorted(split_pcap(out).records) == sorted(split_pcap(blob).records)

    def test_regress_timestamps_moves_backwards(self):
        blob = make_blob()
        out = mangle(blob, ["regress-timestamps"], seed=1)

        def stamps(data):
            return [
                struct.unpack_from("<I", r, 0)[0]
                for r in split_pcap(data).records
            ]

        before, after = stamps(blob), stamps(out)
        assert len(before) == len(after)
        assert any(a < b for a, b in zip(after, before))
        assert all(a <= b for a, b in zip(after, before))

    def test_slice_frames_keeps_wire_length_honest(self):
        blob = make_blob()
        out = mangle(blob, ["slice-frames"], seed=1)
        sliced = 0
        for record in split_pcap(out).records:
            _, _, incl_len, orig_len = struct.unpack_from("<IIII", record, 0)
            assert len(record) == RECORD_HEADER.size + incl_len
            assert orig_len >= incl_len
            if incl_len < orig_len:
                sliced += 1
        assert sliced > 0

    def test_flip_bgp_touches_only_payload(self):
        blob = make_blob()
        out = mangle(blob, ["flip-bgp"], seed=1)
        assert out != blob
        assert len(out) == len(blob)
        # Global and record headers are untouched: damage is in-stream.
        assert out[: GLOBAL_HEADER.size] == blob[: GLOBAL_HEADER.size]
        for before, after in zip(split_pcap(blob).records, split_pcap(out).records):
            assert before[: RECORD_HEADER.size] == after[: RECORD_HEADER.size]

    def test_corrupt_record_header_changes_header_bytes(self):
        blob = make_blob()
        out = mangle(blob, ["corrupt-record-header"], seed=2)
        assert out != blob
        assert len(out) == len(blob)

    def test_operators_tolerate_garbage_input(self):
        # Operators must compose in any order, even over already-ruined
        # bytes: none may raise on structurally hopeless input.
        for garbage in (b"", b"\x00" * 10, b"\xff" * 100, make_blob()[:20]):
            for name in OPERATORS:
                mangle(garbage, [name], seed=5)

    def test_full_stack_composition(self):
        blob = make_blob(30)
        out = mangle(blob, sorted(OPERATORS), seed=11)
        assert isinstance(out, bytes)
