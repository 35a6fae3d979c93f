"""Tests for prefix-preserving trace anonymization."""

import io
import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.tdat import analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tools.anonymize import (
    PrefixPreservingAnonymizer,
    anonymize_pcap,
    anonymize_record,
)
from repro.wire import frames, tcpw
from repro.wire.ethernet import mac_from_ip
from repro.wire.ip import checksum
from repro.wire.pcap import PcapRecord, read_pcap, records_to_bytes
from repro.workloads.scenarios import MonitoringSetup, RouterParams

from tests.wire.crafted_frames import exotic_frames, ipv4_frame, tcp_segment
from tests.wire.frame_oracle import parse_frame

ips = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda t: ".".join(map(str, t))
)


def common_prefix_len(a: str, b: str) -> int:
    from repro.wire.ip import ip_to_bytes

    x = int.from_bytes(ip_to_bytes(a), "big")
    y = int.from_bytes(ip_to_bytes(b), "big")
    for i in range(32):
        if (x >> (31 - i)) & 1 != (y >> (31 - i)) & 1:
            return i
    return 32


class TestAnonymizer:
    def test_deterministic_per_key(self):
        a = PrefixPreservingAnonymizer(b"k1")
        b = PrefixPreservingAnonymizer(b"k1")
        assert a.anonymize_ip("10.1.2.3") == b.anonymize_ip("10.1.2.3")

    def test_different_keys_differ(self):
        a = PrefixPreservingAnonymizer(b"k1")
        b = PrefixPreservingAnonymizer(b"k2")
        assert a.anonymize_ip("10.1.2.3") != b.anonymize_ip("10.1.2.3")

    def test_identity_is_not_preserved(self):
        a = PrefixPreservingAnonymizer(b"secret")
        assert a.anonymize_ip("192.0.2.1") != "192.0.2.1"

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            PrefixPreservingAnonymizer(b"")

    @given(ips, ips)
    def test_prefix_preservation_property(self, ip_a, ip_b):
        anon = PrefixPreservingAnonymizer(b"prop-key")
        before = common_prefix_len(ip_a, ip_b)
        after = common_prefix_len(
            anon.anonymize_ip(ip_a), anon.anonymize_ip(ip_b)
        )
        assert before == after

    @given(ips)
    def test_mapping_is_injective_on_samples(self, address):
        anon = PrefixPreservingAnonymizer(b"inj-key")
        out = anon.anonymize_ip(address)
        # Full prefix preservation implies a bijection; spot-check that
        # re-anonymizing yields the cached identical result.
        assert anon.anonymize_ip(address) == out


@pytest.fixture(scope="module")
def capture():
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(3_000, random.Random(61))
    setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
    setup.start()
    sim.run(until_us=seconds(60))
    return setup.sniffer.sorted_records()


class TestPcapAnonymization:
    def test_addresses_rewritten_consistently(self, capture):
        src = io.BytesIO(records_to_bytes(capture))
        dst = io.BytesIO()
        count = anonymize_pcap(src, dst, key=b"share-key")
        assert count == len(capture)
        dst.seek(0)
        records = read_pcap(dst)
        addresses = set()
        for record in records:
            parsed = parse_frame(record.data, verify_checksums=True)
            addresses.update((parsed.src_ip, parsed.dst_ip))
        assert "10.1.0.1" not in addresses
        assert "10.255.0.1" not in addresses
        assert len(addresses) == 2  # one consistent mapping per host

    def test_timing_and_lengths_preserved(self, capture):
        src = io.BytesIO(records_to_bytes(capture))
        dst = io.BytesIO()
        anonymize_pcap(src, dst, key=b"share-key", strip_payload=True)
        dst.seek(0)
        records = read_pcap(dst)
        for before, after in zip(capture, records):
            assert before.timestamp_us == after.timestamp_us
            assert len(before.data) == len(after.data)

    def test_payload_stripping_zeroes_content(self, capture):
        anonymizer = PrefixPreservingAnonymizer(b"zero")
        data_records = [
            r for r in capture
            if frames.parse_packet(r.data).payload
        ]
        record = anonymize_record(data_records[0], anonymizer, strip_payload=True)
        parsed = parse_frame(record.data, verify_checksums=True)
        assert parsed.tcp.payload == bytes(len(parsed.tcp.payload))

    def test_analysis_survives_anonymization(self, capture):
        """Factor group ratios match on the stripped, anonymized trace."""
        original = analyze_pcap(capture)
        src = io.BytesIO(records_to_bytes(capture))
        dst = io.BytesIO()
        anonymize_pcap(src, dst, key=b"a-key", strip_payload=True)
        dst.seek(0)
        anonymized = analyze_pcap(read_pcap(dst))
        (a,) = list(original)
        (b,) = list(anonymized)
        for x, y in zip(a.factors.group_vector, b.factors.group_vector):
            assert x == pytest.approx(y, abs=0.05)
        assert (
            a.connection.profile.total_data_bytes
            == b.connection.profile.total_data_bytes
        )
        assert a.connection.profile.rtt_us == b.connection.profile.rtt_us


def _changed_offsets(before: bytes, after: bytes) -> set[int]:
    assert len(before) == len(after)
    return {i for i, (x, y) in enumerate(zip(before, after)) if x != y}


def _ip_at(data: bytes) -> int:
    """Where the IPv4 header starts: past a VLAN tag if there is one."""
    return 18 if data[12:14] == b"\x81\x00" else 14


def _assert_rewritten(before: bytes, after: bytes, anon) -> None:
    """Addresses and MACs anonymized; a whole IPv4 header verifies."""
    ip_at = _ip_at(before)
    for at, mac_at in ((ip_at + 12, 6), (ip_at + 16, 0)):
        old = frames.int_to_ip(int.from_bytes(before[at : at + 4], "big"))
        new = frames.int_to_ip(int.from_bytes(after[at : at + 4], "big"))
        assert new == anon.anonymize_ip(old) != old
        assert after[mac_at : mac_at + 6] == mac_from_ip(new)
    ihl = (after[ip_at] & 0x0F) * 4
    if ip_at + ihl <= len(after):
        assert checksum(after[ip_at : ip_at + ihl]) == 0


def _udp_checksum_ok(data: bytes) -> bool:
    ip_at = _ip_at(data)
    udp = data[ip_at + 20 :]
    pseudo = data[ip_at + 12 : ip_at + 20] + bytes([0, 17]) + udp[4:6]
    return checksum(pseudo + udp) == 0


class TestInPlaceRewrite:
    """Only addresses, MACs, checksums and a stripped payload change."""

    KEY = b"in-place"

    def _allowed(self, data: bytes, strip: bool) -> set[int]:
        """Offsets the anonymizer may change in an IPv4 frame."""
        ip_at = _ip_at(data)
        allowed = set(range(12)) | set(range(ip_at + 10, ip_at + 20))
        transport = ip_at + (data[ip_at] & 0x0F) * 4
        if data[ip_at + 9] == 6:
            allowed |= {transport + 16, transport + 17}
            if strip:
                start = transport + (data[transport + 12] >> 4) * 4
                end = min(
                    ip_at + int.from_bytes(data[ip_at + 2 : ip_at + 4], "big"),
                    len(data),
                )
                allowed |= set(range(start, end))
        elif data[ip_at + 9] == 17:
            allowed |= {transport + 6, transport + 7}
        return allowed

    @pytest.mark.parametrize("strip", [False, True])
    def test_clean_capture_changes_only_allowed_bytes(self, capture, strip):
        anon = PrefixPreservingAnonymizer(self.KEY)
        for record in capture:
            out = anonymize_record(record, anon, strip_payload=strip)
            assert out.original_length == record.original_length
            assert out.timestamp_us == record.timestamp_us
            changed = _changed_offsets(record.data, out.data)
            assert changed <= self._allowed(record.data, strip)
            _assert_rewritten(record.data, out.data, anon)
            parse_frame(out.data, verify_checksums=True)

    @pytest.mark.parametrize("strip", [False, True])
    @pytest.mark.parametrize("shape", sorted(exotic_frames()))
    def test_exotic_frames_keep_every_other_bit(self, shape, strip):
        """TOS/ECN, a cleared DF flag, TCP timestamps, IP options and a
        VLAN tag survive; UDP is anonymized too; the frame keeps its
        length and its checksums verify."""
        data = exotic_frames()[shape]
        record = PcapRecord(timestamp_us=5, data=data, original_length=len(data))
        anon = PrefixPreservingAnonymizer(self.KEY)
        out = anonymize_record(record, anon, strip_payload=strip).data
        assert _changed_offsets(data, out) <= self._allowed(data, strip)
        _assert_rewritten(data, out, anon)
        if shape == "udp":
            assert _udp_checksum_ok(out)
            assert out[-3:] == b"ntp"
        elif shape == "vlan":
            untagged = out[:12] + out[16:]
            parsed = parse_frame(untagged, verify_checksums=True)
            assert (parsed.tcp.payload == bytes(19)) == strip
        else:
            parsed = parse_frame(out, verify_checksums=True)
            assert (parsed.tcp.payload == bytes(19)) == strip

    def test_snaplen_truncated_frame_is_anonymized(self):
        header = tcpw.TcpHeader(
            src_port=179, dst_port=40000, seq=1, ack=1, flags=tcpw.ACK,
            window=16384, payload=b"\x55" * 1000,
        )
        full = frames.build_frame("10.0.0.1", "10.0.0.2", header)
        anon = PrefixPreservingAnonymizer(self.KEY)
        for snaplen, strip in itertools.product((96, 55), (False, True)):
            record = PcapRecord(timestamp_us=1, data=full[:snaplen],
                                original_length=len(full))
            out = anonymize_record(record, anon, strip_payload=strip)
            assert len(out.data) == snaplen
            assert out.original_length == len(full)
            _assert_rewritten(record.data, out.data, anon)
            assert _changed_offsets(record.data, out.data) <= self._allowed(
                record.data, strip
            )
            assert (out.data[54:] == bytes(snaplen - 54)) == strip

    def test_header_cut_inside_ip_options_is_anonymized(self):
        """The checksum is patched, not summed, and matches the whole
        frame's recomputed one."""
        whole = exotic_frames()["ip-options"]
        data = whole[:36]
        record = PcapRecord(timestamp_us=1, data=data, original_length=len(whole))
        anon = PrefixPreservingAnonymizer(self.KEY)
        out = anonymize_record(record, anon).data
        _assert_rewritten(data, out, anon)
        assert _changed_offsets(data, out) <= set(range(12)) | set(range(24, 34))
        full = anonymize_record(PcapRecord(timestamp_us=1, data=whole), anon)
        assert out == full.data[:36]

    def test_later_fragment_keeps_its_payload(self):
        """A fragment past offset 0 carries no transport header to patch."""
        tcp = tcp_segment("10.0.0.1", "10.0.0.2", b"\x11" * 40)
        data = ipv4_frame("10.0.0.1", "10.0.0.2", tcp, flags_fragment=0x2001)
        anon = PrefixPreservingAnonymizer(self.KEY)
        out = anonymize_record(PcapRecord(timestamp_us=1, data=data), anon,
                               strip_payload=True).data
        _assert_rewritten(data, out, anon)
        assert _changed_offsets(data, out) <= set(range(12)) | set(range(24, 34))

    def test_frames_without_ipv4_pass_through(self):
        arp = mac_from_ip("10.0.0.2") + mac_from_ip("10.0.0.1") + b"\x08\x06"
        for data in (arp + bytes(28), b"\x01" * 20, b""):
            record = PcapRecord(timestamp_us=1, data=data)
            anon = PrefixPreservingAnonymizer(self.KEY)
            assert anonymize_record(record, anon, strip_payload=True) is record
