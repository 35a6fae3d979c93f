"""Unit tests for the Ethernet, IPv4 and TCP layer codecs.

The layer encoders and decoders live in the test oracle
(``tests.wire.frame_oracle``); ``repro.wire`` keeps the address
helpers, the checksum and ``mac_from_ip`` tested here beside them.
"""

import pytest

from repro.wire import ethernet, ip, tcpw

from tests.wire.frame_oracle import (
    EthernetFrame,
    Ipv4Header,
    ethernet_decode,
    ip_decode,
    tcp_decode,
    tcp_encode,
)


class TestEthernet:
    def test_roundtrip(self):
        frame = EthernetFrame(
            dst_mac=b"\x02\x00\x0a\x00\x00\x02",
            src_mac=b"\x02\x00\x0a\x00\x00\x01",
            ethertype=ethernet.ETHERTYPE_IPV4,
            payload=b"hello",
        )
        decoded = ethernet_decode(frame.encode())
        assert decoded == frame

    def test_short_frame_rejected(self):
        with pytest.raises(ethernet.EthernetError):
            ethernet_decode(b"short")

    def test_bad_mac_rejected(self):
        frame = EthernetFrame(b"\x02", b"\x02", 0x0800, b"")
        with pytest.raises(ethernet.EthernetError):
            frame.encode()

    def test_mac_from_ip_deterministic(self):
        assert ethernet.mac_from_ip("10.0.0.1") == ethernet.mac_from_ip("10.0.0.1")
        assert ethernet.mac_from_ip("10.0.0.1") != ethernet.mac_from_ip("10.0.0.2")

    def test_mac_from_bad_ip(self):
        with pytest.raises(ethernet.EthernetError):
            ethernet.mac_from_ip("300.0.0.1")


class TestIpv4:
    def test_roundtrip(self):
        header = Ipv4Header(
            src="192.0.2.1", dst="198.51.100.7", payload=b"payload", ttl=63,
            identification=4242,
        )
        decoded = ip_decode(header.encode())
        assert decoded.src == "192.0.2.1"
        assert decoded.dst == "198.51.100.7"
        assert decoded.payload == b"payload"
        assert decoded.ttl == 63
        assert decoded.identification == 4242

    def test_checksum_verified(self):
        raw = bytearray(Ipv4Header(src="1.2.3.4", dst="5.6.7.8", payload=b"").encode())
        raw[8] ^= 0xFF  # corrupt TTL
        with pytest.raises(ip.IpError):
            ip_decode(bytes(raw))
        # But tolerated when verification is off.
        decoded = ip_decode(bytes(raw), verify_checksum=False)
        assert decoded.src == "1.2.3.4"

    def test_total_length_guard(self):
        raw = Ipv4Header(src="1.2.3.4", dst="5.6.7.8", payload=b"abcd").encode()
        with pytest.raises(ip.IpError):
            ip_decode(raw[:-1])  # truncated payload

    def test_extra_capture_bytes_trimmed(self):
        raw = Ipv4Header(src="1.2.3.4", dst="5.6.7.8", payload=b"abcd").encode()
        decoded = ip_decode(raw + b"\x00\x00")  # ethernet padding
        assert decoded.payload == b"abcd"

    def test_not_ipv4(self):
        raw = bytearray(Ipv4Header(src="1.2.3.4", dst="5.6.7.8", payload=b"").encode())
        raw[0] = 0x65  # version 6
        with pytest.raises(ip.IpError):
            ip_decode(bytes(raw), verify_checksum=False)

    def test_ip_string_conversion(self):
        assert ip.bytes_to_ip(ip.ip_to_bytes("203.0.113.9")) == "203.0.113.9"
        with pytest.raises(ip.IpError):
            ip.ip_to_bytes("1.2.3")
        with pytest.raises(ip.IpError):
            ip.ip_to_bytes("1.2.3.999")
        with pytest.raises(ip.IpError):
            ip.ip_to_bytes("a.b.c.d")

    def test_ip_to_bytes_caches_only_parsed_addresses(self):
        assert ip.ip_to_bytes("198.51.100.7") is ip.ip_to_bytes("198.51.100.7")
        for _ in range(3):
            with pytest.raises(ip.IpError):
                ip.ip_to_bytes("198.51.100.700")
        assert "198.51.100.700" not in ip._IP_BYTES_CACHE

    def test_ip_to_bytes_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(ip, "_IP_BYTES_CACHE", {})
        monkeypatch.setattr(ip, "_IP_CACHE_LIMIT", 4)
        addresses = [f"192.0.2.{i}" for i in range(10)]
        for address in addresses:
            assert ip.ip_to_bytes(address) == bytes([192, 0, 2, int(address[8:])])
            assert len(ip._IP_BYTES_CACHE) <= 4
        assert ip.ip_to_bytes(addresses[0]) == b"\xc0\x00\x02\x00"

    def test_checksum_rfc1071(self):
        # Known vector: checksum of this data equals 0xddf2 (RFC 1071 example).
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert ip.checksum(data) == 0x220D

    def test_checksum_odd_length_zero_pads(self):
        # RFC 1071: odd-length data is padded with a zero byte on the
        # right, i.e. the final byte occupies the high half of the last
        # 16-bit word.
        assert ip.checksum(b"\xab") == 0xFFFF - 0xAB00
        assert ip.checksum(b"\x00\x01\xf2") == ip.checksum(b"\x00\x01\xf2\x00")

    def test_checksum_accepts_buffer_types(self):
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        for odd in (data, data + b"\xab"):
            expected = ip.checksum(odd)
            assert ip.checksum(bytearray(odd)) == expected
            assert ip.checksum(memoryview(odd)) == expected
            # Non-zero-offset view: must not fall back to the start of
            # the underlying buffer when padding.
            padded = b"\xff\xff" + odd
            assert ip.checksum(memoryview(padded)[2:]) == expected


class TestTcp:
    def make(self, **kw):
        defaults = dict(
            src_port=179, dst_port=52000, seq=1000, ack=2000,
            flags=tcpw.ACK | tcpw.PSH, window=65000, payload=b"bgpdata",
        )
        defaults.update(kw)
        return tcpw.TcpHeader(**defaults)

    def test_roundtrip(self):
        header = self.make()
        decoded = tcp_decode(tcp_encode(header, "10.0.0.1", "10.0.0.2"))
        assert decoded.src_port == 179
        assert decoded.dst_port == 52000
        assert decoded.seq == 1000
        assert decoded.ack == 2000
        assert decoded.window == 65000
        assert decoded.payload == b"bgpdata"
        assert decoded.is_ack and not decoded.is_syn

    def test_options_roundtrip(self):
        header = self.make(flags=tcpw.SYN, mss_option=1460, wscale_option=2, payload=b"")
        decoded = tcp_decode(tcp_encode(header, "10.0.0.1", "10.0.0.2"))
        assert decoded.mss_option == 1460
        assert decoded.wscale_option == 2
        assert decoded.is_syn

    def test_checksum_verification(self):
        raw = bytearray(tcp_encode(self.make(), "10.0.0.1", "10.0.0.2"))
        raw[4] ^= 0x01  # corrupt seq
        with pytest.raises(tcpw.TcpError):
            tcp_decode(bytes(raw), "10.0.0.1", "10.0.0.2", verify_checksum=True)
        ok = tcp_encode(self.make(), "10.0.0.1", "10.0.0.2")
        decoded = tcp_decode(ok, "10.0.0.1", "10.0.0.2", verify_checksum=True)
        assert decoded.payload == b"bgpdata"

    def test_checksum_requires_ips(self):
        raw = tcp_encode(self.make(), "10.0.0.1", "10.0.0.2")
        with pytest.raises(tcpw.TcpError):
            tcp_decode(raw, verify_checksum=True)

    def test_short_segment_rejected(self):
        with pytest.raises(tcpw.TcpError):
            tcp_decode(b"\x00" * 10)

    def test_bad_data_offset(self):
        raw = bytearray(tcp_encode(self.make(payload=b""), "10.0.0.1", "10.0.0.2"))
        raw[12] = 0x20  # offset 8 words = 32 bytes > segment
        with pytest.raises(tcpw.TcpError):
            tcp_decode(bytes(raw))

    def test_seq_wraps_modulo_2_32(self):
        header = self.make(seq=2**32 + 5)
        decoded = tcp_decode(tcp_encode(header, "10.0.0.1", "10.0.0.2"))
        assert decoded.seq == 5

    def test_flag_helpers(self):
        assert self.make(flags=tcpw.SYN | tcpw.ACK).is_syn
        assert self.make(flags=tcpw.FIN).is_fin
        assert self.make(flags=tcpw.RST).is_rst
