"""Test-only oracle: the layered frame encoder and decoder.

Before ``repro.wire.frames.decode_fields`` decoded every frame itself,
each layer codec carried a ``decode`` half (Ethernet, IPv4, TCP) and
``parse_frame`` chained them into layer objects; the single-pass
decoder fell back to that chain for anything but the common shape.
Before ``repro.wire.frames.build_frame`` packed a frame in one pass,
it chained the encode halves the same way: ``tcp_encode`` (once
``TcpHeader.encode``) with ``_tcp_checksum``, then
``Ipv4Header.encode`` and ``EthernetFrame.encode``, every checksum
summed one 16-bit word at a time by ``checksum``.  This module keeps
both paths verbatim apart from this docstring, the imports, the module
prefixes on the layer names and ``tcp_encode`` taking its header as an
argument.  It also verifies checksums, which ``decode_fields`` never
does, so tests that check a frame's checksums read it here.
``tests/analysis/test_fastpath_differential.py`` holds the single-pass
decoder to it (identical fields, identical ``FrameError`` text) and
``tests/wire/test_frame_differential.py`` holds ``build_frame`` and
``repro.wire.ip.checksum`` to it, byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.wire import ethernet, ip, tcpw
from repro.wire.ethernet import EthernetError, mac_from_ip
from repro.wire.frames import FrameError
from repro.wire.ip import IpError, bytes_to_ip, ip_to_bytes
from repro.wire.tcpw import TcpError, TcpHeader, _parse_options

ETHERNET_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
TCP_BASE_HEADER_LEN = 20
_ETHERNET_HEADER = struct.Struct("!6s6sH")
_IPV4_HEADER = struct.Struct("!BBHHHBBH4s4s")


def checksum(data: bytes | bytearray | memoryview) -> int:
    """The Internet checksum (RFC 1071) over any bytes-like ``data``.

    Odd-length input is zero-padded on the right per RFC 1071's
    "padded at the end with zero" rule; the pad is explicit (never a
    truncation) and works for memoryview/bytearray inputs too.
    """
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame to encode."""

    dst_mac: bytes
    src_mac: bytes
    ethertype: int
    payload: bytes

    def encode(self) -> bytes:
        """Serialize to wire bytes."""
        if len(self.dst_mac) != 6 or len(self.src_mac) != 6:
            raise EthernetError("MAC addresses must be 6 bytes")
        return _ETHERNET_HEADER.pack(
            self.dst_mac, self.src_mac, self.ethertype
        ) + self.payload


@dataclass(frozen=True)
class Ipv4Header:
    """An IPv4 header plus payload to encode."""

    src: str
    dst: str
    payload: bytes
    ttl: int = 64
    protocol: int = ip.PROTO_TCP
    identification: int = 0
    dscp: int = 0
    header_checksum: int = field(default=0, compare=False)

    @property
    def total_length(self) -> int:
        """Header plus payload length in bytes."""
        return IPV4_HEADER_LEN + len(self.payload)

    def encode(self) -> bytes:
        """Serialize with a freshly computed header checksum."""
        version_ihl = (4 << 4) | (IPV4_HEADER_LEN // 4)
        flags_fragment = 0x4000  # Don't Fragment, offset 0.
        header = _IPV4_HEADER.pack(
            version_ihl,
            self.dscp << 2,
            self.total_length,
            self.identification,
            flags_fragment,
            self.ttl,
            self.protocol,
            0,
            ip_to_bytes(self.src),
            ip_to_bytes(self.dst),
        )
        csum = checksum(header)
        return header[:10] + struct.pack("!H", csum) + header[12:] + self.payload


def tcp_encode(header: TcpHeader, src_ip: str, dst_ip: str) -> bytes:
    """Serialize with a checksum over the IPv4 pseudo-header."""
    options = header.options_bytes()
    data_offset = (TCP_BASE_HEADER_LEN + len(options)) // 4
    fixed = tcpw._HEADER.pack(
        header.src_port,
        header.dst_port,
        header.seq & 0xFFFFFFFF,
        header.ack & 0xFFFFFFFF,
        data_offset << 4,
        header.flags,
        header.window,
        0,
        header.urgent,
    )
    segment = fixed + options + header.payload
    csum = _tcp_checksum(src_ip, dst_ip, segment)
    return segment[:16] + struct.pack("!H", csum) + segment[18:]


def _tcp_checksum(src_ip: str, dst_ip: str, segment: bytes) -> int:
    pseudo = (
        ip_to_bytes(src_ip)
        + ip_to_bytes(dst_ip)
        + struct.pack("!BBH", 0, 6, len(segment))
    )
    return checksum(pseudo + segment)


def build_frame(
    src_ip: str,
    dst_ip: str,
    tcp_header: TcpHeader,
    identification: int = 0,
    ttl: int = 64,
) -> bytes:
    """Serialize a TCP header + payload into a complete Ethernet frame."""
    tcp_bytes = tcp_encode(tcp_header, src_ip, dst_ip)
    ip_bytes = Ipv4Header(
        src=src_ip,
        dst=dst_ip,
        payload=tcp_bytes,
        identification=identification,
        ttl=ttl,
    ).encode()
    frame = EthernetFrame(
        dst_mac=mac_from_ip(dst_ip),
        src_mac=mac_from_ip(src_ip),
        ethertype=ethernet.ETHERTYPE_IPV4,
        payload=ip_bytes,
    )
    return frame.encode()


def ethernet_decode(data: bytes) -> EthernetFrame:
    """Parse wire bytes into an :class:`EthernetFrame`."""
    if len(data) < ETHERNET_HEADER_LEN:
        raise EthernetError(f"frame too short: {len(data)} bytes")
    dst, src, ethertype = _ETHERNET_HEADER.unpack_from(data)
    return EthernetFrame(dst, src, ethertype, data[ETHERNET_HEADER_LEN:])


def ip_decode(data: bytes, verify_checksum: bool = True) -> Ipv4Header:
    """Parse wire bytes into an :class:`Ipv4Header`."""
    if len(data) < IPV4_HEADER_LEN:
        raise IpError(f"IPv4 packet too short: {len(data)} bytes")
    (
        version_ihl,
        tos,
        total_length,
        identification,
        _flags_fragment,
        ttl,
        protocol,
        header_checksum,
        src_raw,
        dst_raw,
    ) = _IPV4_HEADER.unpack_from(data)
    version = version_ihl >> 4
    ihl = (version_ihl & 0x0F) * 4
    if version != 4:
        raise IpError(f"not IPv4 (version={version})")
    if ihl < IPV4_HEADER_LEN or len(data) < ihl:
        raise IpError(f"bad IHL {ihl}")
    if total_length < ihl or total_length > len(data):
        raise IpError(
            f"total length {total_length} inconsistent with {len(data)} bytes"
        )
    if verify_checksum and checksum(data[:ihl]) != 0:
        raise IpError("IPv4 header checksum mismatch")
    return Ipv4Header(
        src=bytes_to_ip(src_raw),
        dst=bytes_to_ip(dst_raw),
        payload=data[ihl:total_length],
        ttl=ttl,
        protocol=protocol,
        identification=identification,
        dscp=tos >> 2,
        header_checksum=header_checksum,
    )


def tcp_decode(data: bytes, src_ip: str = "", dst_ip: str = "",
               verify_checksum: bool = False) -> TcpHeader:
    """Parse wire bytes into a :class:`TcpHeader`.

    Checksum verification needs the IP endpoints for the pseudo-header
    and is off by default (sniffers frequently capture segments whose
    checksums are offloaded to hardware on real systems).
    """
    if len(data) < TCP_BASE_HEADER_LEN:
        raise TcpError(f"TCP segment too short: {len(data)} bytes")
    (
        src_port,
        dst_port,
        seq,
        ack,
        offset_field,
        flags,
        window,
        checksum_value,
        urgent,
    ) = tcpw._HEADER.unpack_from(data)
    header_len = (offset_field >> 4) * 4
    if header_len < TCP_BASE_HEADER_LEN or header_len > len(data):
        raise TcpError(f"bad data offset {header_len}")
    if verify_checksum:
        if not src_ip or not dst_ip:
            raise TcpError("checksum verification requires IP endpoints")
        if _tcp_checksum(src_ip, dst_ip, data) != 0:
            raise TcpError("TCP checksum mismatch")
    mss, wscale, sack_permitted, sack_blocks = _parse_options(
        data[TCP_BASE_HEADER_LEN:header_len]
    )
    return TcpHeader(
        src_port=src_port,
        dst_port=dst_port,
        seq=seq,
        ack=ack,
        flags=flags,
        window=window,
        payload=data[header_len:],
        mss_option=mss,
        wscale_option=wscale,
        sack_permitted=sack_permitted,
        sack_blocks=sack_blocks,
        urgent=urgent,
        checksum_value=checksum_value,
    )


@dataclass(frozen=True)
class ParsedFrame:
    """A fully decoded Ethernet/IPv4/TCP frame."""

    eth: EthernetFrame
    ipv4: Ipv4Header
    tcp: TcpHeader

    @property
    def src_ip(self) -> str:
        return self.ipv4.src

    @property
    def dst_ip(self) -> str:
        return self.ipv4.dst

    @property
    def flow(self) -> tuple[str, int, str, int]:
        """The (src_ip, src_port, dst_ip, dst_port) 4-tuple."""
        return (
            self.ipv4.src,
            self.tcp.src_port,
            self.ipv4.dst,
            self.tcp.dst_port,
        )


def parse_frame(data: bytes, verify_checksums: bool = False) -> ParsedFrame:
    """Decode a captured Ethernet frame down to the TCP layer.

    Raises :class:`FrameError` for non-IPv4 or non-TCP frames so callers
    can skip them (real captures contain ARP, LLDP, ...).  Any decode
    failure on arbitrary damaged bytes — truncated headers, bad IHL,
    mangled options — also surfaces as :class:`FrameError`, never as a
    lower-level exception, so tolerant ingest can treat "one bad frame"
    uniformly.
    """
    try:
        eth = ethernet_decode(data)
        if eth.ethertype != ethernet.ETHERTYPE_IPV4:
            raise FrameError(f"not IPv4 (ethertype 0x{eth.ethertype:04x})")
        ipv4 = ip_decode(eth.payload, verify_checksum=verify_checksums)
        if ipv4.protocol != ip.PROTO_TCP:
            raise FrameError(f"not TCP (protocol {ipv4.protocol})")
        tcp = tcp_decode(
            ipv4.payload,
            src_ip=ipv4.src,
            dst_ip=ipv4.dst,
            verify_checksum=verify_checksums,
        )
    except FrameError:
        raise
    except (ValueError, IndexError, struct.error) as exc:
        raise FrameError(f"undecodable frame: {exc}") from exc
    return ParsedFrame(eth=eth, ipv4=ipv4, tcp=tcp)
