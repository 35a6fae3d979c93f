"""Test-only oracle: the layered frame decoder.

Before ``repro.wire.frames.decode_fields`` decoded every frame itself,
each layer codec carried a ``decode`` half (Ethernet, IPv4, TCP) and
``parse_frame`` chained them into layer objects; the single-pass
decoder fell back to that chain for anything but the common shape.
This module keeps that path verbatim apart from this docstring, the
imports and the module prefixes on the layer names: ``parse_frame``
and ``ParsedFrame``, plus ``ethernet_decode``, ``ip_decode`` and
``tcp_decode``.  It also verifies checksums, which ``decode_fields``
never does, so tests that check a frame's checksums read it here.
``tests/analysis/test_fastpath_differential.py`` holds the
single-pass decoder to it: identical fields, identical
``FrameError`` text.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.wire import ethernet, ip, tcpw
from repro.wire.ethernet import EthernetError, EthernetFrame
from repro.wire.frames import FrameError
from repro.wire.ip import IpError, Ipv4Header, bytes_to_ip, checksum
from repro.wire.tcpw import TcpError, TcpHeader, _parse_options, _tcp_checksum


def ethernet_decode(data: bytes) -> EthernetFrame:
    """Parse wire bytes into an :class:`EthernetFrame`."""
    if len(data) < ethernet.HEADER_LEN:
        raise EthernetError(f"frame too short: {len(data)} bytes")
    dst, src, ethertype = ethernet._HEADER.unpack_from(data)
    return EthernetFrame(dst, src, ethertype, data[ethernet.HEADER_LEN:])


def ip_decode(data: bytes, verify_checksum: bool = True) -> Ipv4Header:
    """Parse wire bytes into an :class:`Ipv4Header`."""
    if len(data) < ip.HEADER_LEN:
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
    ) = ip._HEADER.unpack_from(data)
    version = version_ihl >> 4
    ihl = (version_ihl & 0x0F) * 4
    if version != 4:
        raise IpError(f"not IPv4 (version={version})")
    if ihl < ip.HEADER_LEN or len(data) < ihl:
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
    if len(data) < tcpw.BASE_HEADER_LEN:
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
    if header_len < tcpw.BASE_HEADER_LEN or header_len > len(data):
        raise TcpError(f"bad data offset {header_len}")
    if verify_checksum:
        if not src_ip or not dst_ip:
            raise TcpError("checksum verification requires IP endpoints")
        if _tcp_checksum(src_ip, dst_ip, data) != 0:
            raise TcpError("TCP checksum mismatch")
    mss, wscale, sack_permitted, sack_blocks = _parse_options(
        data[tcpw.BASE_HEADER_LEN:header_len]
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
