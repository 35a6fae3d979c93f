"""Full-frame composition: TCP header -> IPv4 -> Ethernet and back.

The sniffer serializes simulated segments through :func:`build_frame`
so captures contain genuine protocol bytes; the analyzer's front end
recovers them with :func:`parse_frame`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro.wire import ethernet, ip, tcpw


class FrameError(ValueError):
    """Raised when a captured frame is not an IPv4/TCP frame."""


class PacketFields(NamedTuple):
    """The analyzer-facing fields of one Ethernet/IPv4/TCP frame.

    :func:`parse_packet` renders these from :func:`decode_fields`
    without materializing the per-layer dataclasses or verifying
    checksums; the field values are identical to what
    :func:`parse_frame` exposes through ``ParsedFrame``.
    """

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    ip_id: int
    payload: bytes
    mss_option: int | None
    wscale_option: int | None


@dataclass(frozen=True)
class ParsedFrame:
    """A fully decoded Ethernet/IPv4/TCP frame."""

    eth: ethernet.EthernetFrame
    ipv4: ip.Ipv4Header
    tcp: tcpw.TcpHeader

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


def build_frame(
    src_ip: str,
    dst_ip: str,
    tcp_header: tcpw.TcpHeader,
    identification: int = 0,
    ttl: int = 64,
) -> bytes:
    """Serialize a TCP header + payload into a complete Ethernet frame."""
    tcp_bytes = tcp_header.encode(src_ip, dst_ip)
    ip_bytes = ip.Ipv4Header(
        src=src_ip,
        dst=dst_ip,
        payload=tcp_bytes,
        identification=identification,
        ttl=ttl,
    ).encode()
    frame = ethernet.EthernetFrame(
        dst_mac=ethernet.mac_from_ip(dst_ip),
        src_mac=ethernet.mac_from_ip(src_ip),
        ethertype=ethernet.ETHERTYPE_IPV4,
        payload=ip_bytes,
    )
    return frame.encode()


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
        eth = ethernet.decode(data)
        if eth.ethertype != ethernet.ETHERTYPE_IPV4:
            raise FrameError(f"not IPv4 (ethertype 0x{eth.ethertype:04x})")
        ipv4 = ip.decode(eth.payload, verify_checksum=verify_checksums)
        if ipv4.protocol != ip.PROTO_TCP:
            raise FrameError(f"not TCP (protocol {ipv4.protocol})")
        tcp = tcpw.decode(
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


# TCP option blocks repeat across a capture (usually empty, an MSS on
# the SYNs, the odd SACK); cache their parse keyed by the raw bytes.
# Bounded: damaged captures could otherwise flood it with unique junk.
_OPTIONS_CACHE: dict[bytes, tuple] = {}
_OPTIONS_CACHE_LIMIT = 4096


def parse_packet(data: bytes) -> PacketFields:
    """Decode a frame straight to :class:`PacketFields`.

    A view of :func:`decode_fields` with rendered addresses and the
    payload sliced out.
    """
    (
        src, src_port, dst, dst_port, seq, ack, flags, window, ip_id,
        start, end, mss, wscale,
    ) = decode_fields(data)
    return PacketFields(
        int_to_ip(src), src_port, int_to_ip(dst), dst_port, seq, ack,
        flags, window, ip_id, data[start:end], mss, wscale,
    )


def int_to_ip(address: int) -> str:
    """A 32-bit address as a dotted quad."""
    return ip.bytes_to_ip(address.to_bytes(4, "big"))


def decode_fields(data: bytes) -> tuple:
    """Decode a frame to one plain tuple of integers.

    ``(src, src_port, dst, dst_port, seq, ack, flags, window, ip_id,
    payload_start, payload_end, mss_option, wscale_option)``: the
    addresses are 32-bit integers and the payload is
    ``data[payload_start:payload_end]``, so no per-layer object, string
    or payload copy is made.  The common shape (Ethernet II + 20-byte
    IPv4 header + TCP) decodes in one pass of precompiled-struct reads;
    anything else — other ethertypes, IP options, damage — goes through
    :func:`parse_frame`, so failures raise the exact same
    :class:`FrameError` and exotic-but-valid frames decode through the
    reference path with identical fields.
    """
    n = len(data)
    # 54 = Ethernet(14) + minimal IPv4(20) + minimal TCP(20).
    if n < 54 or data[12] != 0x08 or data[13] != 0x00 or data[14] != 0x45:
        return _decode_layered(data)
    (
        _version_ihl,
        _tos,
        total_length,
        ip_id,
        _flags_fragment,
        _ttl,
        protocol,
        _ip_checksum,
        src,
        dst,
    ) = _IPV4_INTS.unpack_from(data, 14)
    ip_end = 14 + total_length
    if protocol != ip.PROTO_TCP or total_length < 40 or ip_end > n:
        return _decode_layered(data)
    (
        src_port,
        dst_port,
        seq,
        ack,
        offset_field,
        flags,
        window,
        _tcp_checksum_value,
        _urgent,
    ) = tcpw._HEADER.unpack_from(data, 34)
    header_len = (offset_field >> 4) * 4
    if header_len < tcpw.BASE_HEADER_LEN or header_len > total_length - 20:
        return _decode_layered(data)
    if header_len == tcpw.BASE_HEADER_LEN:
        mss = wscale = None
    else:
        raw_options = data[54 : 34 + header_len]
        options = _OPTIONS_CACHE.get(raw_options)
        if options is None:
            try:
                options = tcpw._parse_options(raw_options)
            except tcpw.TcpError:
                return _decode_layered(data)
            if len(_OPTIONS_CACHE) >= _OPTIONS_CACHE_LIMIT:
                _OPTIONS_CACHE.clear()
            _OPTIONS_CACHE[raw_options] = options
        mss, wscale = options[0], options[1]
    return (
        src, src_port, dst, dst_port, seq, ack, flags, window, ip_id,
        34 + header_len, ip_end, mss, wscale,
    )


#: the IPv4 header with both addresses read as integers.
_IPV4_INTS = struct.Struct("!BBHHHBBHII")


def _decode_layered(data: bytes) -> tuple:
    """:func:`decode_fields` through the per-layer decoders."""
    parsed = parse_frame(data)
    tcp = parsed.tcp
    end = 14 + int.from_bytes(data[16:18], "big")
    return (
        int.from_bytes(ip.ip_to_bytes(parsed.ipv4.src), "big"),
        tcp.src_port,
        int.from_bytes(ip.ip_to_bytes(parsed.ipv4.dst), "big"),
        tcp.dst_port,
        tcp.seq,
        tcp.ack,
        tcp.flags,
        tcp.window,
        parsed.ipv4.identification,
        end - len(tcp.payload),
        end,
        tcp.mss_option,
        tcp.wscale_option,
    )
