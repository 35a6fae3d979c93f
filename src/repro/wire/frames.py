"""Full-frame composition: TCP header -> IPv4 -> Ethernet and back.

The sniffer serializes simulated segments through :func:`build_frame`
(the layer codecs' encode halves) so captures contain genuine protocol
bytes.  Every captured frame is read back by one decoder,
:func:`decode_fields`, which reads the three headers straight out of
the frame bytes; :func:`parse_packet` is its string-rendered view.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.wire import ethernet, ip, tcpw


class FrameError(ValueError):
    """Raised when a captured frame is not an IPv4/TCP frame."""


class PacketFields(NamedTuple):
    """The analyzer-facing fields of one Ethernet/IPv4/TCP frame.

    :func:`parse_packet` renders these from :func:`decode_fields`
    without materializing per-layer objects or verifying checksums.
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
    """Decode an Ethernet II / IPv4 / TCP frame to one plain tuple of integers.

    ``(src, src_port, dst, dst_port, seq, ack, flags, window, ip_id,
    payload_start, payload_end, mss_option, wscale_option)``: the
    addresses are 32-bit integers and the payload is
    ``data[payload_start:payload_end]``, so no per-layer object, string
    or payload copy is made.  This is the only frame decoder: the
    common shape (20-byte IPv4 header, no IP options) passes one
    combined guard, anything else is checked layer by layer before the
    same unpacks (IP options are skipped).  Checksums are not verified.

    Raises :class:`FrameError` for frames that are not IPv4/TCP (real
    captures contain ARP, LLDP, ...) and for any damage: truncated
    headers, bad IHL, an inconsistent total length, a bad data offset,
    mangled options.  Its message names the first check that failed,
    outermost layer first; ``undecodable-frame`` health details carry it.
    """
    n = len(data)
    # 54 = Ethernet(14) + minimal IPv4(20) + minimal TCP(20).
    if n >= 54 and data[12] == 0x08 and data[13] == 0x00 and data[14] == 0x45:
        tcp_start = 34
    else:
        if n < 14:
            raise FrameError(f"undecodable frame: frame too short: {n} bytes")
        ethertype = (data[12] << 8) | data[13]
        if ethertype != ethernet.ETHERTYPE_IPV4:
            raise FrameError(f"not IPv4 (ethertype 0x{ethertype:04x})")
        if n < 34:
            raise FrameError(
                f"undecodable frame: IPv4 packet too short: {n - 14} bytes"
            )
        version = data[14] >> 4
        ihl = (data[14] & 0x0F) * 4
        if version != 4:
            raise FrameError(f"undecodable frame: not IPv4 (version={version})")
        if ihl < 20 or n - 14 < ihl:
            raise FrameError(f"undecodable frame: bad IHL {ihl}")
        tcp_start = 14 + ihl
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
    segment_length = ip_end - tcp_start
    if protocol != ip.PROTO_TCP or segment_length < 20 or ip_end > n:
        if segment_length < 0 or ip_end > n:
            raise FrameError(
                f"undecodable frame: total length {total_length} "
                f"inconsistent with {n - 14} bytes"
            )
        if protocol != ip.PROTO_TCP:
            raise FrameError(f"not TCP (protocol {protocol})")
        raise FrameError(
            f"undecodable frame: TCP segment too short: {segment_length} bytes"
        )
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
    ) = tcpw._HEADER.unpack_from(data, tcp_start)
    header_len = (offset_field >> 4) * 4
    if header_len < 20 or header_len > segment_length:
        raise FrameError(f"undecodable frame: bad data offset {header_len}")
    payload_start = tcp_start + header_len
    if header_len == 20:
        mss = wscale = None
    else:
        raw_options = data[tcp_start + 20 : payload_start]
        options = _OPTIONS_CACHE.get(raw_options)
        if options is None:
            try:
                options = tcpw._parse_options(raw_options)
            except tcpw.TcpError as exc:
                raise FrameError(f"undecodable frame: {exc}") from exc
            if len(_OPTIONS_CACHE) >= _OPTIONS_CACHE_LIMIT:
                _OPTIONS_CACHE.clear()
            _OPTIONS_CACHE[raw_options] = options
        mss, wscale = options[0], options[1]
    return (
        src, src_port, dst, dst_port, seq, ack, flags, window, ip_id,
        payload_start, ip_end, mss, wscale,
    )


#: the IPv4 header with both addresses read as integers.
_IPV4_INTS = struct.Struct("!BBHHHBBHII")
