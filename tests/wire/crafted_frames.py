"""Hand-built frames in shapes the simulator never emits.

The sniffer writes Ethernet II / 20-byte IPv4 / TCP frames with DF set,
TOS 0 and at most MSS/window-scale/SACK options.  Real captures also
hold IP options, TCP timestamps, ECN bits, VLAN tags and UDP; these
helpers build such frames with valid checksums, for the decoder
differential and the anonymizer's bit-preservation tests.
"""

from __future__ import annotations

import struct

from repro.wire import tcpw
from repro.wire.ethernet import mac_from_ip
from repro.wire.ip import PROTO_TCP, PROTO_UDP, checksum, ip_to_bytes

#: NOP, NOP, timestamp (kind 8, length 10): what Linux puts on every segment.
TIMESTAMP_OPTION = bytes([1, 1, 8, 10]) + struct.pack("!II", 123456, 654321)

#: one IPv4 option word: NOP, NOP, NOP, end of options.
IP_OPTION_WORD = bytes([1, 1, 1, 0])


def _with_checksum(
    segment: bytes, at: int, src: str, dst: str, protocol: int
) -> bytes:
    pseudo = ip_to_bytes(src) + ip_to_bytes(dst) + struct.pack(
        "!BBH", 0, protocol, len(segment)
    )
    value = checksum(pseudo + segment)
    return segment[:at] + value.to_bytes(2, "big") + segment[at + 2 :]


def tcp_segment(
    src: str, dst: str, payload: bytes = b"", options: bytes = b""
) -> bytes:
    """A TCP segment (179 -> 40000) carrying raw ``options``."""
    header = tcpw._HEADER.pack(
        179, 40000, 1000, 2000, (5 + len(options) // 4) << 4,
        tcpw.ACK | tcpw.PSH, 16384, 0, 0,
    )
    return _with_checksum(header + options + payload, 16, src, dst, PROTO_TCP)


def udp_datagram(src: str, dst: str, payload: bytes = b"") -> bytes:
    """A UDP datagram (123 -> 123) with its checksum."""
    header = struct.pack("!HHHH", 123, 123, 8 + len(payload), 0)
    return _with_checksum(header + payload, 6, src, dst, PROTO_UDP)


def ipv4_frame(
    src: str,
    dst: str,
    transport: bytes,
    protocol: int = PROTO_TCP,
    tos: int = 0,
    flags_fragment: int = 0x4000,
    options: bytes = b"",
    vlan: int | None = None,
) -> bytes:
    """An Ethernet II frame around one IPv4 packet.

    ``vlan`` inserts an 802.1Q tag (ethertype 0x8100) before the IPv4
    ethertype.
    """
    ihl = 5 + len(options) // 4
    header = struct.pack(
        "!BBHHHBBH4s4s",
        0x40 | ihl, tos, ihl * 4 + len(transport), 7, flags_fragment, 64,
        protocol, 0, ip_to_bytes(src), ip_to_bytes(dst),
    ) + options
    header = header[:10] + checksum(header).to_bytes(2, "big") + header[12:]
    tag = b"" if vlan is None else struct.pack("!HH", 0x8100, vlan)
    return (
        mac_from_ip(dst) + mac_from_ip(src) + tag + b"\x08\x00"
        + header + transport
    )


def exotic_frames(
    src: str = "10.0.0.1", dst: str = "10.0.0.2"
) -> dict[str, bytes]:
    """One frame per shape, keyed by a short name."""
    payload = b"\xff" * 16 + b"\x00\x13\x04"  # a KEEPALIVE
    tcp = tcp_segment(src, dst, payload)
    return {
        "ip-options": ipv4_frame(src, dst, tcp, options=IP_OPTION_WORD),
        "tcp-timestamp": ipv4_frame(
            src, dst, tcp_segment(src, dst, payload, TIMESTAMP_OPTION)
        ),
        "ecn-tos": ipv4_frame(src, dst, tcp, tos=0x03),
        "df-clear": ipv4_frame(src, dst, tcp, flags_fragment=0),
        "vlan": ipv4_frame(src, dst, tcp, vlan=100),
        "udp": ipv4_frame(
            src, dst, udp_datagram(src, dst, b"ntp"), protocol=PROTO_UDP
        ),
    }
