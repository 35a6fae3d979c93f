"""IPv4 header encoding (no options, no fragmentation) and address helpers.

BGP sessions between routers never fragment in practice (MSS keeps TCP
segments under the MTU), so the simulator emits exactly this:
20-byte headers, protocol TCP, valid checksums.  Captured frames are
decoded by ``repro.wire.frames.decode_fields``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

PROTO_TCP = 6
PROTO_UDP = 17
HEADER_LEN = 20

_HEADER = struct.Struct("!BBHHHBBH4s4s")


class IpError(ValueError):
    """Raised on malformed IPv4 headers."""


# Captures see the same handful of endpoints millions of times, and the
# simulator packs the same few into every frame it builds; cache both
# directions (bounded: cleared wholesale if damaged input ever floods
# one with garbage addresses).  Only endpoint-like addresses come
# through here in bulk: BGP prefixes travel as NLRI bytes, are filed by
# their NLRI read as one integer (``repro.bgp.messages.Prefix.key``) and
# render their dotted quad without these caches.
_IP_BYTES_CACHE: dict[str, bytes] = {}
_IP_STR_CACHE: dict[bytes, str] = {}
_IP_CACHE_LIMIT = 65536


def ip_to_bytes(ip: str) -> bytes:
    """Dotted-quad string to 4 network-order bytes."""
    cached = _IP_BYTES_CACHE.get(ip)
    if cached is not None:
        return cached
    parts = ip.split(".")
    if len(parts) != 4:
        raise IpError(f"bad IPv4 address {ip!r}")
    try:
        octets = [int(p) for p in parts]
    except ValueError as exc:
        raise IpError(f"bad IPv4 address {ip!r}") from exc
    if not all(0 <= o <= 255 for o in octets):
        raise IpError(f"bad IPv4 address {ip!r}")
    # Only a parsed address is kept, so a bad one raises on every call.
    packed = bytes(octets)
    if len(_IP_BYTES_CACHE) >= _IP_CACHE_LIMIT:
        _IP_BYTES_CACHE.clear()
    _IP_BYTES_CACHE[ip] = packed
    return packed


def bytes_to_ip(raw: bytes) -> str:
    """4 bytes to a dotted-quad string."""
    cached = _IP_STR_CACHE.get(raw)
    if cached is not None:
        return cached
    if len(raw) != 4:
        raise IpError(f"IPv4 address needs 4 bytes, got {len(raw)}")
    rendered = ".".join(str(b) for b in raw)
    if len(_IP_STR_CACHE) >= _IP_CACHE_LIMIT:
        _IP_STR_CACHE.clear()
    _IP_STR_CACHE[bytes(raw)] = rendered
    return rendered


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
class Ipv4Header:
    """An IPv4 header plus payload to encode."""

    src: str
    dst: str
    payload: bytes
    ttl: int = 64
    protocol: int = PROTO_TCP
    identification: int = 0
    dscp: int = 0
    header_checksum: int = field(default=0, compare=False)

    @property
    def total_length(self) -> int:
        """Header plus payload length in bytes."""
        return HEADER_LEN + len(self.payload)

    def encode(self) -> bytes:
        """Serialize with a freshly computed header checksum."""
        version_ihl = (4 << 4) | (HEADER_LEN // 4)
        flags_fragment = 0x4000  # Don't Fragment, offset 0.
        header = _HEADER.pack(
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

