"""IPv4 address helpers and the Internet checksum.

BGP sessions between routers never fragment in practice (MSS keeps TCP
segments under the MTU), so the simulator emits 20-byte headers,
protocol TCP, valid checksums: ``repro.wire.frames.build_frame`` packs
them and ``repro.wire.frames.decode_fields`` reads captured frames.
"""

from __future__ import annotations

PROTO_TCP = 6
PROTO_UDP = 17


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
    "padded at the end with zero" rule: the data is read as one
    big-endian integer, shifted a byte left when its length is odd.
    """
    total = int.from_bytes(data, "big")
    if len(data) % 2:
        total <<= 8
    return complement(total)


def complement(total: int) -> int:
    """The checksum of data whose 16-bit words sum to ``total``.

    ``total`` may be any nonnegative integer congruent to that sum
    modulo 0xFFFF and zero only for all-zero data: ``2**16 % 0xFFFF ==
    1``, so the data read as one integer, or the sum of integers read
    from its even-length pieces, will do.  The end-around-carry fold of
    a nonzero sum lies in 1..0xFFFF, so a remainder of 0 folds to
    0xFFFF.
    """
    folded = total % 0xFFFF
    if not folded and total:
        folded = 0xFFFF
    return ~folded & 0xFFFF
