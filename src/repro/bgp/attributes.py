"""BGP path attributes (RFC 4271 section 4.3) with wire codecs.

Two-byte AS numbers are used throughout, matching the 2008–2011
measurement era of the paper.  The supported attributes are the ones
present in virtually every table-transfer UPDATE: ORIGIN, AS_PATH,
NEXT_HOP, MULTI_EXIT_DISC and LOCAL_PREF.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.wire.ip import bytes_to_ip, ip_to_bytes

# Attribute type codes.
ORIGIN = 1
AS_PATH = 2
NEXT_HOP = 3
MULTI_EXIT_DISC = 4
LOCAL_PREF = 5
AS4_PATH = 17

# RFC 6793: the 2-byte stand-in for a 4-byte AS number.
AS_TRANS = 23456

# Attribute flag bits.
FLAG_OPTIONAL = 0x80
FLAG_TRANSITIVE = 0x40
FLAG_EXTENDED_LENGTH = 0x10

# ORIGIN values.
ORIGIN_IGP = 0
ORIGIN_EGP = 1
ORIGIN_INCOMPLETE = 2

# AS_PATH segment types.
AS_SET = 1
AS_SEQUENCE = 2


class AttributeError_(ValueError):
    """Raised on malformed path attributes."""


@dataclass(frozen=True)
class AsPathSegment:
    """One AS_PATH segment: an AS_SEQUENCE or AS_SET of AS numbers.

    ASNs above 65535 are carried per RFC 6793: the 2-byte AS_PATH shows
    :data:`AS_TRANS` and the true values travel in an AS4_PATH
    attribute (see :meth:`PathAttributes.encode`).
    """

    segment_type: int
    asns: tuple[int, ...]

    def encode(self, wide: bool = False) -> bytes:
        """Wire form; ``wide`` selects 4-byte ASNs (AS4_PATH)."""
        if not 1 <= len(self.asns) <= 255:
            raise AttributeError_(f"segment of {len(self.asns)} ASNs")
        if wide:
            body = struct.pack(f"!{len(self.asns)}I", *self.asns)
        else:
            narrowed = tuple(
                asn if asn <= 0xFFFF else AS_TRANS for asn in self.asns
            )
            body = struct.pack(f"!{len(self.asns)}H", *narrowed)
        return struct.pack("!BB", self.segment_type, len(self.asns)) + body

    def has_wide_asns(self) -> bool:
        """True if any ASN needs more than 2 bytes."""
        return any(asn > 0xFFFF for asn in self.asns)


@dataclass(frozen=True)
class PathAttributes:
    """The attribute set shared by all routes in one UPDATE."""

    origin: int = ORIGIN_IGP
    as_path: tuple[AsPathSegment, ...] = ()
    next_hop: str = "0.0.0.0"
    med: int | None = None
    local_pref: int | None = None

    @classmethod
    def from_path(cls, asns: list[int] | tuple[int, ...], next_hop: str,
                  origin: int = ORIGIN_IGP, med: int | None = None,
                  local_pref: int | None = None) -> "PathAttributes":
        """Convenience: a single AS_SEQUENCE path."""
        segments = (AsPathSegment(AS_SEQUENCE, tuple(asns)),) if asns else ()
        return cls(origin=origin, as_path=segments, next_hop=next_hop,
                   med=med, local_pref=local_pref)

    def path_asns(self) -> tuple[int, ...]:
        """Flattened AS numbers across all segments (display helper)."""
        return tuple(asn for seg in self.as_path for asn in seg.asns)

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize the full path-attribute block of an UPDATE.

        Paths containing 4-byte ASNs use RFC 6793's interoperable form:
        AS_TRANS placeholders in AS_PATH plus a full-width AS4_PATH.
        """
        parts = [
            _encode_attribute(FLAG_TRANSITIVE, ORIGIN, bytes([self.origin])),
            _encode_attribute(
                FLAG_TRANSITIVE,
                AS_PATH,
                b"".join(seg.encode() for seg in self.as_path),
            ),
            _encode_attribute(
                FLAG_TRANSITIVE, NEXT_HOP, ip_to_bytes(self.next_hop)
            ),
        ]
        if any(seg.has_wide_asns() for seg in self.as_path):
            parts.append(
                _encode_attribute(
                    FLAG_OPTIONAL | FLAG_TRANSITIVE,
                    AS4_PATH,
                    b"".join(seg.encode(wide=True) for seg in self.as_path),
                )
            )
        if self.med is not None:
            parts.append(
                _encode_attribute(
                    FLAG_OPTIONAL, MULTI_EXIT_DISC, struct.pack("!I", self.med)
                )
            )
        if self.local_pref is not None:
            parts.append(
                _encode_attribute(
                    FLAG_TRANSITIVE, LOCAL_PREF, struct.pack("!I", self.local_pref)
                )
            )
        return b"".join(parts)

    @classmethod
    def decode(cls, data: bytes) -> "PathAttributes":
        """Parse an UPDATE's path-attribute block."""
        origin = ORIGIN_IGP
        as_path: tuple[AsPathSegment, ...] = ()
        as4_path: tuple[AsPathSegment, ...] = ()
        next_hop = "0.0.0.0"
        med: int | None = None
        local_pref: int | None = None
        i = 0
        while i < len(data):
            if i + 2 > len(data):
                raise AttributeError_("truncated attribute header")
            flags, type_code = data[i], data[i + 1]
            i += 2
            if flags & FLAG_EXTENDED_LENGTH:
                if i + 2 > len(data):
                    raise AttributeError_("truncated extended length")
                (length,) = struct.unpack_from("!H", data, i)
                i += 2
            else:
                if i + 1 > len(data):
                    raise AttributeError_("truncated length")
                length = data[i]
                i += 1
            if i + length > len(data):
                raise AttributeError_(
                    f"attribute {type_code} length {length} overruns block"
                )
            body = data[i : i + length]
            i += length
            if type_code == ORIGIN:
                if length != 1:
                    raise AttributeError_("ORIGIN must be 1 byte")
                origin = body[0]
            elif type_code == AS_PATH:
                as_path = _decode_as_path(body)
            elif type_code == AS4_PATH:
                as4_path = _decode_as_path(body, wide=True)
            elif type_code == NEXT_HOP:
                next_hop = bytes_to_ip(body)
            elif type_code == MULTI_EXIT_DISC:
                med = _decode_u32(body, "MULTI_EXIT_DISC")
            elif type_code == LOCAL_PREF:
                local_pref = _decode_u32(body, "LOCAL_PREF")
            # Unknown attributes are skipped (transitive pass-through).
        if as4_path:
            as_path = _merge_as4_path(as_path, as4_path)
        return cls(origin=origin, as_path=as_path, next_hop=next_hop,
                   med=med, local_pref=local_pref)


def _encode_attribute(flags: int, type_code: int, body: bytes) -> bytes:
    if len(body) > 255:
        flags |= FLAG_EXTENDED_LENGTH
        header = struct.pack("!BBH", flags, type_code, len(body))
    else:
        header = struct.pack("!BBB", flags, type_code, len(body))
    return header + body


def _decode_u32(body: bytes, name: str) -> int:
    if len(body) != 4:
        raise AttributeError_(f"{name} must be 4 bytes")
    return int.from_bytes(body, "big")


def _decode_as_path(body: bytes, wide: bool = False) -> tuple[AsPathSegment, ...]:
    segments = []
    width = 4 if wide else 2
    fmt = "I" if wide else "H"
    i = 0
    while i < len(body):
        if i + 2 > len(body):
            raise AttributeError_("truncated AS_PATH segment header")
        seg_type, count = body[i], body[i + 1]
        i += 2
        need = count * width
        if i + need > len(body):
            raise AttributeError_("truncated AS_PATH segment")
        asns = struct.unpack(f"!{count}{fmt}", body[i : i + need])
        i += need
        segments.append(AsPathSegment(seg_type, asns))
    return tuple(segments)


def _merge_as4_path(
    narrow: tuple[AsPathSegment, ...], wide: tuple[AsPathSegment, ...]
) -> tuple[AsPathSegment, ...]:
    """RFC 6793 reconstruction: substitute AS_TRANS with the true ASNs.

    When the segment structures match (the common case for a speaker
    that generated both), substitute element-wise; otherwise prefer the
    AS4_PATH outright — our simplified form of the RFC's prepend rule.
    """
    if [(_seg.segment_type, len(_seg.asns)) for _seg in narrow] != [
        (_seg.segment_type, len(_seg.asns)) for _seg in wide
    ]:
        return wide
    merged = []
    for nseg, wseg in zip(narrow, wide):
        asns = tuple(
            w if n == AS_TRANS else n for n, w in zip(nseg.asns, wseg.asns)
        )
        merged.append(AsPathSegment(nseg.segment_type, asns))
    return tuple(merged)
