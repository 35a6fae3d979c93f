"""MRT (Multi-threaded Routing Toolkit) export format, RFC 6396 subset.

Quagga collectors archive received updates as BGP4MP_MESSAGE records;
``pcap2bgp`` writes the same format when reconstructing messages from a
raw packet trace, so downstream BGP analyses (like MCT) run on either
source identically.

Records carry microsecond timestamps using the BGP4MP_ET extended
variant when sub-second precision is present, and plain BGP4MP
otherwise.
"""

from __future__ import annotations

import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

from repro.bgp.messages import (
    BgpError,
    BgpMessage,
    Prefix,
    decode_message,
    decode_nlri,
    encode_message,
)
from repro.core.units import US_PER_SECOND
from repro.wire.ip import IpError, bytes_to_ip, ip_to_bytes

MRT_TABLE_DUMP_V2 = 13
MRT_BGP4MP = 16
MRT_BGP4MP_ET = 17
BGP4MP_MESSAGE = 1
TDV2_PEER_INDEX_TABLE = 1
TDV2_RIB_IPV4_UNICAST = 2

_COMMON_HEADER = struct.Struct("!IHHI")
_BGP4MP_HEADER = struct.Struct("!HHHH4s4s")


class MrtError(ValueError):
    """Raised on malformed MRT data."""


@dataclass(frozen=True)
class MrtRecord:
    """One archived BGP message with its collection metadata."""

    timestamp_us: int
    peer_as: int
    local_as: int
    peer_ip: str
    local_ip: str
    message: BgpMessage

    def encode(self) -> bytes:
        """Serialize as BGP4MP(_ET) / BGP4MP_MESSAGE."""
        seconds, micros = divmod(self.timestamp_us, US_PER_SECOND)
        bgp_bytes = encode_message(self.message)
        body = _BGP4MP_HEADER.pack(
            self.peer_as,
            self.local_as,
            0,  # interface index
            1,  # AFI IPv4
            ip_to_bytes(self.peer_ip),
            ip_to_bytes(self.local_ip),
        ) + bgp_bytes
        if micros:
            body = struct.pack("!I", micros) + body
            mrt_type = MRT_BGP4MP_ET
        else:
            mrt_type = MRT_BGP4MP
        header = _COMMON_HEADER.pack(seconds, mrt_type, BGP4MP_MESSAGE, len(body))
        return header + body


@dataclass(frozen=True)
class RibSnapshot:
    """A TABLE_DUMP_V2 RIB snapshot: one peer's view of a table."""

    timestamp_us: int
    collector_id: str
    peer_as: int
    peer_ip: str
    entries: tuple  # of (Prefix, PathAttributes)

    def encode(self) -> bytes:
        """Serialize as PEER_INDEX_TABLE + RIB_IPV4_UNICAST records."""
        seconds = self.timestamp_us // US_PER_SECOND
        view_name = b""
        peer_entry = (
            struct.pack("!B", 0)  # IPv4 peer, 2-byte AS
            + ip_to_bytes(self.peer_ip)  # peer BGP ID (reuse the IP)
            + ip_to_bytes(self.peer_ip)
            + struct.pack("!H", self.peer_as)
        )
        index_body = (
            ip_to_bytes(self.collector_id)
            + struct.pack("!H", len(view_name))
            + view_name
            + struct.pack("!H", 1)
            + peer_entry
        )
        out = [
            _COMMON_HEADER.pack(
                seconds, MRT_TABLE_DUMP_V2, TDV2_PEER_INDEX_TABLE,
                len(index_body),
            )
            + index_body
        ]
        for sequence, (prefix, attributes) in enumerate(self.entries):
            attrs = attributes.encode()
            body = (
                struct.pack("!I", sequence)
                + prefix.encode()
                + struct.pack("!H", 1)  # one RIB entry (one peer)
                + struct.pack("!HIH", 0, seconds, len(attrs))
                + attrs
            )
            out.append(
                _COMMON_HEADER.pack(
                    seconds, MRT_TABLE_DUMP_V2, TDV2_RIB_IPV4_UNICAST,
                    len(body),
                )
                + body
            )
        return b"".join(out)


def read_rib_snapshot(source: BinaryIO | str | Path) -> RibSnapshot:
    """Parse a TABLE_DUMP_V2 snapshot written by :class:`RibSnapshot`."""
    from repro.bgp.attributes import AttributeError_, PathAttributes

    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            return read_rib_snapshot(stream)
    header = source.read(_COMMON_HEADER.size)
    if len(header) < _COMMON_HEADER.size:
        raise MrtError("truncated TABLE_DUMP_V2 header")
    seconds, mrt_type, subtype, length = _COMMON_HEADER.unpack(header)
    if mrt_type != MRT_TABLE_DUMP_V2 or subtype != TDV2_PEER_INDEX_TABLE:
        raise MrtError("snapshot must start with PEER_INDEX_TABLE")
    body = source.read(length)
    try:
        collector_id = bytes_to_ip(body[:4])
        (view_len,) = struct.unpack_from("!H", body, 4)
        offset = 6 + view_len
        (peer_count,) = struct.unpack_from("!H", body, offset)
        if peer_count != 1:
            raise MrtError(f"expected a single peer, found {peer_count}")
        offset += 2
        peer_type = body[offset]
        if peer_type & 0x03:
            raise MrtError("only IPv4 peers with 2-byte AS are supported")
        peer_ip = bytes_to_ip(body[offset + 5 : offset + 9])
        (peer_as,) = struct.unpack_from("!H", body, offset + 9)
    except (IndexError, IpError, struct.error) as exc:
        raise MrtError(f"truncated PEER_INDEX_TABLE: {exc}") from exc

    entries = []
    while True:
        header = source.read(_COMMON_HEADER.size)
        if not header:
            break
        if len(header) < _COMMON_HEADER.size:
            raise MrtError("truncated RIB record header")
        seconds, mrt_type, subtype, length = _COMMON_HEADER.unpack(header)
        body = source.read(length)
        if len(body) < length:
            raise MrtError("truncated RIB record body")
        if mrt_type != MRT_TABLE_DUMP_V2 or subtype != TDV2_RIB_IPV4_UNICAST:
            continue
        if len(body) < 5:
            raise MrtError("truncated RIB entry")
        stop = 5 + (body[4] + 7) // 8
        try:
            (key,) = decode_nlri(body[4:stop])
        except BgpError as exc:
            raise MrtError(f"bad RIB entry prefix: {exc}") from exc
        offset = stop + 2  # skip entry count (always 1)
        if len(body) < offset + 8:
            raise MrtError("truncated RIB entry")
        (_peer_index, _originated, attr_len) = struct.unpack_from(
            "!HIH", body, offset
        )
        offset += 8
        try:
            attributes = PathAttributes.decode(body[offset : offset + attr_len])
        except AttributeError_ as exc:
            raise MrtError(f"bad RIB entry attributes: {exc}") from exc
        entries.append((Prefix.from_key(key), attributes))
    return RibSnapshot(
        timestamp_us=seconds * US_PER_SECOND,
        collector_id=collector_id,
        peer_as=peer_as,
        peer_ip=peer_ip,
        entries=tuple(entries),
    )


def write_mrt(target: BinaryIO | str | Path, records: Iterable[MrtRecord]) -> None:
    """Write records to an MRT file."""
    if isinstance(target, (str, Path)):
        with open(target, "wb") as stream:
            for record in records:
                stream.write(record.encode())
        return
    for record in records:
        target.write(record.encode())


def read_mrt(source: BinaryIO | str | Path) -> Iterator[MrtRecord]:
    """Iterate records out of an MRT file."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            yield from _read_stream(stream)
        return
    yield from _read_stream(source)


def _read_stream(stream: BinaryIO) -> Iterator[MrtRecord]:
    while True:
        header = stream.read(_COMMON_HEADER.size)
        if not header:
            return
        if len(header) < _COMMON_HEADER.size:
            raise MrtError("truncated MRT common header")
        seconds, mrt_type, subtype, length = _COMMON_HEADER.unpack(header)
        body = stream.read(length)
        if len(body) < length:
            raise MrtError("truncated MRT record body")
        micros = 0
        if mrt_type == MRT_BGP4MP_ET:
            if length < 4:
                raise MrtError("BGP4MP_ET record too short")
            (micros,) = struct.unpack_from("!I", body)
            body = body[4:]
        elif mrt_type != MRT_BGP4MP:
            continue  # skip unknown record types, like bgpdump does
        if subtype != BGP4MP_MESSAGE:
            continue
        if len(body) < _BGP4MP_HEADER.size:
            raise MrtError("BGP4MP body too short")
        peer_as, local_as, _ifindex, afi, peer_ip, local_ip = (
            _BGP4MP_HEADER.unpack_from(body)
        )
        if afi != 1:
            continue  # IPv4 only
        try:
            message = decode_message(body[_BGP4MP_HEADER.size :])
        except BgpError as exc:
            raise MrtError(f"bad BGP4MP message: {exc}") from exc
        yield MrtRecord(
            timestamp_us=seconds * US_PER_SECOND + micros,
            peer_as=peer_as,
            local_as=local_as,
            peer_ip=bytes_to_ip(peer_ip),
            local_ip=bytes_to_ip(local_ip),
            message=message,
        )
