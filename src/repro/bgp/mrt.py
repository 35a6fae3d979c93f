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
    decode_message,
    encode_message,
)
from repro.core.units import US_PER_SECOND
from repro.wire.ip import bytes_to_ip, ip_to_bytes

MRT_BGP4MP = 16
MRT_BGP4MP_ET = 17
BGP4MP_MESSAGE = 1

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
