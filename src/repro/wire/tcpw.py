"""TCP segments, their options (MSS, window scale, SACK) and option parsing.

Captures produced by the simulator are complete enough for
off-the-shelf software: ``repro.wire.frames.build_frame`` packs a
:class:`TcpHeader` with real flags, a real checksum over the IPv4
pseudo-header, and the options BGP-era routers actually negotiated
(MSS, occasionally window scale).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10
URG = 0x20

OPT_END = 0
OPT_NOP = 1
OPT_MSS = 2
OPT_WSCALE = 3
OPT_SACK_PERMITTED = 4
OPT_SACK = 5

_HEADER = struct.Struct("!HHIIBBHHH")


class TcpError(ValueError):
    """Raised on malformed TCP headers."""


@dataclass(frozen=True)
class TcpHeader:
    """A TCP segment as the simulator sends it (``frames.build_frame``
    writes its wire form)."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss_option: int | None = None
    wscale_option: int | None = None
    sack_permitted: bool = False
    sack_blocks: tuple[tuple[int, int], ...] = ()
    urgent: int = 0
    checksum_value: int = field(default=0, compare=False)

    # Flag helpers --------------------------------------------------------
    @property
    def is_syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def is_ack(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def is_fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def is_rst(self) -> bool:
        return bool(self.flags & RST)

    def options_bytes(self) -> bytes:
        """Serialize the supported options, padded to 4-byte alignment."""
        opts = b""
        if self.mss_option is not None:
            opts += struct.pack("!BBH", OPT_MSS, 4, self.mss_option)
        if self.wscale_option is not None:
            opts += struct.pack("!BBB", OPT_WSCALE, 3, self.wscale_option)
        if self.sack_permitted:
            opts += struct.pack("!BB", OPT_SACK_PERMITTED, 2)
        if self.sack_blocks:
            blocks = self.sack_blocks[:4]  # at most 4 fit with other options
            opts += struct.pack("!BB", OPT_SACK, 2 + 8 * len(blocks))
            for left, right in blocks:
                opts += struct.pack(
                    "!II", left & 0xFFFFFFFF, right & 0xFFFFFFFF
                )
        if len(opts) % 4:
            opts += bytes([OPT_NOP] * (4 - len(opts) % 4))
        return opts


def _parse_options(
    raw: bytes,
) -> tuple[int | None, int | None, bool, tuple[tuple[int, int], ...]]:
    mss: int | None = None
    wscale: int | None = None
    sack_permitted = False
    sack_blocks: tuple[tuple[int, int], ...] = ()
    i = 0
    while i < len(raw):
        kind = raw[i]
        if kind == OPT_END:
            break
        if kind == OPT_NOP:
            i += 1
            continue
        if i + 1 >= len(raw):
            raise TcpError("truncated TCP option")
        length = raw[i + 1]
        if length < 2 or i + length > len(raw):
            raise TcpError(f"bad TCP option length {length}")
        body = raw[i + 2 : i + length]
        if kind == OPT_MSS and len(body) == 2:
            (mss,) = struct.unpack("!H", body)
        elif kind == OPT_WSCALE and len(body) == 1:
            wscale = body[0]
        elif kind == OPT_SACK_PERMITTED and len(body) == 0:
            sack_permitted = True
        elif kind == OPT_SACK:
            if len(body) % 8:
                raise TcpError(f"bad SACK option length {length}")
            blocks = []
            for j in range(0, len(body), 8):
                left, right = struct.unpack_from("!II", body, j)
                blocks.append((left, right))
            sack_blocks = tuple(blocks)
        i += length
    return mss, wscale, sack_permitted, sack_blocks
