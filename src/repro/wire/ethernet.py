"""Ethernet II frame encoding (captures decode in ``frames.decode_fields``).

Only what a BGP monitoring capture needs: Ethernet II framing with the
IPv4 ethertype.  MAC addresses are carried as 6-byte ``bytes`` values.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

ETHERTYPE_IPV4 = 0x0800
HEADER_LEN = 14

_HEADER = struct.Struct("!6s6sH")


class EthernetError(ValueError):
    """Raised on malformed Ethernet frames."""


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame to encode."""

    dst_mac: bytes
    src_mac: bytes
    ethertype: int
    payload: bytes

    def encode(self) -> bytes:
        """Serialize to wire bytes."""
        if len(self.dst_mac) != 6 or len(self.src_mac) != 6:
            raise EthernetError("MAC addresses must be 6 bytes")
        return _HEADER.pack(self.dst_mac, self.src_mac, self.ethertype) + self.payload


def mac_from_ip(ip: str) -> bytes:
    """A deterministic locally-administered MAC derived from an IPv4 string.

    The simulator does not model ARP; captures still need stable,
    distinct MAC addresses per host so tools like wireshark render them
    sensibly.
    """
    octets = [int(part) for part in ip.split(".")]
    if len(octets) != 4 or not all(0 <= o <= 255 for o in octets):
        raise EthernetError(f"bad IPv4 address {ip!r}")
    return bytes([0x02, 0x00] + octets)
