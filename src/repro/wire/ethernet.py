"""Ethernet II constants and the simulator's MAC addresses.

Only what a BGP monitoring capture needs: Ethernet II framing with the
IPv4 ethertype, packed by ``frames.build_frame`` and decoded by
``frames.decode_fields``.  MAC addresses are 6-byte ``bytes`` values.
"""

from __future__ import annotations

ETHERTYPE_IPV4 = 0x0800
#: a simulated host's MAC is this locally-administered prefix + its IPv4 octets.
MAC_PREFIX = b"\x02\x00"


class EthernetError(ValueError):
    """Raised on a bad Ethernet address."""


def mac_from_ip(ip: str) -> bytes:
    """A deterministic locally-administered MAC derived from an IPv4 string.

    The simulator does not model ARP; captures still need stable,
    distinct MAC addresses per host so tools like wireshark render them
    sensibly.
    """
    octets = [int(part) for part in ip.split(".")]
    if len(octets) != 4 or not all(0 <= o <= 255 for o in octets):
        raise EthernetError(f"bad IPv4 address {ip!r}")
    return MAC_PREFIX + bytes(octets)
