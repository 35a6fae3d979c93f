"""The simulated packet model.

A :class:`Packet` is what travels across :mod:`repro.netsim.link` links.
The payload is a structured object (for this project, a
:class:`repro.wire.tcpw.TcpHeader`); the wire framing overhead is
accounted for in ``wire_length`` so link serialization times and the
pcap traces match real Ethernet/IPv4/TCP byte counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

# Ethernet II header (no FCS in pcap captures) + IPv4 + base TCP header.
ETHERNET_HEADER_LEN = 14
IPV4_HEADER_LEN = 20
TCP_HEADER_LEN = 20

_packet_ids = itertools.count(1)


@dataclass
class Packet:
    """One simulated network packet.

    ``src`` and ``dst`` are dotted-quad IPv4 address strings; ``payload``
    is the transported protocol object; ``wire_length`` is the full
    frame length in bytes used for serialization-delay computation and
    pcap record sizing.
    """

    src: str
    dst: str
    payload: Any
    wire_length: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    created_at_us: int = 0
    # IPv4 identification assigned by the sending stack; passive
    # analysis uses its ordering to tell reordering from retransmission.
    ip_id: int | None = None

    def __post_init__(self) -> None:
        if self.wire_length <= 0:
            raise ValueError(f"non-positive wire_length {self.wire_length}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(#{self.packet_id} {self.src}->{self.dst} "
            f"{self.wire_length}B {self.payload!r})"
        )


def tcp_wire_length(payload_bytes: int, tcp_options_len: int = 0) -> int:
    """Frame length of a TCP segment carrying ``payload_bytes`` of data."""
    return (
        ETHERNET_HEADER_LEN
        + IPV4_HEADER_LEN
        + TCP_HEADER_LEN
        + tcp_options_len
        + payload_bytes
    )
