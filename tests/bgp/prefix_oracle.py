"""Test-only oracle: the dotted-quad ``Prefix`` and ``decode_prefixes``.

This is the original string-based codec of :mod:`repro.bgp.messages`,
kept verbatim apart from this docstring and the imports: a prefix holds
its network as a dotted-quad string, ``encode`` parses that string on
every call and ``decode_prefixes`` renders one string per prefix.  The
differential property in ``test_prefix_oracle.py`` checks the
wire-native codec against it byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bgp.messages import BgpError
from repro.wire.ip import bytes_to_ip, ip_to_bytes


@dataclass(frozen=True)
class Prefix:
    """An IPv4 prefix in CIDR form."""

    network: str
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise BgpError(f"bad prefix length {self.length}")

    def __str__(self) -> str:
        return f"{self.network}/{self.length}"

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` notation."""
        network, _, length = text.partition("/")
        return cls(network, int(length))

    def encode(self) -> bytes:
        """NLRI wire form: length byte + minimal network bytes."""
        nbytes = (self.length + 7) // 8
        return bytes([self.length]) + ip_to_bytes(self.network)[:nbytes]


def decode_prefixes(data: bytes) -> list[Prefix]:
    """Parse a run of NLRI-encoded prefixes."""
    prefixes = []
    i = 0
    while i < len(data):
        length = data[i]
        if length > 32:
            raise BgpError(f"bad prefix length {length}")
        nbytes = (length + 7) // 8
        if i + 1 + nbytes > len(data):
            raise BgpError("truncated prefix")
        raw = data[i + 1 : i + 1 + nbytes] + b"\x00" * (4 - nbytes)
        prefixes.append(Prefix(bytes_to_ip(raw), length))
        i += 1 + nbytes
    return prefixes

