"""Prefix-preserving trace anonymization for sharing captures.

The paper's datasets never left the ISP — the traces identify routers,
peers and routing policy.  This tool makes captures shareable while
keeping them useful for delay analysis:

* IPv4 addresses are anonymized with a Crypto-PAn-style
  prefix-preserving scheme (a keyed PRF decides each output bit from
  the input's bit-prefix), so subnet structure — which T-DAT's
  upstream/downstream reasoning relies on — survives;
* MAC addresses are re-derived from the anonymized IPs;
* the IP header checksum is recomputed and the TCP (or UDP) checksum
  updated so standard tools still accept the trace;
* optionally the TCP payload is zeroed (``strip_payload``), removing
  the BGP routing content entirely while preserving every length and
  timestamp — exactly the information T-DAT consumes.

Frames are rewritten in place, so everything else (TOS, flags, IP and
TCP options, ports, sequence numbers, windows, padding, timing) is
preserved bit-for-bit, and every frame whose IPv4 header was captured
is anonymized, whatever its protocol and however short its snaplen.
"""

from __future__ import annotations

import hmac
import hashlib
from pathlib import Path
from typing import BinaryIO

from repro.wire import ethernet, ip
from repro.wire.pcap import PcapReader, PcapRecord, PcapWriter


class PrefixPreservingAnonymizer:
    """Crypto-PAn-style keyed, prefix-preserving IPv4 anonymization.

    Two addresses sharing a k-bit prefix map to addresses sharing
    exactly a k-bit prefix; the mapping is deterministic per key.
    """

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ValueError("anonymization key must be non-empty")
        self._key = key
        self._cache: dict[str, str] = {}

    def _prf_bit(self, prefix_bits: str) -> int:
        digest = hmac.new(
            self._key, prefix_bits.encode(), hashlib.sha256
        ).digest()
        return digest[0] & 1

    def anonymize_ip(self, address: str) -> str:
        """Map one dotted-quad address."""
        cached = self._cache.get(address)
        if cached is not None:
            return cached
        value = int.from_bytes(ip.ip_to_bytes(address), "big")
        bits = f"{value:032b}"
        out = 0
        for i in range(32):
            flip = self._prf_bit(bits[:i])
            out = (out << 1) | (int(bits[i]) ^ flip)
        result = ip.bytes_to_ip(out.to_bytes(4, "big"))
        self._cache[address] = result
        return result


def anonymize_record(
    record: PcapRecord,
    anonymizer: PrefixPreservingAnonymizer,
    strip_payload: bool = False,
) -> PcapRecord:
    """Anonymize one captured frame by rewriting its bytes in place.

    Any frame whose IPv4 addresses were captured is rewritten, however
    short its snaplen cut it, whatever it carries and whether or not it
    has an 802.1Q VLAN tag: the two addresses, the MACs derived from
    them, the IP header checksum (recomputed) and a TCP or UDP checksum
    (updated incrementally per RFC 1624, so a complete segment still
    verifies).  With ``strip_payload`` the captured TCP payload is
    zeroed too.  No other byte changes; frames with no IPv4 header
    (ARP, LLDP, ...) pass through.
    """
    data = record.data
    ip_at = 18 if data[12:14] == b"\x81\x00" else 14  # past a VLAN tag
    if (
        len(data) < ip_at + 20
        or data[ip_at - 2 : ip_at] != b"\x08\x00"
        or data[ip_at] >> 4 != 4
    ):
        return record
    frame = bytearray(data)
    _rewrite(frame, ip_at, anonymizer, strip_payload)
    return PcapRecord(
        timestamp_us=record.timestamp_us,
        data=bytes(frame),
        original_length=record.original_length,
    )


def _rewrite(
    frame: bytearray,
    ip_at: int,
    anonymizer: PrefixPreservingAnonymizer,
    strip_payload: bool,
) -> None:
    """:func:`anonymize_record` on a frame whose IPv4 header starts at
    ``ip_at``."""
    n = len(frame)
    old_addresses = bytes(frame[ip_at + 12 : ip_at + 20])
    src = anonymizer.anonymize_ip(ip.bytes_to_ip(old_addresses[:4]))
    dst = anonymizer.anonymize_ip(ip.bytes_to_ip(old_addresses[4:]))
    new_addresses = ip.ip_to_bytes(src) + ip.ip_to_bytes(dst)
    frame[0:6] = ethernet.mac_from_ip(dst)
    frame[6:12] = ethernet.mac_from_ip(src)
    frame[ip_at + 12 : ip_at + 20] = new_addresses
    header_end = ip_at + (frame[ip_at] & 0x0F) * 4
    if header_end < ip_at + 20 or header_end > n:
        # A damaged IHL, or IP options cut by the snaplen: there is no
        # whole header to sum, so patch the checksum.
        _patch_checksum(frame, ip_at + 10, old_addresses, new_addresses)
        return
    frame[ip_at + 10 : ip_at + 12] = b"\x00\x00"
    ip_checksum = ip.checksum(frame[ip_at:header_end])
    frame[ip_at + 10 : ip_at + 12] = ip_checksum.to_bytes(2, "big")
    protocol = frame[ip_at + 9]
    offset = _CHECKSUM_OFFSET.get(protocol)
    fragment = int.from_bytes(frame[ip_at + 6 : ip_at + 8], "big") & 0x1FFF
    if offset is None or fragment or header_end + offset + 2 > n:
        return
    at = header_end + offset
    if protocol == ip.PROTO_UDP and frame[at : at + 2] == b"\x00\x00":
        return  # sent without a checksum
    old, new = old_addresses, new_addresses
    if strip_payload and protocol == ip.PROTO_TCP:
        start = header_end + (frame[header_end + 12] >> 4) * 4
        end = min(ip_at + int.from_bytes(frame[ip_at + 2 : ip_at + 4], "big"), n)
        if start >= header_end + 20 and end > start:
            old += frame[start:end]
            new += bytes(end - start)
            frame[start:end] = bytes(end - start)
    _patch_checksum(frame, at, old, new)


#: where a transport header keeps the checksum that covers the IPv4
#: addresses (through its pseudo-header).
_CHECKSUM_OFFSET = {ip.PROTO_TCP: 16, ip.PROTO_UDP: 6}


def _patch_checksum(frame: bytearray, at: int, old: bytes, new: bytes) -> None:
    """Update the checksum at ``frame[at:at + 2]`` after the 16-bit
    words ``old`` became ``new`` (RFC 1624 eqn. 3).

    A result of zero is written as 0xFFFF: both verify, and UDP
    reserves zero for "no checksum".
    """
    stored = int.from_bytes(frame[at : at + 2], "big")
    total = (~stored & 0xFFFF) + ip.checksum(old) + (~ip.checksum(new) & 0xFFFF)
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    frame[at : at + 2] = ((~total & 0xFFFF) or 0xFFFF).to_bytes(2, "big")


def anonymize_pcap(
    source: BinaryIO | str | Path,
    target: BinaryIO | str | Path,
    key: bytes,
    strip_payload: bool = False,
) -> int:
    """Anonymize a whole capture file; returns the record count."""
    anonymizer = PrefixPreservingAnonymizer(key)
    count = 0
    with PcapReader(source) as reader, PcapWriter(target) as writer:
        for record in reader:
            writer.write(anonymize_record(record, anonymizer, strip_payload))
            count += 1
    return count
