"""Builders for hand-crafted traces used by analysis unit tests."""

from repro.analysis.profile import Connection, canonical_key
from repro.bgp.header import HEADER_LEN, MARKER
from repro.wire.ip import ip_to_bytes
from repro.wire.tcpw import ACK, PSH, SYN

SENDER = "10.0.0.1"
RECEIVER = "10.0.0.2"
SPORT = 40000
DPORT = 179


def address(ip: str) -> int:
    """A dotted quad as the integer the ingest rows carry."""
    return int.from_bytes(ip_to_bytes(ip), "big")


def is_keepalive(payload: bytes) -> bool:
    """True when the payload is exactly one BGP KEEPALIVE."""
    return (
        len(payload) == HEADER_LEN
        and payload[:16] == MARKER
        and payload[18:19] == b"\x04"
    )


class TraceBuilder:
    """Builds a Connection packet-by-packet with relative sequences.

    The sender's ISN is 1000 and the receiver's 2000, so relative data
    byte 0 is wire sequence 1001.  Each packet becomes one ingest row
    (the layout of :data:`repro.analysis.columns.ROW_FIELDS`).
    """

    def __init__(self):
        self.connection = Connection(
            canonical_key(SENDER, SPORT, RECEIVER, DPORT)
        )
        self._index = 0
        self._sender_ip_id = 0
        self._receiver_ip_id = 0

    def _add(self, src, t, seq, ack, flags, window, length, wire, ip_id=None,
             keepalive=False, mss=None):
        self._index += 1
        if src == SENDER:
            self._sender_ip_id += 1
            auto_ip_id = self._sender_ip_id
        else:
            self._receiver_ip_id += 1
            auto_ip_id = self._receiver_ip_id
        self.connection.add((
            self._index, t, address(src), seq, ack, flags, window, length,
            wire, auto_ip_id if ip_id is None else ip_id, keepalive, mss,
            None,
        ))
        return self

    def syn(self, t):
        return self._add(SENDER, t, 1000, 0, SYN, 65535, 0, 58, mss=1400)

    def synack(self, t, window=65535):
        return self._add(
            RECEIVER, t, 2000, 1001, SYN | ACK, window, 0, 58, mss=1400
        )

    def handshake_ack(self, t, window=65535):
        return self._add(SENDER, t, 1001, 2001, ACK, window, 0, 54)

    def handshake(self, t0=0, d1=1000, d2=8000):
        """SYN at t0, SYN/ACK d1 later, final ACK d2 after that."""
        return self.syn(t0).synack(t0 + d1).handshake_ack(t0 + d1 + d2)

    def data(self, t, rel_seq, length, payload=None, ip_id=None):
        return self._add(
            SENDER, t, 1001 + rel_seq, 2001, ACK | PSH, 65535, length,
            54 + length, ip_id=ip_id,
            keepalive=payload is not None and is_keepalive(payload),
        )

    def ack(self, t, rel_ack, window=65535):
        return self._add(RECEIVER, t, 2001, 1001 + rel_ack, ACK, window, 0, 54)

    def build(self):
        self.connection.finalize()
        return self.connection
