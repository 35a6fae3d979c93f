"""Test-only oracle: the copying incremental BGP message decoder.

Before ``repro.bgp.messages.MessageDecoder.feed`` framed messages at
offsets in its buffer, it copied each message's marker and each whole
message out of a ``bytearray``, re-checked both in ``_decode_one``
and deleted the message from the front of the buffer.  This module
keeps that decoder verbatim apart from this docstring and the imports.
``tests/bgp/test_decoder_differential.py`` holds the offset-framing
decoder to it: the same messages, counters, pending bytes, ``on_issue``
calls and ``BgpError`` text.
"""

from __future__ import annotations

import struct

from repro.bgp.header import HEADER_LEN, MARKER, MAX_MESSAGE_LEN
from repro.bgp.messages import _BODY_PARSERS, BgpError, BgpMessage


def _decode_one(data: bytes) -> tuple[BgpMessage, int]:
    if len(data) < HEADER_LEN:
        raise BgpError("truncated header")
    if data[:16] != MARKER:
        raise BgpError("bad marker")
    length, type_code = struct.unpack_from("!HB", data, 16)
    if not HEADER_LEN <= length <= MAX_MESSAGE_LEN:
        raise BgpError(f"bad message length {length}")
    if len(data) < length:
        raise BgpError("truncated body")
    parser = _BODY_PARSERS.get(type_code)
    if parser is None:
        raise BgpError(f"unknown message type {type_code}")
    return parser(data[HEADER_LEN:length]), length


class MessageDecoder:
    """Incremental decoder over a reassembled TCP byte stream.

    Feed bytes as they arrive; complete messages pop out.  Used by the
    BGP speaker's receive path and by ``pcap2bgp``.

    With ``resync=True`` the decoder never raises: after a malformed
    message it scans forward for the next 16-byte all-ones marker and
    resumes there, containing the blast radius to one message instead
    of the whole session (the spirit of RFC 7606).  Every skip is
    counted in ``resync_count`` / ``bytes_skipped`` and reported to the
    optional ``on_issue(kind, bytes_lost, detail)`` callback.
    """

    def __init__(self, resync: bool = False, on_issue=None) -> None:
        self._buffer = bytearray()
        self.messages_decoded = 0
        self.resync = resync
        self.on_issue = on_issue
        self.resync_count = 0
        self.bytes_skipped = 0

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting a complete message."""
        return len(self._buffer)

    def _skip(self, count: int, kind: str, detail: str) -> None:
        """Discard ``count`` buffered bytes, accounting for them."""
        del self._buffer[:count]
        self.resync_count += 1
        self.bytes_skipped += count
        if self.on_issue is not None:
            self.on_issue(kind, count, detail)

    def _scan_distance(self) -> int | None:
        """Bytes to discard so the buffer starts at the next marker.

        Returns None when no marker is in reach yet (all but a partial
        marker's worth of the buffer can be dropped; the tail might be
        a marker prefix completed by the next feed).
        """
        position = bytes(self._buffer).find(MARKER, 1)
        return position if position >= 0 else None

    def feed(self, data: bytes) -> list[BgpMessage]:
        """Append stream bytes and return all newly completed messages."""
        self._buffer.extend(data)
        messages: list[BgpMessage] = []
        while True:
            if len(self._buffer) < HEADER_LEN:
                break
            if bytes(self._buffer[:16]) != MARKER:
                if not self.resync:
                    raise BgpError("stream desynchronized: bad marker")
                distance = self._scan_distance()
                if distance is None:
                    # Keep a marker-length tail: it may be a prefix of a
                    # marker whose remainder is still in flight.
                    keep = len(MARKER) - 1
                    if len(self._buffer) > keep:
                        self._skip(
                            len(self._buffer) - keep,
                            "bad-marker", "no marker in buffered stream",
                        )
                    break
                self._skip(distance, "bad-marker",
                           f"marker found {distance} bytes ahead")
                continue
            (length,) = struct.unpack_from("!H", self._buffer, 16)
            if not HEADER_LEN <= length <= MAX_MESSAGE_LEN:
                if not self.resync:
                    raise BgpError(f"bad message length {length}")
                self._skip(1, "bad-length", f"message length {length}")
                continue
            if len(self._buffer) < length:
                break
            try:
                message, _ = _decode_one(bytes(self._buffer[:length]))
            except BgpError as exc:
                if not self.resync:
                    raise
                # The framing was sound but the body was not: drop
                # exactly this message and continue with the next.
                self._skip(length, "malformed-message", str(exc))
                continue
            del self._buffer[:length]
            messages.append(message)
            self.messages_decoded += 1
        return messages
