"""BGP-4 message encoding/decoding (RFC 4271 section 4).

Implements OPEN, UPDATE, KEEPALIVE and NOTIFICATION with the standard
19-byte header (16-byte all-ones marker, length, type), plus an
incremental :class:`MessageDecoder` that extracts messages out of a
reassembled TCP byte stream — the building block of both the collector
and the ``pcap2bgp`` side tool.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from repro.bgp.attributes import AttributeError_, PathAttributes
from repro.bgp.header import (
    HEADER_LEN,
    MARKER,
    MAX_MESSAGE_LEN,
    TYPE_KEEPALIVE,
    TYPE_NOTIFICATION,
    TYPE_OPEN,
    TYPE_UPDATE,
)
from repro.wire.ip import IpError, bytes_to_ip, ip_to_bytes

_U16 = struct.Struct("!H")
_LENGTH_TYPE = struct.Struct("!HB")

# NOTIFICATION error codes (subset).
ERR_OPEN_MESSAGE = 2
ERR_HOLD_TIMER_EXPIRED = 4
ERR_CEASE = 6

# OPEN message error subcodes (RFC 4271 section 6.2).
OPEN_ERR_UNSUPPORTED_VERSION = 1
OPEN_ERR_BAD_PEER_AS = 2
OPEN_ERR_BAD_BGP_ID = 3
OPEN_ERR_UNACCEPTABLE_HOLD_TIME = 6

# OPEN optional parameter and capability codes (RFC 5492 / 6793).
PARAM_CAPABILITIES = 2
CAP_MULTIPROTOCOL = 1
CAP_ROUTE_REFRESH = 2
CAP_AS4 = 65

# RFC 6793: 2-byte stand-in AS for speakers with a 4-byte AS number.
AS_TRANS = 23456


class BgpError(ValueError):
    """Raised on malformed BGP messages."""


# NLRI layout by prefix length (RFC 4271 section 4.3): a length byte,
# then the fewest address bytes that hold ``length`` bits.  Read as one
# big-endian integer, an NLRI is ``_NLRI_TAG[length] | address >>
# _NLRI_SHIFT[length]`` in ``_NLRI_SIZE[length]`` bytes; that integer is
# a prefix's :attr:`Prefix.key`.
_NLRI_SIZE = [1 + (length + 7) // 8 for length in range(33)]
_NLRI_SHIFT = [40 - 8 * size for size in _NLRI_SIZE]
_NLRI_TAG = [length << (8 * size - 8) for length, size in enumerate(_NLRI_SIZE)]

# One alternative per NLRI size: a length byte in 17-24, 9-16, 25-32,
# 1-8 or 0, then its 3, 2, 4, 1 or 0 address bytes.  /17-/24 comes
# first: over half of a global table is /24.
_NLRI_RUN = re.compile(
    rb"[\x11-\x18]...|[\x09-\x10]..|[\x19-\x20]....|[\x01-\x08].|\x00",
    re.DOTALL,
)

_new_tuple = tuple.__new__
_new_object = object.__new__


def decode_nlri(data: bytes) -> list[int]:
    """Parse a run of NLRI-encoded prefixes into their keys.

    Each key is the NLRI read as one big-endian integer, the
    :attr:`Prefix.key` of the prefix it encodes.  The run is split in
    one ``findall``; the parts tile it exactly when every length byte
    is at most 32 and no prefix is cut short, and otherwise
    :func:`_nlri_error` names the first fault.
    """
    parts = _NLRI_RUN.findall(data)
    # Matches never overlap, so they tile the run when their bytes add
    # up to it; joining them is the cheapest way to add up.
    if len(b"".join(parts)) != len(data):
        raise _nlri_error(data)
    return list(map(int.from_bytes, parts, repeat("big")))


def _nlri_error(data: bytes) -> BgpError:
    """The error of the first malformed NLRI in ``data``."""
    size = _NLRI_SIZE
    end = len(data)
    i = 0
    while i < end:
        length = data[i]
        if length > 32:
            return BgpError(f"bad prefix length {length}")
        i += size[length]
    return BgpError("truncated prefix")


def encode_nlri(keys) -> list[bytes]:
    """The NLRI wire form of each key, in order.

    A key's length byte is its top byte, so its bit length gives its
    size; the /0 key, 0, takes the one length byte.
    """
    return [key.to_bytes((key.bit_length() + 7) >> 3 or 1, "big") for key in keys]


class Prefix(tuple):
    """An IPv4 prefix in CIDR form, held in its wire form.

    A prefix is its 32-bit network address and its NLRI bytes (the
    length byte, then the fewest address bytes that hold ``length``
    bits), both built at construction.  ``encode`` returns the stored
    bytes; ``network`` and ``str()`` render the dotted quad on demand.
    Host bits are part of the value: ``Prefix("10.0.0.1", 8) !=
    Prefix("10.0.0.0", 8)`` although both encode alike.

    ``network`` is parsed when the prefix is built, so a malformed
    dotted quad raises :class:`~repro.wire.ip.IpError` at construction
    rather than at the first ``encode``, and the network reads back in
    canonical form (``Prefix("010.0.0.0", 8).network == "10.0.0.0"``).

    Underneath, a prefix is the immutable tuple ``(address, length,
    nlri)``.  Tables and UPDATEs do not hold prefixes: a RIB is keyed on
    :attr:`key`, the NLRI read as one big-endian integer, and an UPDATE
    holds its NLRI bytes; both build a prefix only when one is read
    (:meth:`from_key`).
    """

    __slots__ = ()

    def __new__(cls, network: str, length: int) -> "Prefix":
        # Checked before the network is parsed: a bad length is reported
        # ahead of a bad dotted quad.
        if not 0 <= length <= 32:
            raise BgpError(f"bad prefix length {length}")
        return cls.from_int(int.from_bytes(ip_to_bytes(network), "big"), length)

    @classmethod
    def from_int(cls, address: int, length: int) -> "Prefix":
        """The prefix of a network address given as a 32-bit integer."""
        if not 0 <= length <= 32:
            raise BgpError(f"bad prefix length {length}")
        if not 0 <= address <= 0xFFFFFFFF:
            raise IpError(f"bad IPv4 address {address:#x}")
        nlri = (_NLRI_TAG[length] | address >> _NLRI_SHIFT[length]).to_bytes(
            _NLRI_SIZE[length], "big"
        )
        return _new_tuple(cls, (address, length, nlri))

    @classmethod
    def from_key(cls, key: int) -> "Prefix":
        """The prefix whose NLRI is ``key`` (see :attr:`key`).

        The key's length byte is its top byte, so its bit length gives
        the NLRI size; the /0 key, 0, is the one length byte.
        """
        top = 8 * ((key.bit_length() + 7) >> 3 or 1) - 8
        length = key >> top
        if length > 32:
            raise BgpError(f"bad prefix length {length}")
        return cls.from_int((key ^ length << top) << _NLRI_SHIFT[length], length)

    length = property(itemgetter(1), doc="The prefix length in bits.")
    nlri = property(itemgetter(2), doc="The NLRI wire form.")

    @property
    def key(self) -> int:
        """The NLRI read as one big-endian integer.

        An int hashes far faster than the tuple: this is what RIBs key
        on.  It holds what the wire holds, so host bits past the NLRI's
        last byte are not part of it: ``Prefix("10.0.0.1", 8).key ==
        Prefix("10.0.0.0", 8).key``, although the prefixes differ.
        """
        return int.from_bytes(self[2], "big")

    @property
    def network(self) -> str:
        """The network address as a dotted quad."""
        return ".".join(map(str, self[0].to_bytes(4, "big")))

    def __str__(self) -> str:
        return f"{self.network}/{self[1]}"

    def __repr__(self) -> str:
        return f"Prefix(network={self.network!r}, length={self[1]!r})"

    def __reduce__(self):
        return (self.from_int, (self[0], self[1]))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.0.0/8"`` notation."""
        network, _, length = text.partition("/")
        return cls(network, int(length))

    def encode(self) -> bytes:
        """NLRI wire form: length byte + minimal network bytes."""
        return self[2]


# ----------------------------------------------------------------------
# Messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpenMessage:
    """BGP OPEN: version, AS, hold time, router ID, capabilities.

    ``my_as`` is the speaker's *true* AS number; values above 65535 are
    carried per RFC 6793 (AS_TRANS in the fixed field plus the AS4
    capability).  ``capabilities`` holds further ``(code, value)``
    pairs (RFC 5492); the AS4 capability is managed automatically.
    """

    my_as: int
    hold_time_s: int
    bgp_id: str
    version: int = 4
    capabilities: tuple[tuple[int, bytes], ...] = ()

    type_code = TYPE_OPEN

    def body(self) -> bytes:
        caps = list(self.capabilities)
        wire_as = self.my_as
        if self.my_as > 0xFFFF:
            wire_as = AS_TRANS
            caps = [c for c in caps if c[0] != CAP_AS4]
            caps.append((CAP_AS4, struct.pack("!I", self.my_as)))
        params = b""
        for code, value in caps:
            capability = struct.pack("!BB", code, len(value)) + value
            params += struct.pack(
                "!BB", PARAM_CAPABILITIES, len(capability)
            ) + capability
        return struct.pack(
            "!BHH4sB",
            self.version,
            wire_as,
            self.hold_time_s,
            ip_to_bytes(self.bgp_id),
            len(params),
        ) + params

    @classmethod
    def from_body(cls, body: bytes) -> "OpenMessage":
        if len(body) < 10:
            raise BgpError("OPEN too short")
        version, my_as, hold_time, bgp_id, opt_len = struct.unpack_from(
            "!BHH4sB", body
        )
        if 10 + opt_len > len(body):
            raise BgpError("OPEN optional parameters truncated")
        capabilities = []
        i = 10
        end = 10 + opt_len
        while i < end:
            if i + 2 > end:
                raise BgpError("truncated OPEN optional parameter")
            param_type, param_len = body[i], body[i + 1]
            i += 2
            if i + param_len > end:
                raise BgpError("OPEN optional parameter overruns")
            if param_type == PARAM_CAPABILITIES:
                j = i
                while j < i + param_len:
                    if j + 2 > i + param_len:
                        raise BgpError("truncated capability")
                    code, cap_len = body[j], body[j + 1]
                    j += 2
                    if j + cap_len > i + param_len:
                        raise BgpError("capability overruns")
                    capabilities.append((code, body[j : j + cap_len]))
                    j += cap_len
            i += param_len
        true_as = my_as
        kept = []
        for code, value in capabilities:
            if code == CAP_AS4 and len(value) == 4:
                (true_as,) = struct.unpack("!I", value)
            else:
                kept.append((code, value))
        return cls(my_as=true_as, hold_time_s=hold_time,
                   bgp_id=bytes_to_ip(bgp_id), version=version,
                   capabilities=tuple(kept))


class UpdateMessage:
    """BGP UPDATE: withdrawals plus one attribute set with its NLRI.

    A message holds its wire form: the withdrawn-routes run, the
    path-attribute block and the NLRI run as bytes, beside the decoded
    ``attributes``.  :meth:`body` joins the held bytes, so a decoded
    message re-encodes to exactly the body it came from.

    ``announced`` and ``withdrawn`` build :class:`Prefix` tuples when
    read.  ``announced_keys`` and ``withdrawn_keys`` are the
    :attr:`Prefix.key` ints a RIB or MCT's seen-set files directly;
    :meth:`from_body` decodes them in the pass that checks each NLRI
    run, while a message built for sending decodes nothing unless
    asked.  Two messages are equal when they carry the same NLRI and
    withdrawn bytes and equal attributes.
    """

    __slots__ = (
        "_withdrawn", "_attribute_block", "_attributes", "_nlri",
        "_withdrawn_keys", "_announced_keys",
    )

    type_code = TYPE_UPDATE

    def __init__(
        self,
        announced: tuple[Prefix, ...] = (),
        attributes: PathAttributes | None = None,
        withdrawn: tuple[Prefix, ...] = (),
    ) -> None:
        self._withdrawn = b"".join([p.nlri for p in withdrawn])
        self._attribute_block = (
            attributes.encode() if attributes is not None else b""
        )
        self._attributes = attributes
        self._nlri = b"".join([p.nlri for p in announced])
        self._withdrawn_keys = self._announced_keys = None

    @classmethod
    def from_wire(
        cls,
        nlri: bytes,
        attributes: PathAttributes | None,
        attribute_block: bytes,
        withdrawn: bytes = b"",
    ) -> "UpdateMessage":
        """A message from bytes already in wire form.

        The caller vouches that ``nlri`` and ``withdrawn`` are whole
        NLRI runs and that ``attribute_block`` is ``attributes.encode()``:
        a table transfer encodes each attribute set once for all the
        UPDATEs that share it.
        """
        update = _new_object(cls)
        update._withdrawn = withdrawn
        update._attribute_block = attribute_block
        update._attributes = attributes
        update._nlri = nlri
        update._withdrawn_keys = update._announced_keys = None
        return update

    @property
    def attributes(self) -> PathAttributes | None:
        """The path attributes, or None when the UPDATE only withdraws."""
        return self._attributes

    @property
    def announced_keys(self) -> tuple[int, ...]:
        """The keys of the announced prefixes, in wire order."""
        keys = self._announced_keys
        return tuple(decode_nlri(self._nlri)) if keys is None else keys

    @property
    def withdrawn_keys(self) -> tuple[int, ...]:
        """The keys of the withdrawn prefixes, in wire order."""
        keys = self._withdrawn_keys
        return tuple(decode_nlri(self._withdrawn)) if keys is None else keys

    @property
    def announced(self) -> tuple[Prefix, ...]:
        """The announced prefixes, built on each read."""
        return tuple(map(Prefix.from_key, self.announced_keys))

    @property
    def withdrawn(self) -> tuple[Prefix, ...]:
        """The withdrawn prefixes, built on each read."""
        return tuple(map(Prefix.from_key, self.withdrawn_keys))

    def _wire(self) -> tuple:
        return (self._withdrawn, self._nlri, self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpdateMessage):
            return NotImplemented
        return self._wire() == other._wire()

    def __hash__(self) -> int:
        return hash(self._wire())

    def __repr__(self) -> str:
        return (
            f"UpdateMessage(announced={self.announced!r}, "
            f"attributes={self._attributes!r}, withdrawn={self.withdrawn!r})"
        )

    def body(self) -> bytes:
        withdrawn, block = self._withdrawn, self._attribute_block
        return b"".join((
            _U16.pack(len(withdrawn)), withdrawn,
            _U16.pack(len(block)), block,
            self._nlri,
        ))

    @classmethod
    def from_body(cls, body: bytes) -> "UpdateMessage":
        """Parse and check an UPDATE body; every error is a BgpError."""
        if len(body) < 4:
            raise BgpError("UPDATE too short")
        (withdrawn_len,) = _U16.unpack_from(body, 0)
        i = 2 + withdrawn_len
        if i + 2 > len(body):
            raise BgpError("UPDATE truncated after withdrawals")
        withdrawn = body[2:i]
        withdrawn_keys = tuple(decode_nlri(withdrawn)) if withdrawn else ()
        (attr_len,) = _U16.unpack_from(body, i)
        i += 2
        if i + attr_len > len(body):
            raise BgpError("UPDATE truncated in attributes")
        block = body[i : i + attr_len]
        try:
            attributes = PathAttributes.decode(block) if block else None
        except (AttributeError_, IpError) as exc:
            raise BgpError(str(exc)) from exc
        nlri = body[i + attr_len :]
        update = cls.from_wire(nlri, attributes, block, withdrawn)
        update._withdrawn_keys = withdrawn_keys
        update._announced_keys = tuple(decode_nlri(nlri))
        return update


@dataclass(frozen=True)
class KeepaliveMessage:
    """BGP KEEPALIVE: header only."""

    type_code = TYPE_KEEPALIVE

    def body(self) -> bytes:
        return b""

    @classmethod
    def from_body(cls, body: bytes) -> "KeepaliveMessage":
        if body:
            raise BgpError("KEEPALIVE must have an empty body")
        return cls()


@dataclass(frozen=True)
class NotificationMessage:
    """BGP NOTIFICATION: error code/subcode and diagnostic data."""

    error_code: int
    error_subcode: int = 0
    data: bytes = b""

    type_code = TYPE_NOTIFICATION

    def body(self) -> bytes:
        return bytes([self.error_code, self.error_subcode]) + self.data

    @classmethod
    def from_body(cls, body: bytes) -> "NotificationMessage":
        if len(body) < 2:
            raise BgpError("NOTIFICATION too short")
        return cls(error_code=body[0], error_subcode=body[1], data=body[2:])


BgpMessage = OpenMessage | UpdateMessage | KeepaliveMessage | NotificationMessage

_BODY_PARSERS = {
    TYPE_OPEN: OpenMessage.from_body,
    TYPE_UPDATE: UpdateMessage.from_body,
    TYPE_KEEPALIVE: KeepaliveMessage.from_body,
    TYPE_NOTIFICATION: NotificationMessage.from_body,
}


def encode_message(message: BgpMessage) -> bytes:
    """Wrap a message body in the 19-byte BGP header."""
    body = message.body()
    length = HEADER_LEN + len(body)
    if length > MAX_MESSAGE_LEN:
        raise BgpError(f"message of {length} bytes exceeds 4096")
    return MARKER + struct.pack("!HB", length, message.type_code) + body


def decode_message(data: bytes) -> BgpMessage:
    """Parse exactly one complete BGP message."""
    if len(data) < HEADER_LEN:
        raise BgpError("truncated header")
    if data[:16] != MARKER:
        raise BgpError("bad marker")
    length, type_code = _LENGTH_TYPE.unpack_from(data, 16)
    if not HEADER_LEN <= length <= MAX_MESSAGE_LEN:
        raise BgpError(f"bad message length {length}")
    if len(data) < length:
        raise BgpError("truncated body")
    parser = _BODY_PARSERS.get(type_code)
    if parser is None:
        raise BgpError(f"unknown message type {type_code}")
    message = parser(data[HEADER_LEN:length])
    if length != len(data):
        raise BgpError(f"{len(data) - length} trailing bytes")
    return message


class MessageDecoder:
    """Incremental decoder over a reassembled TCP byte stream.

    Feed bytes as they arrive; complete messages pop out.  Used by the
    BGP speaker's receive path and by ``pcap2bgp``.  Each feed frames
    every complete message at its offset in the buffered bytes (one
    length/type unpack, one marker compare, one body slice) and drops
    the consumed bytes once, at the end of the feed.

    With ``resync=True`` the decoder never raises: after a malformed
    message it scans forward for the next 16-byte all-ones marker and
    resumes there, containing the blast radius to one message instead
    of the whole session (the spirit of RFC 7606).  Every skip is
    counted in ``resync_count`` / ``bytes_skipped`` and reported to the
    optional ``on_issue(kind, bytes_lost, detail)`` callback.  Without
    it the first malformed message raises :class:`BgpError`; the bytes
    before that message are consumed all the same.
    """

    def __init__(self, resync: bool = False, on_issue=None) -> None:
        self._buffer = b""
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
        """Account for ``count`` discarded stream bytes."""
        self.resync_count += 1
        self.bytes_skipped += count
        if self.on_issue is not None:
            self.on_issue(kind, count, detail)

    def feed(self, data: bytes) -> list[BgpMessage]:
        """Append stream bytes and return all newly completed messages."""
        buf = self._buffer + data
        end = len(buf)
        start = 0
        parsers = _BODY_PARSERS
        messages: list[BgpMessage] = []
        try:
            while end - start >= HEADER_LEN:
                if not buf.startswith(MARKER, start):
                    if not self.resync:
                        raise BgpError("stream desynchronized: bad marker")
                    position = buf.find(MARKER, start + 1)
                    if position < 0:
                        # Keep a marker-length tail: it may be a prefix
                        # of a marker whose remainder is still in flight.
                        keep = end - len(MARKER) + 1
                        self._skip(keep - start, "bad-marker",
                                   "no marker in buffered stream")
                        start = keep
                        break
                    self._skip(position - start, "bad-marker",
                               f"marker found {position - start} bytes ahead")
                    start = position
                    continue
                length, type_code = _LENGTH_TYPE.unpack_from(buf, start + 16)
                if not HEADER_LEN <= length <= MAX_MESSAGE_LEN:
                    if not self.resync:
                        raise BgpError(f"bad message length {length}")
                    self._skip(1, "bad-length", f"message length {length}")
                    start += 1
                    continue
                stop = start + length
                if stop > end:
                    break
                parser = parsers.get(type_code)
                try:
                    if parser is None:
                        raise BgpError(f"unknown message type {type_code}")
                    message = parser(buf[start + HEADER_LEN:stop])
                except BgpError as exc:
                    if not self.resync:
                        raise
                    # The framing was sound but the body was not: drop
                    # exactly this message and continue with the next.
                    self._skip(length, "malformed-message", str(exc))
                else:
                    messages.append(message)
                start = stop
        finally:
            self._buffer = buf[start:]
            self.messages_decoded += len(messages)
        return messages
