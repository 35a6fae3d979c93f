"""The offset-framing ``MessageDecoder`` against the copying oracle.

Streams of OPEN, UPDATE, KEEPALIVE and NOTIFICATION messages, some
damaged (a bad marker, a length outside 19-4096, a malformed UPDATE
attribute, an unknown type, a truncated tail), are fed in random
chunkings to ``repro.bgp.messages.MessageDecoder`` and to the decoder
it replaced, ``tests.bgp.decoder_oracle``.  After every feed both must
agree on the messages, the counters, the pending bytes and the
``on_issue`` calls; without resync both must raise the same
``BgpError`` text at the same feed.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import PathAttributes
from repro.bgp.header import MARKER
from repro.bgp.messages import (
    BgpError,
    KeepaliveMessage,
    MessageDecoder,
    NotificationMessage,
    OpenMessage,
    Prefix,
    UpdateMessage,
    encode_message,
)

from tests.bgp import decoder_oracle

# An UPDATE whose ORIGIN attribute is 2 bytes long.
_BAD_ORIGIN_BODY = b"\x00\x00\x00\x05" + b"\x40\x01\x02\x00\x00"


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(["open", "update", "keepalive", "notification"]))
    if kind == "open":
        return OpenMessage(
            my_as=draw(st.integers(min_value=1, max_value=2**32 - 1)),
            hold_time_s=draw(st.integers(min_value=0, max_value=0xFFFF)),
            bgp_id="10.0.0.1",
        )
    if kind == "keepalive":
        return KeepaliveMessage()
    if kind == "notification":
        return NotificationMessage(
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=0, max_value=11)),
            draw(st.binary(max_size=8)),
        )
    prefixes = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=0, max_value=32),
        ).map(lambda p: Prefix.from_int(p[0] >> (32 - p[1]) << (32 - p[1]), p[1])),
        max_size=20,
    ))
    withdrawn = draw(st.lists(st.sampled_from(prefixes), max_size=3)) if prefixes else []
    attributes = PathAttributes.from_path(
        draw(st.lists(st.integers(min_value=1, max_value=70000), max_size=4)),
        "10.0.0.1",
    ) if prefixes else None
    return UpdateMessage(
        announced=tuple(prefixes) if attributes else (),
        attributes=attributes,
        withdrawn=tuple(withdrawn),
    )


@st.composite
def pieces(draw):
    """One message's bytes, sound or with one kind of damage."""
    raw = bytearray(encode_message(draw(messages())))
    damage = draw(st.sampled_from(
        ["none", "none", "marker", "length", "attribute", "type", "garbage"]
    ))
    if damage == "marker":
        raw[draw(st.integers(min_value=0, max_value=15))] ^= draw(
            st.integers(min_value=1, max_value=0xFF)
        )
    elif damage == "length":
        length = draw(
            st.integers(min_value=0, max_value=18)
            | st.integers(min_value=4097, max_value=0xFFFF)
        )
        raw[16:18] = length.to_bytes(2, "big")
    elif damage == "attribute":
        raw = bytearray(
            MARKER + (19 + len(_BAD_ORIGIN_BODY)).to_bytes(2, "big") + b"\x02"
            + _BAD_ORIGIN_BODY
        )
    elif damage == "type":
        raw[18] = draw(st.sampled_from([0, 5, 6, 0xFF]))
    elif damage == "garbage":
        raw = bytearray(draw(st.binary(min_size=1, max_size=40))) + raw
    return bytes(raw)


@st.composite
def chunked_streams(draw):
    stream = b"".join(draw(st.lists(pieces(), min_size=1, max_size=12)))
    if draw(st.booleans()):
        # A truncated tail: the stream ends inside a message.
        stream = stream[: draw(st.integers(min_value=0, max_value=len(stream)))]
    # Chunks of 1 to ``widest`` bytes: byte by byte up to the whole stream.
    widest = draw(st.integers(min_value=1, max_value=max(len(stream), 1)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    chunks = []
    i = 0
    while i < len(stream):
        size = rng.randint(1, widest)
        chunks.append(stream[i : i + size])
        i += size
    return chunks


def _feed(decoder, chunk):
    try:
        return decoder.feed(chunk)
    except BgpError as exc:
        return ("raised", str(exc))


def _state(decoder, issues):
    return (
        decoder.resync_count, decoder.bytes_skipped, decoder.pending_bytes,
        decoder.messages_decoded, list(issues),
    )


@settings(max_examples=400, deadline=None)
@given(chunked_streams(), st.booleans())
def test_offset_framing_matches_the_copying_decoder(chunks, resync):
    new_issues, old_issues = [], []
    new = MessageDecoder(resync=resync, on_issue=lambda *a: new_issues.append(a))
    old = decoder_oracle.MessageDecoder(
        resync=resync, on_issue=lambda *a: old_issues.append(a)
    )
    for chunk in chunks:
        got = _feed(new, chunk)
        assert got == _feed(old, chunk)
        assert _state(new, new_issues) == _state(old, old_issues)
        if isinstance(got, tuple):
            assert not resync
            break
