"""The wire-native prefix codec against the dotted-quad oracle.

``prefix_oracle`` is the original string-based ``Prefix`` and
``decode_prefixes``, kept as a test oracle; ``decode_prefixes`` has
left ``repro.bgp.messages``, where :func:`decode_nlri` decodes NLRI
runs to packed keys instead.  The properties below give both codecs the
same inputs and require the same NLRI bytes, the same ``str()``, the
same decoded prefixes and the same errors.  The one intended
difference: a bad dotted quad raises ``IpError`` when the wire-native
prefix is built, and only at ``encode`` in the oracle.

The UPDATE properties check that a message holds its wire form and
that a resyncing decoder contains every malformed message.
"""

from itertools import accumulate, cycle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import (
    AS_PATH,
    FLAG_EXTENDED_LENGTH,
    FLAG_OPTIONAL,
    FLAG_TRANSITIVE,
    LOCAL_PREF,
    MULTI_EXIT_DISC,
    NEXT_HOP,
    ORIGIN,
    PathAttributes,
)
from repro.bgp.header import MARKER
from repro.bgp.messages import (
    BgpError,
    MessageDecoder,
    Prefix,
    UpdateMessage,
    decode_nlri,
    encode_message,
)
from repro.wire.ip import IpError
from tests.bgp import prefix_oracle as oracle

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.integers(min_value=0, max_value=32)
quads = addresses.map(lambda a: ".".join(str(b) for b in a.to_bytes(4, "big")))
prefix_args = st.tuples(quads, lengths)
# Dotted quads that may be malformed, and lengths that may be out of range.
networks = quads | st.text(alphabet="0123456789.x -", max_size=18)
any_lengths = st.integers(min_value=-3, max_value=40)


def decode_keys(data: bytes) -> list[Prefix]:
    """The prefixes of an NLRI run, through its packed keys."""
    return [Prefix.from_key(key) for key in decode_nlri(data)]


def outcome(make):
    """``("ok", nlri)`` or the error's type and message."""
    try:
        return ("ok", make().encode())
    except (BgpError, IpError) as exc:
        return (type(exc).__name__, str(exc))


def decoded(decode, data):
    """``(str, nlri)`` of every decoded prefix, or the error."""
    try:
        return [(str(p), p.encode()) for p in decode(data)]
    except (BgpError, IpError) as exc:
        return (type(exc).__name__, str(exc))


@settings(max_examples=300, deadline=None)
@given(st.lists(prefix_args, max_size=40))
def test_prefix_runs_encode_and_decode_alike(args):
    new = [Prefix(network, length) for network, length in args]
    old = [oracle.Prefix(network, length) for network, length in args]
    assert [str(p) for p in new] == [str(p) for p in old]
    blob = b"".join(p.encode() for p in new)
    assert blob == b"".join(p.encode() for p in old)
    assert decoded(decode_keys, blob) == decoded(oracle.decode_prefixes, blob)
    assert [Prefix.parse(str(p)) for p in new] == new


@settings(max_examples=300, deadline=None)
@given(prefix_args, prefix_args)
def test_equality_matches_the_oracle(a, b):
    assert (Prefix(*a) == Prefix(*b)) == (oracle.Prefix(*a) == oracle.Prefix(*b))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48))
def test_arbitrary_nlri_bytes_decode_alike(data):
    assert decoded(decode_keys, data) == decoded(oracle.decode_prefixes, data)


@settings(max_examples=300, deadline=None)
@given(networks, any_lengths)
def test_construction_errors_match_the_oracle(network, length):
    assert outcome(lambda: Prefix(network, length)) == outcome(
        lambda: oracle.Prefix(network, length)
    )


def test_error_kinds_are_covered():
    assert outcome(lambda: Prefix("10.0.0.0", 33)) == (
        "BgpError", "bad prefix length 33"
    )
    assert outcome(lambda: Prefix("10.0.0.256", 24))[0] == "IpError"
    assert decoded(decode_keys, b"\x18\x0a\x00") == (
        "BgpError", "truncated prefix"
    )
    assert decoded(decode_keys, b"\x21" + bytes(5)) == (
        "BgpError", "bad prefix length 33"
    )


@settings(max_examples=300, deadline=None)
@given(addresses, lengths)
def test_from_key_inverts_key(address, length):
    prefix = Prefix.from_int(address, length)  # host bits and all
    assert prefix.key == address << 6 | length
    assert Prefix.from_key(prefix.key) == prefix


# ----------------------------------------------------------------------
# UPDATE bodies
# ----------------------------------------------------------------------
def attribute(flags: int, type_code: int, body: bytes) -> bytes:
    if flags & FLAG_EXTENDED_LENGTH:
        return bytes([flags, type_code]) + len(body).to_bytes(2, "big") + body
    return bytes([flags, type_code, len(body)]) + body


u32 = st.integers(min_value=0, max_value=0xFFFFFFFF).map(
    lambda v: v.to_bytes(4, "big")
)
as_segment = st.tuples(
    st.sampled_from([1, 2]), st.lists(st.integers(0, 0xFFFF), min_size=1,
                                       max_size=6),
).map(lambda s: bytes([s[0], len(s[1])])
      + b"".join(asn.to_bytes(2, "big") for asn in s[1]))
# Attributes that decode: the ones PathAttributes reads, with any flags
# (extended length included), plus unknown ones it skips.
known_attribute = st.one_of(
    st.tuples(st.just(ORIGIN), st.binary(min_size=1, max_size=1)),
    st.tuples(st.just(AS_PATH),
              st.lists(as_segment, max_size=3).map(b"".join)),
    st.tuples(st.just(NEXT_HOP), st.binary(min_size=4, max_size=4)),
    st.tuples(st.just(MULTI_EXIT_DISC), u32),
    st.tuples(st.just(LOCAL_PREF), u32),
    st.tuples(st.sampled_from([8, 16, 32, 99]), st.binary(max_size=12)),
)
attribute_blocks = st.lists(
    st.tuples(
        st.sampled_from([FLAG_TRANSITIVE, FLAG_OPTIONAL | FLAG_TRANSITIVE,
                         FLAG_TRANSITIVE | FLAG_EXTENDED_LENGTH]),
        known_attribute,
    ).map(lambda a: attribute(a[0], a[1][0], a[1][1])),
    max_size=6,
).map(b"".join)
nlri_runs = st.lists(st.tuples(addresses, lengths), max_size=20).map(
    lambda args: b"".join(Prefix.from_int(*a).nlri for a in args)
)


def update_body(withdrawn: bytes, block: bytes, nlri: bytes) -> bytes:
    return (len(withdrawn).to_bytes(2, "big") + withdrawn
            + len(block).to_bytes(2, "big") + block + nlri)


@settings(max_examples=300, deadline=None)
@given(nlri_runs, attribute_blocks, nlri_runs)
def test_update_body_round_trips_byte_for_byte(withdrawn, block, nlri):
    body = update_body(withdrawn, block, nlri)
    update = UpdateMessage.from_body(body)
    assert update.body() == body
    assert update.announced_keys == tuple(decode_nlri(nlri))
    assert update.withdrawn_keys == tuple(decode_nlri(withdrawn))
    assert [str(p) for p in update.announced] == [
        str(p) for p in oracle.decode_prefixes(nlri)
    ]
    assert (update.attributes is None) == (block == b"")


updates = st.builds(
    lambda args, asns, med, wide: UpdateMessage(
        announced=tuple(Prefix.from_int(a, l) for a, l in args),
        attributes=PathAttributes.from_path(
            [asn + (4_200_000_000 if wide else 0) for asn in asns],
            next_hop="10.0.0.1", med=med,
        ),
        withdrawn=tuple(Prefix.from_int(a, l) for a, l in args[:1]),
    ),
    st.lists(st.tuples(addresses, lengths), min_size=1, max_size=8),
    st.lists(st.integers(1, 64000), max_size=4),
    st.none() | st.integers(0, 1000),
    st.booleans(),
)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(updates, min_size=1, max_size=4),
    st.lists(
        st.tuples(st.integers(0, 1 << 16),
                  st.integers(0, 8) | st.integers(0, 255)),
        min_size=1, max_size=6,
    ),
    st.lists(st.integers(1, 64), min_size=1, max_size=8),
)
def test_resync_decoder_never_raises_on_mangled_updates(
    messages, damage, chunks
):
    encoded = [encode_message(m) for m in messages]
    stream = bytearray(b"".join(encoded))
    # Damage lands past the markers, often as a small value: that is
    # where a bad attribute or prefix length hides behind sound framing.
    starts = accumulate([0] + [len(raw) for raw in encoded])
    offsets = [
        start + i
        for start, raw in zip(starts, encoded)
        for i in range(len(MARKER), len(raw))
    ]
    for position, value in damage:
        stream[offsets[position % len(offsets)]] = value
    decoder = MessageDecoder(resync=True)
    sizes = cycle(chunks)
    offset = 0
    while offset < len(stream):
        size = next(sizes)
        decoder.feed(bytes(stream[offset:offset + size]))
        offset += size
    assert decoder.pending_bytes <= len(stream)
