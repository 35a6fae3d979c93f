"""The wire-native prefix codec against the dotted-quad oracle.

``prefix_oracle`` is the original string-based ``Prefix`` and
``decode_prefixes``, kept as a test oracle.  The properties below give
both the same inputs and require the same NLRI bytes, the same
``str()``, the same decoded prefixes and the same errors.  The one
intended difference: a bad dotted quad raises ``IpError`` when the
wire-native prefix is built, and only at ``encode`` in the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.messages import BgpError, Prefix, decode_prefixes
from repro.wire.ip import IpError
from tests.bgp import prefix_oracle as oracle

addresses = st.integers(min_value=0, max_value=0xFFFFFFFF)
lengths = st.integers(min_value=0, max_value=32)
quads = addresses.map(lambda a: ".".join(str(b) for b in a.to_bytes(4, "big")))
prefix_args = st.tuples(quads, lengths)
# Dotted quads that may be malformed, and lengths that may be out of range.
networks = quads | st.text(alphabet="0123456789.x -", max_size=18)
any_lengths = st.integers(min_value=-3, max_value=40)


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
    assert decoded(decode_prefixes, blob) == decoded(oracle.decode_prefixes, blob)
    assert [Prefix.parse(str(p)) for p in new] == new


@settings(max_examples=300, deadline=None)
@given(prefix_args, prefix_args)
def test_equality_matches_the_oracle(a, b):
    assert (Prefix(*a) == Prefix(*b)) == (oracle.Prefix(*a) == oracle.Prefix(*b))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=48))
def test_arbitrary_nlri_bytes_decode_alike(data):
    assert decoded(decode_prefixes, data) == decoded(oracle.decode_prefixes, data)


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
    assert decoded(decode_prefixes, b"\x18\x0a\x00") == (
        "BgpError", "truncated prefix"
    )
    assert decoded(decode_prefixes, b"\x21" + bytes(5)) == (
        "BgpError", "bad prefix length 33"
    )
