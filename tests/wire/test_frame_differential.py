"""``build_frame`` and ``ip.checksum`` against the layered oracle.

``repro.wire.frames.build_frame`` packs a frame's three headers at once
and sums both checksums from the header fields; ``repro.wire.ip.checksum``
is one big-integer remainder.  ``tests.wire.frame_oracle`` keeps the
encoders they replaced (the layer chain and the word-at-a-time sum):
every frame and every checksum must be the same bytes.
"""

import hashlib
import io
import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wire import ip, tcpw
from repro.wire.frames import build_frame
from repro.wire.pcap import read_pcap
from repro.workloads.campaign import campaign_config, run_episode, zero_ack_bug_spec

from tests.wire import frame_oracle
from tests.workloads.test_campaign_identity import CAPTURE_SHA256


@st.composite
def checksum_inputs(draw):
    """0-3,000 bytes, random, all-zero or all-0xFF, in any buffer type."""
    length = draw(st.integers(min_value=0, max_value=3000))
    fill = draw(st.sampled_from(["random", "zero", "ones"]))
    if fill == "random":
        seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        data = random.Random(seed).randbytes(length)
    else:
        data = (b"\x00" if fill == "zero" else b"\xff") * length
    kind = draw(st.sampled_from(["bytes", "bytearray", "memoryview"]))
    if kind == "bytearray":
        return bytearray(data)
    if kind == "memoryview":
        # A slice off a non-zero offset of a larger buffer.
        lead = draw(st.integers(min_value=0, max_value=3))
        return memoryview(b"\xa5" * lead + data + b"\x5a")[lead : lead + length]
    return data


@settings(max_examples=300, deadline=None)
@given(checksum_inputs())
def test_checksum_matches_the_word_sum(data):
    assert ip.checksum(data) == frame_oracle.checksum(data)


def test_checksum_edges_match_the_word_sum():
    # Remainders of 0 with and without data, and a single odd byte.
    for data in (b"", b"\x00", b"\x00\x00", b"\xff\xff", b"\xff" * 3,
                 b"\xff\xfe\x00\x01", b"\x01"):
        assert ip.checksum(data) == frame_oracle.checksum(data)


addresses = st.tuples(*[st.integers(min_value=0, max_value=255)] * 4).map(
    lambda octets: ".".join(map(str, octets))
)
u16 = st.integers(min_value=0, max_value=0xFFFF)
# At and past 2**32: the encoders keep the low 32 bits.
wide = st.integers(min_value=0, max_value=2**33)


@st.composite
def tcp_headers(draw):
    return tcpw.TcpHeader(
        src_port=draw(u16),
        dst_port=draw(u16),
        seq=draw(wide),
        ack=draw(wide),
        flags=draw(st.integers(min_value=0, max_value=0xFF)),
        window=draw(u16),
        payload=draw(st.binary(max_size=1460)),
        mss_option=draw(st.none() | u16),
        wscale_option=draw(st.none() | st.integers(min_value=0, max_value=14)),
        sack_permitted=draw(st.booleans()),
        sack_blocks=tuple(draw(st.lists(st.tuples(wide, wide), max_size=5))),
        urgent=draw(u16),
    )


def _outcome(build, *args):
    try:
        return build(*args)
    except (struct.error, ValueError) as exc:
        # Options past 40 bytes overflow the data offset in both.
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(addresses, addresses, tcp_headers(), u16,
       st.integers(min_value=0, max_value=0xFF))
def test_build_frame_matches_the_layer_chain(src, dst, header, ident, ttl):
    args = (src, dst, header, ident, ttl)
    assert _outcome(build_frame, *args) == _outcome(
        frame_oracle.build_frame, *args
    )


def test_pinned_episode_frames_carry_valid_checksums():
    spec = zero_ack_bug_spec(campaign_config("ISP_A-Quagga"))
    out = io.BytesIO()
    run_episode(spec, pcap_out=out)
    blob = out.getvalue()
    assert hashlib.sha256(blob).hexdigest() == CAPTURE_SHA256["zero-ack-bug"]
    records = read_pcap(io.BytesIO(blob))
    assert records
    for record in records:
        # Raises FrameError on a bad IPv4 or TCP checksum.
        frame_oracle.parse_frame(record.data, verify_checksums=True)
