"""Differential suite: the frame decoder vs. the layered oracle.

``frames.parse_packet`` (the view of ``decode_fields``, the only frame
decoder) must agree with ``frame_oracle.parse_frame`` (the old
layer-object decoder, kept for tests) on every real frame and on
hand-built frames of other shapes, and raise the same ``FrameError``
on damaged ones.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.fuzz import clean_trace_bytes
from repro.wire import frames
from repro.wire.pcap import read_pcap

from tests.wire.crafted_frames import exotic_frames
from tests.wire.frame_oracle import parse_frame


@pytest.fixture(scope="module")
def clean_blob():
    """One deterministic monitored table transfer, as pcap bytes."""
    return clean_trace_bytes(table_prefixes=800, duration_s=60)


def _damaged_frames() -> dict[str, bytes]:
    """Frames that fail one decode check each (IHL 6, so the checks
    that use the IHL cannot read it as the common 20)."""
    good = exotic_frames()["ip-options"]  # IP at 14, TCP at 38, 63 bytes

    def patched(at: int, value: int) -> bytes:
        data = bytearray(good)
        data[at] = value
        return bytes(data)

    bad_option = bytearray(exotic_frames()["tcp-timestamp"])
    bad_option[57] = 64  # the timestamp option's length, past the header
    return {
        "short-ethernet": good[:13],
        "short-ip": good[:30],
        "version-6": patched(14, 0x66),
        "ihl-4": patched(14, 0x44),
        "ihl-past-capture": good[:37],
        "total-length-below-ihl": patched(17, 22),
        "total-length-past-capture": patched(16, 0xFF),
        "not-tcp": patched(23, 17),
        "short-tcp": patched(17, 43),
        "bad-data-offset": patched(50, 0x40),
        "bad-option": bytes(bad_option),
    }


class TestFrameDecodeDifferential:
    """parse_packet vs. the oracle's parse_frame over real frames."""

    def test_corpus_frames_identical(self, clean_blob):
        records = read_pcap(io.BytesIO(clean_blob), tolerant=True)
        assert records
        for record in records:
            _assert_identical(record.data)

    @pytest.mark.parametrize("shape", sorted(exotic_frames()))
    def test_exotic_frames_identical(self, shape):
        """IP options, TCP timestamps, ECN, DF clear, VLAN, UDP."""
        data = exotic_frames()[shape]
        _assert_identical(data)
        if shape in ("vlan", "udp"):
            with pytest.raises(frames.FrameError, match=r"^not (IPv4|TCP) \("):
                frames.parse_packet(data)
        else:
            assert frames.parse_packet(data).payload[:16] == b"\xff" * 16

    @pytest.mark.parametrize("damage", sorted(_damaged_frames()))
    def test_each_check_fails_identically(self, damage):
        """One frame per failed check, outermost layer first."""
        with pytest.raises(frames.FrameError):
            frames.parse_packet(_damaged_frames()[damage])
        _assert_identical(_damaged_frames()[damage])

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        flips=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=199),
                st.integers(min_value=1, max_value=255),
            ),
            min_size=1,
            max_size=6,
        ),
        cut=st.integers(min_value=0, max_value=80),
    )
    @settings(max_examples=120, deadline=None)
    def test_damaged_frames_raise_identically(self, seed, flips, cut):
        """Mangled bytes: same decode result or the same FrameError."""
        base = _DAMAGE_CORPUS[seed % len(_DAMAGE_CORPUS)]
        data = bytearray(base)
        for offset, xor in flips:
            if data:
                data[offset % len(data)] ^= xor
        blob = bytes(data[: max(len(data) - cut, 0)])
        try:
            parsed = parse_frame(blob)
            reference = ("ok", parsed.flow, parsed.tcp.payload)
        except frames.FrameError as exc:
            reference = ("error", str(exc))
        try:
            fields = frames.parse_packet(blob)
            fast = (
                "ok",
                (fields.src_ip, fields.src_port, fields.dst_ip, fields.dst_port),
                fields.payload,
            )
        except frames.FrameError as exc:
            fast = ("error", str(exc))
        assert fast == reference


def _assert_identical(data: bytes) -> None:
    """Every field equal, or the same FrameError text."""
    try:
        parsed = parse_frame(data)
    except frames.FrameError as exc:
        with pytest.raises(frames.FrameError) as caught:
            frames.parse_packet(data)
        assert str(caught.value) == str(exc)
        return
    fields = frames.parse_packet(data)
    assert fields.src_ip == parsed.ipv4.src
    assert fields.dst_ip == parsed.ipv4.dst
    assert fields.src_port == parsed.tcp.src_port
    assert fields.dst_port == parsed.tcp.dst_port
    assert fields.seq == parsed.tcp.seq
    assert fields.ack == parsed.tcp.ack
    assert fields.flags == parsed.tcp.flags
    assert fields.window == parsed.tcp.window
    assert fields.ip_id == parsed.ipv4.identification
    assert fields.payload == parsed.tcp.payload
    assert fields.mss_option == parsed.tcp.mss_option
    assert fields.wscale_option == parsed.tcp.wscale_option


def _damage_corpus() -> list[bytes]:
    blob = clean_trace_bytes(table_prefixes=50, duration_s=30)
    records = read_pcap(io.BytesIO(blob), tolerant=True)
    return [record.data for record in records[:24]] + list(
        exotic_frames().values()
    )


_DAMAGE_CORPUS = _damage_corpus()
