"""Differential suite: the fused frame decoder vs. the layered one.

``frames.parse_packet`` (the analyzer's single-pass decoder) must
agree with ``frames.parse_frame`` (the layer-object decoder that
``anonymize`` rebuilds frames from) on every real frame, and raise the
same ``FrameError`` on damaged ones.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.fuzz import clean_trace_bytes
from repro.wire import frames
from repro.wire.pcap import read_pcap


@pytest.fixture(scope="module")
def clean_blob():
    """One deterministic monitored table transfer, as pcap bytes."""
    return clean_trace_bytes(table_prefixes=800, duration_s=60)


class TestFrameDecodeDifferential:
    """parse_packet (fused) vs. parse_frame (layered) over real frames."""

    def test_corpus_frames_identical(self, clean_blob):
        records = read_pcap(io.BytesIO(clean_blob), tolerant=True)
        assert records
        for record in records:
            parsed = frames.parse_frame(record.data)
            fields = frames.parse_packet(record.data)
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
            parsed = frames.parse_frame(blob)
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


def _damage_corpus() -> list[bytes]:
    blob = clean_trace_bytes(table_prefixes=50, duration_s=30)
    records = read_pcap(io.BytesIO(blob), tolerant=True)
    return [record.data for record in records[:24]]


_DAMAGE_CORPUS = _damage_corpus()
