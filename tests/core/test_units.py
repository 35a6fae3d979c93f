"""Unit tests for time unit helpers."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core import units


def test_seconds():
    assert units.seconds(1.5) == 1_500_000


def test_milliseconds():
    assert units.milliseconds(200) == 200_000


def test_microseconds_rounds():
    assert units.microseconds(1.6) == 2


def test_to_milliseconds():
    assert units.to_milliseconds(1500) == 1.5


def test_pcap_timestamp_split():
    assert units.pcap_timestamp(2_500_000) == (2, 500_000)


def test_from_pcap_timestamp():
    assert units.from_pcap_timestamp(2, 500_000) == 2_500_000


@given(st.integers(min_value=0, max_value=10**15))
def test_pcap_timestamp_roundtrip(us):
    sec, usec = units.pcap_timestamp(us)
    assert 0 <= usec < units.US_PER_SECOND
    assert units.from_pcap_timestamp(sec, usec) == us
