"""Golden digests of whole ``analyze_pcap`` reports.

Every digest below is ``render.payload_digest`` of the canonical
report payload (exactly what ``tdat analyze --json`` prints), computed
while the reader still had a zero-copy scanner beside the streaming
walk and the series layer a numpy backend beside the python one.  A
change to either layer must leave every report byte-identical: over a
clean capture, over each fault operator, nanosecond timestamps, a
mid-record truncation, the streaming ingest path, and one connection
long enough (4,201 data+ACK events) that the numpy backend used to
produce its series.
"""

import io

import pytest

from repro.analysis import render
from repro.analysis.tdat import analyze_pcap
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import OPERATORS, mangle
from repro.faults.stress import connection_flood
from repro.wire.pcap import read_pcap, records_to_bytes

CLEAN_SHA256 = (
    "b59d7e82565346aa30d05dd1d3dde5f9a3325dedfb9d5523c3666ca75f3574a4"
)
TRUNCATED_SHA256 = (
    "c526426bdfa58c87c212e4665521dbb152cc29c92b5c798008e0a25a03e470a9"
)
LONG_CONNECTION_SHA256 = (
    "9110d96e9fc39635298daef1918ab13a763ca5410eeca2bd12204709340656c3"
)

MANGLED_SHA256 = {
    ("corrupt-payload", 3):
        "b59d7e82565346aa30d05dd1d3dde5f9a3325dedfb9d5523c3666ca75f3574a4",
    ("corrupt-payload", 17):
        "410959f1a6fa8bc3a7f7a7a82b7069edffb9e85092ac06c39c999d64d6980e2c",
    ("corrupt-record-header", 3):
        "91fe4ce0d2e18a1f3927adca0ac1f3ae2b69fa98065484b954e16bcfcd344ad9",
    ("corrupt-record-header", 17):
        "d0ef930bc28c3205cd2ac1fd1cbaf456673904e78a4fdc9822a975a79d1a6210",
    ("drop-records", 3):
        "d6bb91d3557b4b5e524061369aa8b1b342449f8b3a79ee22789a9cec796ffb8d",
    ("drop-records", 17):
        "9932179579dd9d9626f8cdbe31ebd2814d3ef039c09486f9a26fccf0235731fc",
    ("duplicate-records", 3):
        "948bf111d409e4dbe9e23d1f9e7fc5baa0b17da13d4a00c6df46db1a005e8bed",
    ("duplicate-records", 17):
        "0f64413f77b8624c4ef26976bd91592a559ee92b99879a7e5094849bce6373ec",
    ("flip-bgp", 3):
        "b59d7e82565346aa30d05dd1d3dde5f9a3325dedfb9d5523c3666ca75f3574a4",
    ("flip-bgp", 17):
        "b59d7e82565346aa30d05dd1d3dde5f9a3325dedfb9d5523c3666ca75f3574a4",
    ("regress-timestamps", 3):
        "b59d7e82565346aa30d05dd1d3dde5f9a3325dedfb9d5523c3666ca75f3574a4",
    ("regress-timestamps", 17):
        "b59d7e82565346aa30d05dd1d3dde5f9a3325dedfb9d5523c3666ca75f3574a4",
    ("reorder-records", 3):
        "04fe7bb3cf3e59a870836940417d9ef7c2a0b1d3e2dd101b51864c9f02a7b865",
    ("reorder-records", 17):
        "628a3c11df4398e9aa61e86091786dc7017d72f0e8480b11a2ba79c992d38aa1",
    ("slice-frames", 3):
        "a5aac9c12a2ddf6c00868aa77d5182c0557c6b98f8714e23e2447bc45de5bb7d",
    ("slice-frames", 17):
        "2ee7d67ce93c91005ffc30ad4c8984860fa57b7d0fa1181275e49bd34c3a79e7",
    ("truncate", 3):
        "417d32c5cc194a8ac75d2cd3dd1417b68c1831b9bb94bf806dc85619bf9b2f2a",
    ("truncate", 17):
        "280827965dad8af27d8abddb439a6e6873d158cdddff469347fa47fa185db533",
}


@pytest.fixture(scope="module")
def clean_blob():
    """One deterministic monitored table transfer, as pcap bytes."""
    return clean_trace_bytes(table_prefixes=800, duration_s=60)


def report_digest(blob: bytes, **kwargs) -> str:
    report = analyze_pcap(io.BytesIO(blob), **kwargs)
    return render.payload_digest(render.report_payload(report))


def test_clean_capture(clean_blob):
    assert report_digest(clean_blob) == CLEAN_SHA256


def test_streaming_clean_capture(clean_blob):
    assert report_digest(clean_blob, streaming=True) == CLEAN_SHA256


def test_nanosecond_magic(clean_blob):
    records = read_pcap(io.BytesIO(clean_blob), tolerant=True)
    nano = records_to_bytes(records, nanosecond=True)
    assert report_digest(nano) == CLEAN_SHA256


def test_truncated_mid_record(clean_blob):
    assert report_digest(clean_blob[:-11]) == TRUNCATED_SHA256


def test_every_operator_is_covered():
    assert {op for op, _ in MANGLED_SHA256} == set(OPERATORS)


@pytest.mark.parametrize("operator,seed", sorted(MANGLED_SHA256))
def test_mangled_capture(clean_blob, operator, seed):
    blob = mangle(clean_blob, [operator], seed=seed)
    assert report_digest(blob) == MANGLED_SHA256[operator, seed]


def test_long_connection():
    """One flow of 2,100 ACKed segments: 4,201 series events."""
    blob = records_to_bytes(connection_flood(1, 2_100, 200))
    assert report_digest(blob) == LONG_CONNECTION_SHA256
