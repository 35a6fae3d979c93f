"""Golden digests of whole ``pcap_to_bgp`` reconstructions.

Each digest is a sha256 over every :class:`StreamResult` the capture
yields (its connection key, its fields, and each message's completion
timestamp with its wire encoding) and over the ``(kind, timestamp_us,
bytes_lost)`` of every health issue recorded along the way.  Captures:
the clean and lossy simulated transfers of the tool tests, and each
fault operator under two seeds over the fuzz campaign's clean trace.
A change to the reassembler, the BGP decoder's resync path or the
health accounting must leave every digest unchanged, or re-pin it
with the reason.
"""

import dataclasses
import hashlib
import io

import pytest

from repro.bgp.messages import encode_message
from repro.core.health import TraceHealth
from repro.faults.fuzz import clean_trace_bytes
from repro.faults.mangle import OPERATORS, mangle
from repro.tools.pcap2bgp import pcap_to_bgp

CAPTURE_SHA256 = {
    "clean_capture":
        "a8789289220535682c31c191e52996fcb7470a684ac8b630abc508fe7f36d506",
    "lossy_capture":
        "e042d4c8c9d8205da4300c902ca5cd412801bfde1d4fae45fa005f3e68f3e883",
}

MANGLED_SHA256 = {
    ("corrupt-payload", 3):
        "20e1bfe0497f61643ac423ba9810a1a40283e3a44f604aa6b634fc1e8d837909",
    ("corrupt-payload", 17):
        "c242dd61e1b37901550fea026b1f7eb2882dde52cb881e94dd65da1cb1073f98",
    ("corrupt-record-header", 3):
        "b55e81d6c540d38ea73f08ca1c0216868e709b5198eb97119483f981d0904e33",
    ("corrupt-record-header", 17):
        "e3ec106647ad7fad5f80a18f67b1958e1b13ba7404eee6d6d08987f62d223bed",
    ("drop-records", 3):
        "b08629e1a84127d04e2d91b235de4dddff45569072769adc72f96822f99a6a39",
    ("drop-records", 17):
        "f8d45cc15ca456cd797f58e633e9700047c00efecae4640b4cf138f68a0dbd6e",
    ("duplicate-records", 3):
        "80364047ea6af73059bab096941338d5b167e5836bce893d2c7e3667b408f179",
    ("duplicate-records", 17):
        "80364047ea6af73059bab096941338d5b167e5836bce893d2c7e3667b408f179",
    ("flip-bgp", 3):
        "c8784fe123286cb25855161c809e8ae5994ff205c025fcb8e2f410654b85af1d",
    ("flip-bgp", 17):
        "c31dd4adc1d25e9a0bc00314fe03373bb0d39c7b3f4dd9342fc4a4ee1ea80f83",
    ("regress-timestamps", 3):
        "80364047ea6af73059bab096941338d5b167e5836bce893d2c7e3667b408f179",
    ("regress-timestamps", 17):
        "80364047ea6af73059bab096941338d5b167e5836bce893d2c7e3667b408f179",
    ("reorder-records", 3):
        "934b700a9fd549b5a6574e5cb7afd77a0de1fb148dfb7024658e6f944f619567",
    ("reorder-records", 17):
        "99bea6bc080bad78fb5d349f6f137cc5967e99ae97c7ab7f520ae1e7dd42b3ca",
    ("slice-frames", 3):
        "f8223ba9a244840af937d9be9f3a17b9f3c41a28860dd0a309a3e08433ba5646",
    ("slice-frames", 17):
        "97f55821b2770e343f31fd91b76cb2c722c7da5cfafcf656f9529b51bc5a8328",
    ("truncate", 3):
        "4d8723cb32d5f8ebd4b5be016c41fe4e74ebb3b2721d03d0ae4eb40cbca90c04",
    ("truncate", 17):
        "3ebff18ef027eb898dd259e1f5b02ab537808547889e6da62feaffc3cc62ac08",
}


def reconstruction_digest(source) -> str:
    health = TraceHealth()
    results = pcap_to_bgp(source, health=health)
    digest = hashlib.sha256()
    for key, result in results.items():
        fields = sorted(
            (field.name, getattr(result, field.name))
            for field in dataclasses.fields(result)
            if field.name != "messages"
        )
        digest.update(repr((key, fields)).encode())
        for timed in result.messages:
            digest.update(timed.timestamp_us.to_bytes(8, "big"))
            digest.update(encode_message(timed.message))
    for issue in health.issues:
        digest.update(
            repr((issue.kind, issue.timestamp_us, issue.bytes_lost)).encode()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def clean_blob():
    return clean_trace_bytes(table_prefixes=2_000, duration_s=60)


@pytest.mark.parametrize("capture", sorted(CAPTURE_SHA256))
def test_simulated_capture(request, capture):
    records = request.getfixturevalue(capture)["records"]
    assert reconstruction_digest(records) == CAPTURE_SHA256[capture]


def test_every_operator_is_covered():
    assert {op for op, _ in MANGLED_SHA256} == set(OPERATORS)


@pytest.mark.parametrize("operator,seed", sorted(MANGLED_SHA256))
def test_mangled_capture(clean_blob, operator, seed):
    blob = mangle(clean_blob, [operator], seed=seed)
    assert reconstruction_digest(io.BytesIO(blob)) == MANGLED_SHA256[
        operator, seed
    ]
