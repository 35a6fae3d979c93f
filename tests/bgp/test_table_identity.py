"""Golden digests of ``generate_table``'s tables and RNG end states.

Each digest covers, in insertion order, every route's prefix packed as
``address << 6 | length`` and its encoded path attributes, then the
next ``rng.random()`` after the table is drawn.  A change to how the generator spends its draws must
leave every table, and the state it hands back to a caller that keeps
drawing from the same ``Random``, identical.
"""

import hashlib
import random
import struct

import pytest

from repro.bgp.table import generate_table
from repro.netsim.random import RandomStreams
from repro.wire.ip import ip_to_bytes


def table_digest(size: int, rng: random.Random, **kwargs) -> str:
    digest = hashlib.sha256()
    for route in generate_table(size, rng, **kwargs):
        block = route.attributes.encode()
        # The packed ``address << 6 | length`` the pins were taken with.
        address = int.from_bytes(ip_to_bytes(route.prefix.network), "big")
        packed = address << 6 | route.prefix.length
        digest.update(struct.pack(">QH", packed, len(block)))
        digest.update(block)
    digest.update(struct.pack(">d", rng.random()))
    return digest.hexdigest()


CASES = {
    "empty": (0, lambda: random.Random(0), {}),
    "one": (1, lambda: random.Random(1), {}),
    "1k": (1_000, lambda: random.Random(1000), {}),
    "30k": (30_000, lambda: random.Random(30_000), {}),
    "wide-asn": (5_000, lambda: random.Random(42), {"wide_asn_fraction": 0.3}),
    "one-group": (2_000, lambda: random.Random(7), {"attribute_groups": 1}),
    "seven-groups": (2_000, lambda: random.Random(7), {"attribute_groups": 7}),
    "pool-and-next-hop": (
        3_000,
        lambda: random.Random(11),
        {"asn_pool": 50, "next_hop": "192.0.2.9"},
    ),
    "stream": (10_000, lambda: RandomStreams(23).stream("table-10000"), {}),
}

TABLE_SHA256 = {
    "empty": (
        "5604aeb65990b36e65477fb4c90d852347ec3cd782715b728b43b28e59e4bf4e"
    ),
    "one": (
        "6f8e3eb2269fb58a1b23750e0acb2a2f40cd86e36eebd100e8a55f9471a780e2"
    ),
    "1k": (
        "a36d530492e89a9e8f54626902ed0ab2784d428b8db718736419a40e680ec112"
    ),
    "30k": (
        "ff5cec6d369ecfffa3edc60ffacea4cf40951ce96ed63c3f9106fab4e878ca90"
    ),
    "wide-asn": (
        "5a5c2ddb81d44e1c745b444c78f807d9bc1d10efeb17cfb2c56f9e08e5db02d4"
    ),
    "one-group": (
        "e0f397db94d3ece2cb210402f8a069334f46788b1a441b41b552ec53d4cc9094"
    ),
    "seven-groups": (
        "166f94884df68c2d92e30c37183d96eaf88be52c2c0d77a9dcfcd23c741fdf0f"
    ),
    "pool-and-next-hop": (
        "829b1b3ea702f89cf05e9aacd1b583c535e52dd25925935d8f7cc427ea675233"
    ),
    "stream": (
        "1997ca8c145b2ffdf255f43e6594cb158367964cbc2271ebe4b4f2667aaf1b9f"
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_table_is_unchanged(case):
    size, make_rng, kwargs = CASES[case]
    assert table_digest(size, make_rng(), **kwargs) == TABLE_SHA256[case]
