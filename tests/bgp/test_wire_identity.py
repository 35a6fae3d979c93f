"""Golden digests of what the BGP codec puts on the wire.

Both digests were computed before ``Prefix`` became wire-native, with
the dotted-quad codec.  A change to the prefix representation, the RIB
or UPDATE packing must leave every encoded byte, and so every simulated
capture, identical.
"""

import hashlib
import random

from repro.bgp.collector import QuaggaCollector
from repro.bgp.messages import encode_message
from repro.bgp.sender_models import ImmediateSender
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams

UPDATE_STREAM_SHA256 = (
    "a416646c89faad25cc558ea3a3f621fac57b22adb1bb533b9eabc4604ad000e6"
)
EPISODE_CAPTURE_SHA256 = (
    "a25e9681d71fbc224f827ec7e960671d02443e7806e0e1811d500f25197a9798"
)


def update_stream_digest() -> str:
    """sha256 of a seeded 20k-prefix table's encoded UPDATE stream."""
    table = generate_table(
        20_000, random.Random(1304), wide_asn_fraction=0.05
    )
    digest = hashlib.sha256()
    for update in table.to_updates():
        digest.update(encode_message(update))
    return digest.hexdigest()


def episode_capture_digest() -> str:
    """sha256 of one small clean transfer's sorted capture records."""
    table = generate_table(3_000, random.Random(4750))
    sim = Simulator()
    setup = MonitoringSetup(sim, collector_cls=QuaggaCollector)
    setup.add_router(RouterParams(
        name="r1", ip="10.1.0.1", table=table,
        sender_model=ImmediateSender(),
    ))
    setup.start()
    sim.run(until_us=seconds(60))
    assert len(setup.collector.rib) == len(table)
    digest = hashlib.sha256()
    for record in setup.sniffer.sorted_records():
        digest.update(record.timestamp_us.to_bytes(8, "big"))
        digest.update(record.data)
    return digest.hexdigest()


def test_update_stream_is_byte_identical():
    assert update_stream_digest() == UPDATE_STREAM_SHA256


def test_episode_capture_is_byte_identical():
    assert episode_capture_digest() == EPISODE_CAPTURE_SHA256
