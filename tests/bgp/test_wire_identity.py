"""Golden digests of what the BGP codec puts on the wire.

The update-stream and capture digests were computed before ``Prefix``
became wire-native, with the dotted-quad codec; the archive digest
before the RIB keyed on packed ints and UPDATEs held their wire bytes.  A change to the prefix representation, the RIB or
UPDATE packing must leave every encoded byte, and so every simulated
capture and every collector dump, identical.
"""

import hashlib
import io
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
EPISODE_ARCHIVE_SHA256 = (
    "6f10afee4942143fa90e4aeab2c59cc41ef3d513715e5c37d382026354de18dc"
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


def run_episode():
    """One small clean transfer into a Quagga collector, run to 60 s."""
    table = generate_table(3_000, random.Random(4750))
    sim = Simulator()
    setup = MonitoringSetup(sim, collector_cls=QuaggaCollector)
    setup.add_router(RouterParams(
        name="r1", ip="10.1.0.1", table=table,
        sender_model=ImmediateSender(),
    ))
    setup.start()
    sim.run(until_us=seconds(60))
    return setup, table


def episode_capture_digest() -> str:
    """sha256 of one small clean transfer's sorted capture records."""
    setup, table = run_episode()
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


def test_collector_rib_equals_the_sent_table():
    setup, table = run_episode()
    assert set(setup.collector.rib) == set(table)


def test_collector_archive_is_byte_identical():
    setup, _ = run_episode()
    archive = io.BytesIO()
    setup.collector.write_archive(archive)
    assert hashlib.sha256(archive.getvalue()).hexdigest() == (
        EPISODE_ARCHIVE_SHA256
    )
