"""The RIB's cached wire form: packed once, dropped on change, never pickled.

A table transfer's encoded UPDATEs are held by the ``Rib`` and shared by
every session that sends it.  They must be the very bytes the one packer
(``to_updates``) and the message codec produce, follow every change to
the table, stay out of pickles and reach the wire unchanged through a
``BgpSession`` or a ``PeerGroup``.
"""

import pickle
import random

import pytest

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import Prefix, UpdateMessage, encode_message
from repro.bgp.peer_group import PeerGroup
from repro.bgp.sender_models import ImmediateSender
from repro.bgp.speaker import BgpSession
from repro.bgp.table import Route, generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tcp.socket import connect_pair

from tests.bgp import test_session
from tests.tcp.helpers import Net

UPDATE = 2  # BGP message type, the byte after the 16-byte marker and length


def packed(rib) -> list[bytes]:
    """The table transfer encoded from scratch, message by message."""
    return [encode_message(u) for u in rib.to_updates()]


def table(size=2_000, seed=7):
    return generate_table(size, random.Random(seed), wide_asn_fraction=0.05)


def record_updates(endpoint) -> list[bytes]:
    """Start recording the UPDATE messages sent through ``endpoint``."""
    sent = []
    send = endpoint.send

    def recording_send(data):
        if data[18] == UPDATE:
            sent.append(bytes(data))
        send(data)

    endpoint.send = recording_send
    return sent


class TestWireForm:
    def test_equals_the_packed_updates_byte_for_byte(self):
        rib = table()
        assert list(rib.wire_form()) == packed(rib)
        assert rib.wire_size() == sum(map(len, packed(rib)))

    def test_is_packed_once_while_the_table_is_unchanged(self):
        rib = table()
        assert rib.wire_form() is rib.wire_form()

    def test_empty_table_has_an_empty_wire_form(self):
        rib = generate_table(0, random.Random(1))
        assert rib.wire_form() == ()
        assert rib.wire_size() == 0


class TestInvalidation:
    attributes = PathAttributes.from_path([64512, 3356], "10.0.0.1")

    def mutate(self, rib, mutator):
        prefix = Prefix("198.18.0.0", 15)
        if mutator == "add":
            rib.add(Route(prefix, self.attributes))
        elif mutator == "announce":
            rib.announce([prefix, Prefix("198.51.100.0", 24)], self.attributes)
        elif mutator == "apply":
            withdrawn = next(iter(rib)).prefix
            rib.apply(UpdateMessage(
                withdrawn=[withdrawn], attributes=self.attributes,
                announced=[prefix],
            ))
        elif mutator == "withdraw":
            assert rib.withdraw(next(iter(rib)).prefix) is not None

    @pytest.mark.parametrize("mutator", ["add", "announce", "apply", "withdraw"])
    def test_every_mutator_drops_the_wire_form(self, mutator):
        rib = table(500)
        before = rib.wire_form()
        size_before = rib.wire_size()
        self.mutate(rib, mutator)
        after = rib.wire_form()
        assert after != before
        assert list(after) == packed(rib)
        assert rib.wire_size() == sum(map(len, after)) != size_before


class TestPickle:
    def test_a_pickled_table_carries_no_wire_form(self):
        rib = table()
        cold = pickle.dumps(rib)
        rib.wire_form()
        assert pickle.dumps(rib) == cold

    def test_an_unpickled_table_repacks_identically(self):
        rib = table()
        wire = rib.wire_form()
        clone = pickle.loads(pickle.dumps(rib))
        assert clone.wire_form() == wire
        assert clone.wire_form() is not wire
        clone.withdraw(next(iter(clone)).prefix)
        assert rib.wire_form() is wire


class TestSenders:
    def test_bgp_session_sends_the_packed_updates(self):
        rib = table(300, seed=5)
        expected = packed(rib)
        for _ in range(2):  # cold, then from the held wire form
            sim = Simulator()
            router, monitor = test_session.build_peering(
                sim, Net(sim), sender_model=ImmediateSender(), rib=rib
            )
            sent = record_updates(router.endpoint)
            sim.run(until_us=seconds(30))
            assert sent == expected
            assert monitor.updates_received == len(expected)

    def test_peer_group_sends_the_packed_updates_to_every_member(self):
        rib = table(300, seed=5)
        expected = packed(rib)
        rib.wire_form()
        sim = Simulator()
        _, sessions = test_session.TestPeerGroup().build_group(sim)
        group = PeerGroup(sim, [router for router, _ in sessions])
        sent = [record_updates(router.endpoint) for router, _ in sessions]
        sim.run(until_us=seconds(2))
        assert group.announce_table(rib) == len(expected)
        sim.run(until_us=seconds(120))
        assert sent == [expected, expected]
        for _, monitor in sessions:
            assert monitor.updates_received == len(expected)

    def test_two_sessions_share_one_wire_form(self):
        rib = table(300, seed=5)
        sim = Simulator()
        net = Net(sim)
        queued = []
        for port in (40001, 40002):
            client, _ = connect_pair(sim, net.a, net.b, port, 179)
            model = ImmediateSender()
            model.enqueue = queued.append
            session = BgpSession(
                sim, client, local_as=65001, bgp_id="10.0.0.1", rib=rib,
                sender_model=model,
            )
            assert session.announce_table() == len(rib.wire_form())
        assert queued[0] is queued[1] is rib.wire_form()
