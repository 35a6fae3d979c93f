"""Tests for RFC 4271 section 6.2 OPEN validation."""

import pytest

from repro.bgp.messages import (
    OPEN_ERR_BAD_PEER_AS,
    OPEN_ERR_UNACCEPTABLE_HOLD_TIME,
    OPEN_ERR_UNSUPPORTED_VERSION,
    NotificationMessage,
    OpenMessage,
)
from repro.bgp.speaker import BgpSession, BgpSessionState
from repro.core.units import seconds
from repro.netsim.simulator import Simulator

from tests.tcp.helpers import Net, connect_pair


def build_sessions(sim, net, **kwargs_a):
    client_ep, server_ep = connect_pair(sim, net.a, net.b, 40000, 179)
    a = BgpSession(
        sim, client_ep, local_as=65001, bgp_id="10.0.0.1", **kwargs_a
    )
    b = BgpSession(sim, server_ep, local_as=65000, bgp_id="10.0.0.2")
    return a, b


class TestOpenValidation:
    def test_expected_peer_as_accepts_match(self):
        sim = Simulator()
        net = Net(sim)
        a, b = build_sessions(sim, net, expected_peer_as=65000)
        sim.run(until_us=seconds(2))
        assert a.state is BgpSessionState.ESTABLISHED

    def test_as_mismatch_rejected_with_notification(self):
        sim = Simulator()
        net = Net(sim)
        downs = []
        notifications = []
        a, b = build_sessions(sim, net, expected_peer_as=64999)
        a.on_down = lambda s, r: downs.append(r)

        def watch(session, message, ts):
            if isinstance(message, NotificationMessage):
                notifications.append(message)

        b.on_message = watch
        sim.run(until_us=seconds(2))
        assert a.state is BgpSessionState.IDLE
        assert downs == [f"open-rejected-{OPEN_ERR_BAD_PEER_AS}"]
        assert notifications
        assert notifications[0].error_subcode == OPEN_ERR_BAD_PEER_AS

    def test_validation_subcodes(self):
        sim = Simulator()
        net = Net(sim)
        a, _ = build_sessions(sim, net)
        ok = OpenMessage(my_as=65000, hold_time_s=180, bgp_id="1.1.1.1")
        assert a._validate_open(ok) is None
        bad_version = OpenMessage(
            my_as=65000, hold_time_s=180, bgp_id="1.1.1.1", version=3
        )
        assert a._validate_open(bad_version) == (2, OPEN_ERR_UNSUPPORTED_VERSION)
        bad_hold = OpenMessage(my_as=65000, hold_time_s=2, bgp_id="1.1.1.1")
        assert a._validate_open(bad_hold) == (
            2, OPEN_ERR_UNACCEPTABLE_HOLD_TIME,
        )
        zero_hold = OpenMessage(my_as=65000, hold_time_s=0, bgp_id="1.1.1.1")
        assert a._validate_open(zero_hold) is None

    def test_wide_as_peer_validates_against_true_as(self):
        sim = Simulator()
        net = Net(sim)
        client_ep, server_ep = connect_pair(sim, net.a, net.b, 40000, 179)
        a = BgpSession(
            sim, client_ep, local_as=4_200_000_001, bgp_id="10.0.0.1"
        )
        b = BgpSession(
            sim, server_ep, local_as=65000, bgp_id="10.0.0.2",
            expected_peer_as=4_200_000_001,
        )
        sim.run(until_us=seconds(2))
        assert b.state is BgpSessionState.ESTABLISHED
