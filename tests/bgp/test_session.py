"""Integration tests: BGP sessions, sender models, peer groups, collectors."""

import random

import pytest

from repro.bgp.collector import CollectorCpu, QuaggaCollector, VendorCollector
from repro.bgp.peer_group import PeerGroup
from repro.bgp.sender_models import ImmediateSender, RateLimitedSender, TimerBatchSender
from repro.bgp.speaker import BgpSession, BgpSessionState
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.socket import connect_pair

from tests.tcp.helpers import Net


def build_peering(sim, net, sender_model=None, rib=None,
                  hold_time_s=180, collector_auto_read=True,
                  client_tcp=None, server_tcp=None):
    """Router (active, on host a) peering with a monitor (passive, host b)."""
    client_ep, server_ep = connect_pair(
        sim, net.a, net.b, 40000, 179,
        client_config=client_tcp, server_config=server_tcp,
    )
    router = BgpSession(
        sim, client_ep, local_as=65001, bgp_id="10.0.0.1",
        hold_time_s=hold_time_s, rib=rib, sender_model=sender_model,
        on_established=lambda s: s.announce_table(),
    )
    monitor = BgpSession(
        sim, server_ep, local_as=65000, bgp_id="10.0.0.2",
        hold_time_s=hold_time_s, auto_read=collector_auto_read,
    )
    return router, monitor


class TestSessionEstablishment:
    def test_open_exchange_establishes_both(self):
        sim = Simulator()
        net = Net(sim)
        router, monitor = build_peering(sim, net)
        sim.run(until_us=seconds(2))
        assert router.state is BgpSessionState.ESTABLISHED
        assert monitor.state is BgpSessionState.ESTABLISHED
        assert router.peer_open.my_as == 65000
        assert monitor.peer_open.my_as == 65001

    def test_hold_time_negotiated_to_minimum(self):
        sim = Simulator()
        net = Net(sim)
        router, monitor = build_peering(sim, net, hold_time_s=180)
        monitor.configured_hold_time_s = 90
        sim.run(until_us=seconds(2))
        assert router.hold_time_s == 90
        assert monitor.hold_time_s == 90

    def test_keepalives_flow(self):
        sim = Simulator()
        net = Net(sim)
        router, monitor = build_peering(sim, net, hold_time_s=3)
        sim.run(until_us=seconds(30))
        # Sessions stay up because keepalives (hold/3 = 1s) keep flowing.
        assert router.state is BgpSessionState.ESTABLISHED
        assert monitor.state is BgpSessionState.ESTABLISHED

    def test_hold_timer_fires_when_peer_dies(self):
        sim = Simulator()
        net = Net(sim)
        downs = []
        router, monitor = build_peering(sim, net, hold_time_s=9)
        router.on_down = lambda s, reason: downs.append((sim.now, reason))
        sim.schedule(seconds(2), monitor.endpoint.kill)
        sim.schedule(seconds(2), monitor._hold_timer.stop)
        sim.schedule(seconds(2), monitor._keepalive_timer.stop)
        sim.run(until_us=seconds(30))
        assert router.state is BgpSessionState.IDLE
        assert downs and downs[0][1] == "hold-timer-expired"
        # Expiry ~9s after the last received keepalive.
        assert seconds(9) <= downs[0][0] <= seconds(12)


class TestTableTransfer:
    def test_immediate_sender_full_transfer(self):
        sim = Simulator()
        net = Net(sim)
        rib = generate_table(800, random.Random(1))
        router, monitor = build_peering(
            sim, net, sender_model=ImmediateSender(), rib=rib
        )
        sim.run(until_us=seconds(60))
        assert monitor.updates_received == len(rib.to_updates())

    def test_timer_batch_sender_is_slower(self):
        rib = generate_table(600, random.Random(2))
        expected = len(rib.to_updates())

        def run(model_factory):
            sim = Simulator()
            net = Net(sim)
            done = []
            router, monitor = build_peering(
                sim, net, sender_model=model_factory(sim), rib=rib
            )

            def on_update(session, update, ts):
                if session.updates_received == expected:
                    done.append(ts)

            monitor.on_update = on_update
            sim.run(until_us=seconds(300))
            assert done, "transfer incomplete"
            return done[0]

        fast = run(lambda sim: ImmediateSender())
        slow = run(lambda sim: TimerBatchSender(sim, 200_000, 2))
        assert slow > fast * 2

    def test_timer_batch_gap_structure(self):
        # With 2 messages per 200ms tick, 20 messages need 10 ticks: the
        # transfer lasts at least 1.8 seconds.
        sim = Simulator()
        net = Net(sim)
        rib = generate_table(1500, random.Random(3))
        updates = rib.to_updates()
        assert len(updates) >= 20
        times = []
        router, monitor = build_peering(
            sim, net, sender_model=TimerBatchSender(sim, 200_000, 2), rib=rib
        )
        monitor.on_update = lambda s, u, ts: times.append(ts)
        sim.run(until_us=seconds(120))
        assert len(times) == len(updates)
        assert times[-1] - times[0] >= seconds(1.5)

    def test_rate_limited_sender(self):
        sim = Simulator()
        net = Net(sim)
        rib = generate_table(400, random.Random(4))
        size = rib.wire_size()
        times = []
        router, monitor = build_peering(
            sim, net, sender_model=RateLimitedSender(sim, 5_000), rib=rib
        )
        monitor.on_update = lambda s, u, ts: times.append(ts)
        sim.run(until_us=seconds(600))
        assert len(times) == len(rib.to_updates())
        observed_rate = size / ((times[-1] - times[0]) / 1e6)
        assert observed_rate == pytest.approx(5_000, rel=0.4)


class TestPeerGroup:
    def build_group(self, sim, hold_time_s=12):
        """One router host fanning out to two collector hosts."""
        from repro.netsim.link import Link
        from repro.netsim.node import Host

        router_host = Host("rtr", "10.0.0.1")
        quagga_host = Host("quagga", "10.0.0.2")
        vendor_host = Host("vendor", "10.0.0.3")
        links = {}
        for host in (quagga_host, vendor_host):
            up = Link(sim, f"up-{host.name}", 80_000_000, 5_000, deliver=host.deliver)
            down = Link(sim, f"dn-{host.name}", 80_000_000, 5_000,
                        deliver=router_host.deliver)
            router_host.add_route(host.ip, up.send)
            host.add_route(router_host.ip, down.send)
            links[host.name] = (up, down)
        sessions = []
        for port, host in ((40001, quagga_host), (40002, vendor_host)):
            client_ep, server_ep = connect_pair(
                sim, router_host, host, port, 179
            )
            router_side = BgpSession(
                sim, client_ep, local_as=65001, bgp_id="10.0.0.1",
                hold_time_s=hold_time_s,
            )
            monitor_side = BgpSession(
                sim, server_ep, local_as=65000, bgp_id=host.ip,
                hold_time_s=hold_time_s,
            )
            sessions.append((router_side, monitor_side))
        return router_host, sessions

    def test_replication_reaches_all_members(self):
        sim = Simulator()
        _, sessions = self.build_group(sim)
        rib = generate_table(300, random.Random(5))
        group = PeerGroup(sim, [s[0] for s in sessions])
        sim.run(until_us=seconds(2))  # establish
        n = group.announce_table(rib)
        sim.run(until_us=seconds(120))
        for _, monitor in sessions:
            assert monitor.updates_received == n

    def test_failed_member_blocks_then_releases_group(self):
        sim = Simulator()
        _, sessions = self.build_group(sim, hold_time_s=12)
        (router_q, monitor_q), (router_v, monitor_v) = sessions
        rib = generate_table(4000, random.Random(6))
        # Slow replication: 2 messages per 50ms round, so the ~67-update
        # transfer lasts about two seconds and the failure lands mid-way.
        group = PeerGroup(
            sim, [router_q, router_v], batch_messages=2, poll_interval_us=50_000
        )
        quagga_times = []
        monitor_q.on_update = lambda s, u, ts: quagga_times.append(ts)

        def kill_vendor():
            monitor_v.endpoint.kill()
            monitor_v._hold_timer.stop()
            monitor_v._keepalive_timer.stop()

        sim.run(until_us=seconds(2))
        group.announce_table(rib)
        sim.schedule(500_000, kill_vendor)  # t1: vendor box dies mid-transfer
        sim.run(until_us=seconds(120))
        # Quagga received the full table eventually.
        assert monitor_q.updates_received == len(rib.to_updates())
        # But there is a long gap (~hold time) in its update arrivals.
        gaps = [b - a for a, b in zip(quagga_times, quagga_times[1:])]
        assert max(gaps) >= seconds(8)
        # The vendor session went down via hold timer and left the group.
        assert router_v.state is BgpSessionState.IDLE
        assert router_v not in group.active

    def test_group_without_members_rejected(self):
        with pytest.raises(ValueError):
            PeerGroup(Simulator(), [])


class TestCollector:
    def build_collector_peering(self, sim, net, cpu=None,
                                collector_cls=QuaggaCollector, table_size=500):
        collector = collector_cls(
            sim, net.b, local_as=65000, bgp_id="10.0.0.2", cpu=cpu
        )
        client_ep, server_ep = connect_pair(sim, net.a, net.b, 40000, 179)
        session = collector.add_session(server_ep, peer_as=65001, peer_ip="10.0.0.1")
        rib = generate_table(table_size, random.Random(7))
        router = BgpSession(
            sim, client_ep, local_as=65001, bgp_id="10.0.0.1", rib=rib,
            on_established=lambda s: s.announce_table(),
        )
        return collector, router, rib

    def test_quagga_archives_mrt(self, tmp_path):
        sim = Simulator()
        net = Net(sim)
        collector, router, rib = self.build_collector_peering(sim, net)
        sim.run(until_us=seconds(120))
        assert collector.updates_archived == len(rib.to_updates())
        assert len(collector.rib) == len(rib)
        assert set(collector.rib) == set(rib)
        path = tmp_path / "archive.mrt"
        count = collector.write_archive(path)
        from repro.bgp.mrt import read_mrt

        records = list(read_mrt(path))
        assert len(records) == count
        # Timestamps are monotonically non-decreasing.
        stamps = [r.timestamp_us for r in records]
        assert stamps == sorted(stamps)

    def test_vendor_collector_no_archive(self):
        sim = Simulator()
        net = Net(sim)
        collector, router, rib = self.build_collector_peering(
            sim, net, collector_cls=VendorCollector
        )
        sim.run(until_us=seconds(120))
        assert collector.updates_archived == 0
        assert len(collector.rib) == len(rib)
        assert set(collector.rib) == set(rib)

    def test_slow_cpu_closes_window(self):
        sim = Simulator()
        net = Net(sim)
        slow_cpu = CollectorCpu(sim, per_message_us=20_000)  # 20ms per msg
        collector, router, rib = self.build_collector_peering(
            sim, net, cpu=slow_cpu, table_size=12_000
        )
        session = collector.sessions[0]
        min_window = []

        def sample():
            min_window.append(session.endpoint.receiver.advertised_window)
            sim.schedule(10_000, sample)

        sim.schedule(100_000, sample)
        sim.run(until_us=seconds(600))
        assert len(collector.rib) == len(rib)
        assert set(collector.rib) == set(rib)
        # During the transfer the advertised window was squeezed.
        assert min(min_window) < 20_000

    def test_collector_kill_silences_sessions(self):
        sim = Simulator()
        net = Net(sim)
        collector, router, rib = self.build_collector_peering(sim, net)
        router.hold_time_s = 9
        router.configured_hold_time_s = 9
        downs = []
        router.on_down = lambda s, r: downs.append(r)
        sim.schedule(seconds(1), collector.kill)
        sim.run(until_us=seconds(60))
        assert "hold-timer-expired" in downs
