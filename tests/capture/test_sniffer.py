"""Tests for the sniffer tap and the monitored-peering scenario."""

import io
import random

from repro.bgp.messages import UpdateMessage
from repro.bgp.table import generate_table
from repro.capture.sniffer import SnifferTap
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.wire import frames
from repro.wire.pcap import read_pcap
from repro.workloads.scenarios import MonitoringSetup, RouterParams

from tests.wire.frame_oracle import parse_frame


def run_simple_setup(table_size=300, **router_kw):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(table_size, random.Random(11))
    handle = setup.add_router(
        RouterParams(name="r1", ip="10.1.0.1", table=table, **router_kw)
    )
    setup.start()
    sim.run(until_us=seconds(300))
    return sim, setup, handle, table


class TestSnifferCapture:
    def test_capture_contains_both_directions(self):
        sim, setup, handle, table = run_simple_setup()
        records = setup.sniffer.sorted_records()
        assert len(records) > 20
        directions = set()
        for record in records:
            fields = frames.parse_packet(record.data)
            directions.add((fields.src_ip, fields.dst_ip))
        assert ("10.1.0.1", "10.255.0.1") in directions  # data
        assert ("10.255.0.1", "10.1.0.1") in directions  # ACKs

    def test_capture_is_valid_pcap(self):
        sim, setup, handle, table = run_simple_setup()
        buffer = io.BytesIO()
        count = setup.sniffer.write(buffer)
        buffer.seek(0)
        records = read_pcap(buffer)
        assert len(records) == count
        stamps = [r.timestamp_us for r in records]
        assert stamps == sorted(stamps)
        # Every frame parses down to TCP with checksums intact.
        for record in records[:50]:
            parsed = parse_frame(record.data, verify_checksums=True)
            assert parsed.tcp.src_port in (40000, 179)

    def test_transfer_completes_and_archives(self):
        sim, setup, handle, table = run_simple_setup()
        assert setup.collector.updates_archived == len(table.to_updates())
        assert len(setup.collector.rib) == len(table)
        assert set(setup.collector.rib) == set(table)

    def test_bgp_payload_recoverable_from_capture(self):
        sim, setup, handle, table = run_simple_setup(table_size=100)
        # Concatenate data-direction payloads in sequence order and
        # decode BGP messages out of the stream.
        from repro.bgp.messages import MessageDecoder

        payloads = []
        for record in setup.sniffer.sorted_records():
            fields = frames.parse_packet(record.data)
            if fields.src_ip == "10.1.0.1" and fields.payload:
                payloads.append((fields.seq, fields.payload))
        # No loss in this scenario: dedupe by seq and order.
        seen = {}
        for seq, payload in payloads:
            seen.setdefault(seq, payload)
        stream = b"".join(p for _, p in sorted(seen.items()))
        decoder = MessageDecoder()
        messages = decoder.feed(stream)
        updates = [m for m in messages if isinstance(m, UpdateMessage)]
        assert len(updates) == len(table.to_updates())

    def test_drop_windows_create_voids(self):
        sim = Simulator()
        setup = MonitoringSetup(
            sim, sniffer_drop_windows=[(seconds(0.03), seconds(0.08))]
        )
        table = generate_table(800, random.Random(12))
        setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
        setup.start()
        sim.run(until_us=seconds(300))
        assert setup.sniffer.dropped_records > 0
        for record in setup.sniffer.records:
            assert not (seconds(0.03) <= record.timestamp_us < seconds(0.08))

    def test_downstream_loss_invisible_to_tap(self):
        """Packets dropped after the tap are captured but never delivered."""
        sim = Simulator()
        setup = MonitoringSetup(sim)
        table = generate_table(8000, random.Random(13))
        handle = setup.add_router(
            RouterParams(
                name="r1",
                ip="10.1.0.1",
                table=table,
                downstream_loss=WindowLoss([(seconds(0.02), seconds(0.2))]),
            )
        )
        setup.start()
        sim.run(until_us=seconds(300))
        assert handle.local_link.stats.dropped_loss > 0
        # All transfers recover; the archive is complete.
        assert setup.collector.updates_archived == len(table.to_updates())

    def test_multiple_routers_one_sniffer(self):
        sim = Simulator()
        setup = MonitoringSetup(sim)
        tables = {}
        for i in range(3):
            table = generate_table(150, random.Random(20 + i))
            tables[f"10.1.0.{i + 1}"] = table
            setup.add_router(
                RouterParams(name=f"r{i}", ip=f"10.1.0.{i + 1}", table=table)
            )
        # Staggered connects: one router every half second.
        for index, handle in enumerate(setup.routers):
            sim.schedule(index * seconds(0.5), handle.endpoint.connect)
        sim.run(until_us=seconds(300))
        flows = set()
        for record in setup.sniffer.sorted_records():
            fields = frames.parse_packet(record.data)
            flows.add(fields[:4])
        # 3 connections x 2 directions.
        assert len(flows) == 6
        total_updates = sum(len(t.to_updates()) for t in tables.values())
        assert setup.collector.updates_archived == total_updates


class TestSnifferUnit:
    def test_ip_identification_increments(self):
        from repro.netsim.packet import Packet
        from repro.wire.tcpw import TcpHeader, ACK

        sim = Simulator()
        tap = SnifferTap(sim)
        header = TcpHeader(
            src_port=1, dst_port=2, seq=0, ack=0, flags=ACK, window=100
        )
        pkt = Packet(src="1.1.1.1", dst="2.2.2.2", payload=header, wire_length=54)
        tap._observe(pkt, 0)
        tap._observe(pkt, 1)
        ids = [
            frames.parse_packet(r.data).ip_id for r in tap.records
        ]
        assert ids == [0, 1]

    def test_health_ledger_accounts_drop_windows(self):
        from repro.core.health import STAGE_CAPTURE
        from repro.netsim.packet import Packet
        from repro.wire.tcpw import ACK, TcpHeader

        sim = Simulator()
        tap = SnifferTap(sim, drop_windows=[(100, 200), (500, 600)])
        header = TcpHeader(
            src_port=1, dst_port=2, seq=0, ack=0, flags=ACK, window=100
        )
        pkt = Packet(src="1.1.1.1", dst="2.2.2.2", payload=header, wire_length=54)
        tap._observe(pkt, 50)    # captured
        tap._observe(pkt, 150)   # dropped in window 1
        tap._observe(pkt, 150)   # dropped in window 1
        tap._observe(pkt, 700)   # captured (window 2 never hit)
        health = tap.health()
        assert health.records_read == 2
        assert health.by_stage() == {STAGE_CAPTURE: 1}
        (issue,) = health.issues
        assert issue.kind == "sniffer-drop-window"
        assert issue.bytes_lost == 108
        assert "2 frame(s) dropped" in issue.detail

    def test_health_clean_when_nothing_dropped(self):
        sim = Simulator()
        tap = SnifferTap(sim, drop_windows=[(100, 200)])
        assert tap.health().ok
