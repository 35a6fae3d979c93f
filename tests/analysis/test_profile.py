"""Unit tests for trace parsing and connection profiling."""

import io
import random

from repro.analysis.profile import Trace, canonical_key
from repro.bgp.table import generate_table
from repro.netsim.simulator import Simulator
from repro.wire.pcap import PcapRecord, records_to_bytes
from repro.workloads.scenarios import MonitoringSetup, RouterParams

from tests.analysis.helpers import (
    DPORT,
    RECEIVER,
    SENDER,
    SPORT,
    TraceBuilder,
)


class TestCanonicalKey:
    def test_order_independence(self):
        a = canonical_key("10.0.0.1", 40000, "10.0.0.2", 179)
        b = canonical_key("10.0.0.2", 179, "10.0.0.1", 40000)
        assert a == b

    def test_distinct_ports_distinct_keys(self):
        a = canonical_key("10.0.0.1", 40000, "10.0.0.2", 179)
        b = canonical_key("10.0.0.1", 40001, "10.0.0.2", 179)
        assert a != b


class TestConnectionBasics:
    def test_sender_is_bulk_data_source(self):
        conn = (
            TraceBuilder()
            .handshake()
            .data(20_000, 0, 1400)
            .data(20_100, 1400, 1400)
            .ack(21_000, 2800)
            .build()
        )
        assert conn.sender_ip == SENDER
        assert conn.receiver_ip == RECEIVER

    def test_relative_sequences(self):
        conn = TraceBuilder().handshake().data(20_000, 0, 1400).build()
        assert conn.data.seq[0] == 0
        conn2 = (
            TraceBuilder().handshake().data(20_000, 0, 100).ack(21_000, 100).build()
        )
        assert conn2.acks.value[-1] == 100

    def test_profile_counts(self):
        conn = (
            TraceBuilder()
            .handshake()
            .data(20_000, 0, 1400)
            .data(20_100, 1400, 1000)
            .ack(21_000, 2400)
            .build()
        )
        profile = conn.profile
        assert profile.total_data_bytes == 2400
        assert profile.total_data_packets == 2
        assert profile.total_ack_packets >= 1
        assert profile.saw_syn
        assert not profile.saw_fin

    def test_mss_from_syn_option(self):
        conn = TraceBuilder().handshake().data(20_000, 0, 512).build()
        assert conn.profile.mss == 1400

    def test_d2_from_handshake(self):
        conn = (
            TraceBuilder()
            .handshake(t0=0, d1=1_000, d2=8_000)
            .data(20_000, 0, 1400)
            .ack(21_000, 1400)
            .build()
        )
        assert conn.profile.d2_us == 8_000

    def test_d1_from_exact_acks(self):
        builder = TraceBuilder().handshake()
        t = 20_000
        for i in range(5):
            builder.data(t, i * 1400, 1400)
            builder.ack(t + 700, (i + 1) * 1400)
            t += 10_000
        conn = builder.build()
        assert conn.profile.d1_us == 700
        assert conn.profile.rtt_us == 8_700

    def test_max_advertised_window(self):
        conn = (
            TraceBuilder()
            .handshake()
            .data(20_000, 0, 1400)
            .ack(21_000, 1400, window=16384)
            .ack(22_000, 1400, window=12000)
            .build()
        )
        assert conn.profile.max_advertised_window == 16384


class TestTraceFromPcap:
    def make_capture(self):
        sim = Simulator()
        setup = MonitoringSetup(sim)
        table = generate_table(2000, random.Random(21))
        setup.add_router(RouterParams(name="r1", ip="10.1.0.1", table=table))
        setup.start()
        sim.run(until_us=60_000_000)
        return setup.sniffer.sorted_records()

    def test_parse_records_directly(self):
        records = self.make_capture()
        trace = Trace.from_pcap(records)
        assert len(trace) == 1
        conn = next(iter(trace))
        assert conn.profile is not None
        assert conn.profile.total_data_bytes > 8_000
        assert conn.sender_ip == "10.1.0.1"

    def test_parse_pcap_bytes(self):
        records = self.make_capture()
        trace = Trace.from_pcap(io.BytesIO(records_to_bytes(records)))
        assert len(trace) == 1
        assert trace.total_records == len(records)
        assert trace.skipped_frames == 0

    def test_rtt_estimate_close_to_topology(self):
        records = self.make_capture()
        conn = next(iter(Trace.from_pcap(records)))
        # Topology: wan 4ms + tapped 50us + local 0.5ms each way plus
        # serialization => RTT just above 9ms as seen from the tap.
        assert 7_000 < conn.profile.rtt_us < 13_000

    def test_garbage_frames_skipped(self):
        records = self.make_capture()
        records.append(PcapRecord(timestamp_us=10**9, data=b"\x00" * 40))
        trace = Trace.from_pcap(records)
        assert trace.skipped_frames == 1
