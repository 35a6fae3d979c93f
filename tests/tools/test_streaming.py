"""Tests for the online (streaming) pcap2bgp reconstruction."""

import random

import pytest

from repro.bgp.messages import UpdateMessage
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.tools.pcap2bgp import StreamingPcap2Bgp, pcap_to_bgp
from repro.wire import frames
from repro.wire.pcap import PcapRecord
from repro.wire.tcpw import SYN
from repro.workloads.scenarios import MonitoringSetup, RouterParams

ROUTER_IP = "10.65.0.1"


def make_capture(loss=False, table_size=3_000, seed=65):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(table_size, random.Random(seed))
    setup.add_router(
        RouterParams(
            name="r1",
            ip=ROUTER_IP,
            table=table,
            downstream_loss=(
                WindowLoss([(seconds(0.03), seconds(0.3))]) if loss else None
            ),
        )
    )
    setup.start()
    sim.run(until_us=seconds(120))
    return setup.sniffer.sorted_records(), table


def swap_two_data_segments(records):
    """The capture with two data segments' frames exchanged (network
    reordering: each record keeps its timestamp)."""
    data = [
        i for i, record in enumerate(records)
        if frames.parse_packet(record.data).payload
        and frames.parse_packet(record.data).src_ip == ROUTER_IP
    ]
    i, j = data[len(data) // 3], data[len(data) // 3 + 1]
    swapped = list(records)
    swapped[i] = PcapRecord(records[i].timestamp_us, records[j].data)
    swapped[j] = PcapRecord(records[j].timestamp_us, records[i].data)
    return swapped


def assert_streaming_matches_offline(case):
    """Online and offline give the data direction's messages with the
    same completion times, in the same order."""
    records, table = make_capture(loss=case == "lossy")
    if case == "swapped":
        records = swap_two_data_segments(records)
    elif case == "no-syn":  # the capture started mid-connection
        records = [
            record for record in records
            if not frames.parse_packet(record.data).flags & SYN
        ]
    stream = StreamingPcap2Bgp()
    for record in records:
        stream.feed(record)
    streamed = [
        (timed.timestamp_us, type(timed.message).__name__)
        for flow, timed in stream.messages
        if flow[0] == ROUTER_IP
    ]
    (offline,) = [
        result for result in pcap_to_bgp(records).values()
        if result.sender_ip == ROUTER_IP
    ]
    assert streamed == [
        (timed.timestamp_us, type(timed.message).__name__)
        for timed in offline.messages
    ]
    assert len(offline.updates()) == len(table.to_updates())


class TestStreaming:
    def test_streaming_matches_offline(self):
        assert_streaming_matches_offline("clean")

    @pytest.mark.parametrize("case", ["lossy", "swapped", "no-syn"])
    def test_streaming_matches_offline_despite(self, case):
        assert_streaming_matches_offline(case)

    def test_streaming_handles_retransmissions(self):
        records, table = make_capture(loss=True)
        stream = StreamingPcap2Bgp()
        for record in records:
            stream.feed(record)
        updates = [
            timed for _, timed in stream.messages
            if isinstance(timed.message, UpdateMessage)
        ]
        assert len(updates) == len(table.to_updates())
        stamps = [u.timestamp_us for u in updates]
        assert stamps == sorted(stamps)

    def test_callback_invoked_per_message(self):
        records, table = make_capture(table_size=500)
        seen = []
        stream = StreamingPcap2Bgp(on_message=lambda flow, t: seen.append(t))
        for record in records:
            stream.feed(record)
        assert len(seen) == len(stream.messages)
        assert len(seen) > 0

    def test_incremental_emission_is_prompt(self):
        """Messages surface as soon as their bytes are contiguous, not
        at the end of the capture."""
        records, table = make_capture(table_size=2_000)
        stream = StreamingPcap2Bgp()
        first_emit_index = None
        for index, record in enumerate(records):
            if stream.feed(record) and first_emit_index is None:
                first_emit_index = index
        assert first_emit_index is not None
        assert first_emit_index < len(records) // 2

    def test_garbage_frames_counted(self):
        stream = StreamingPcap2Bgp()
        stream.feed(PcapRecord(timestamp_us=0, data=b"\x01" * 30))
        assert stream.skipped_frames == 1
        assert stream.messages == []

    def test_flow_tracking(self):
        records, _ = make_capture(table_size=500)
        stream = StreamingPcap2Bgp()
        for record in records:
            stream.feed(record)
        # Data direction plus the collector's OPEN/KEEPALIVE direction.
        assert len(stream.flows()) == 2
