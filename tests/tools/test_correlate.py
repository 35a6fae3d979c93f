"""Tests for BGP-message-to-packet correlation (the Table III machinery)."""

import random

import pytest

from repro.analysis.profile import Trace
from repro.bgp.messages import UpdateMessage
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import WindowLoss
from repro.netsim.simulator import Simulator
from repro.tools.correlate import correlate_messages, delayed_updates
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def make_connection(loss=False, table_size=4_000, seed=66):
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(table_size, random.Random(seed))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.66.0.1",
            table=table,
            downstream_loss=(
                WindowLoss([(seconds(0.03), seconds(0.8))]) if loss else None
            ),
        )
    )
    setup.start()
    sim.run(until_us=seconds(120))
    records = setup.sniffer.sorted_records()
    trace = Trace.from_pcap(records)
    return next(iter(trace)), records, table


class TestCorrelation:
    def test_every_message_correlated(self):
        connection, records, table = make_connection()
        correlated = correlate_messages(connection, records)
        updates = [
            c for c in correlated if isinstance(c.message, UpdateMessage)
        ]
        assert len(updates) == len(table.to_updates())

    def test_byte_ranges_are_contiguous(self):
        connection, records, _ = make_connection()
        correlated = correlate_messages(connection, records)
        for before, after in zip(correlated, correlated[1:]):
            assert after.start_seq == before.end_seq
        assert correlated[0].start_seq == 0
        assert all(c.wire_length >= 19 for c in correlated)

    def test_clean_transfer_has_no_delays(self):
        connection, records, _ = make_connection()
        correlated = correlate_messages(connection, records)
        assert not any(c.retransmitted for c in correlated)
        # Delivery (the ACK of the last byte) trails the first attempt
        # by at most an RTT plus the delayed-ACK timer.
        assert all(c.delay_us < 150_000 for c in correlated)

    def test_lossy_transfer_shows_table3_delays(self):
        connection, records, _ = make_connection(loss=True, table_size=30_000)
        delayed = delayed_updates(connection, records, min_delay_us=300_000)
        # The blackout stalls part of the stream: some updates arrive
        # far later than their first transmission (paper: 1-13s).
        assert delayed
        assert all(c.retransmitted for c in delayed)
        assert max(c.delay_us for c in delayed) > 400_000

    def test_delivery_never_precedes_first_attempt(self):
        connection, records, _ = make_connection(loss=True, table_size=20_000)
        for c in correlate_messages(connection, records):
            assert c.delivered_us >= c.first_attempt_us

    def test_ordering_by_delivery(self):
        connection, records, _ = make_connection(loss=True, table_size=20_000)
        stamps = [c.delivered_us for c in correlate_messages(connection, records)]
        assert stamps == sorted(stamps)
