"""Tests for reset storms and steady-state churn."""

import random

import pytest

from repro.analysis.mct import minimum_collection_time
from repro.analysis.tdat import analyze_pcap
from repro.bgp.messages import UpdateMessage
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.workloads.churn import ChurnGenerator, ResetStorm
from repro.workloads.scenarios import MonitoringSetup, RouterParams


class TestResetStorm:
    def run_storm(self, resets=3, interval_s=5.0, table_size=8_000):
        sim = Simulator()
        setup = MonitoringSetup(sim)
        table = generate_table(table_size, random.Random(71))
        handle = setup.add_router(
            RouterParams(name="stormy", ip="10.71.0.1", table=table)
        )
        setup.start()
        storm = ResetStorm(
            sim, setup, handle,
            reset_interval_us=seconds(interval_s),
            resets=resets,
        )
        sim.run(until_us=seconds(interval_s * (resets + 2)))
        return sim, setup, storm, table

    def test_each_reset_is_a_new_connection(self):
        sim, setup, storm, table = self.run_storm(resets=3)
        assert storm.incarnations == 4  # initial + 3 resets
        report = analyze_pcap(setup.sniffer.sorted_records())
        assert len(report) == 4
        ports = {key[1] if key[3] == 179 else key[3] for key in report.analyses}
        assert len(ports) == 4

    def test_every_incarnation_transfers_the_table(self):
        sim, setup, storm, table = self.run_storm(resets=2)
        expected = len(table.to_updates())
        # The collector accumulated one full table per incarnation.
        assert setup.collector.updates_archived == 3 * expected

    def test_transfers_have_similar_durations(self):
        """Same table, same conditions: stretch ratio ~1 (Fig 4 baseline)."""
        sim, setup, storm, table = self.run_storm(resets=3)
        records = setup.sniffer.sorted_records()
        durations = []
        for key, stream in _reconstruct(records).items():
            updates = [(m.timestamp_us, m.message) for m in stream.updates()]
            transfer = minimum_collection_time(updates)
            if transfer is not None and transfer.updates > 1:
                durations.append(transfer.duration_us)
        assert len(durations) == 4
        assert max(durations) / min(durations) < 2.0


def _reconstruct(records):
    from repro.tools.pcap2bgp import pcap_to_bgp

    return pcap_to_bgp(records)


class TestChurnGenerator:
    def run_with_churn(self, rate_per_s=20.0, table_size=6_000):
        sim = Simulator()
        streams = RandomStreams(72)
        setup = MonitoringSetup(sim)
        table = generate_table(table_size, random.Random(72))
        handle = setup.add_router(
            RouterParams(name="churny", ip="10.72.0.1", table=table)
        )
        setup.start()
        churn_holder = {}

        def start_churn(session):
            session.announce_table()
            churn_holder["churn"] = ChurnGenerator(
                sim, session, table, rate_per_s, streams.stream("churn"),
                start_after_us=seconds(2),
            )

        handle.session.on_established = start_churn
        sim.run(until_us=seconds(60))
        return sim, setup, handle, table, churn_holder["churn"]

    def test_churn_flows_after_transfer(self):
        sim, setup, handle, table, churn = self.run_with_churn()
        assert churn.updates_sent > 100
        # The collector keeps archiving updates past the transfer.
        assert setup.collector.updates_archived > len(table.to_updates())

    def test_mct_ends_at_transfer_despite_churn(self):
        sim, setup, handle, table, churn = self.run_with_churn()
        updates = [
            (r.timestamp_us, r.message)
            for r in setup.collector.archive
            if isinstance(r.message, UpdateMessage)
        ]
        transfer = minimum_collection_time(updates, start_us=0)
        assert transfer.ended_by == "duplicates"
        # The estimated end falls before the churn phase (which starts
        # 2s after establishment), not at the end of the capture.
        assert transfer.end_us < seconds(3)
        assert transfer.prefixes == len(table)

    def test_withdrawals_update_collector_rib(self):
        sim, setup, handle, table, churn = self.run_with_churn(rate_per_s=40.0)
        assert churn.withdrawals_sent > 0
        # Every churned prefix was re-announced after its withdrawal,
        # so the RIB converges back to the full table size.
        assert len(setup.collector.rib) == pytest.approx(len(table), abs=2)
        assert set(setup.collector.rib.prefixes()) <= set(table.prefixes())

    def test_bad_rate_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ChurnGenerator(sim, None, generate_table(10, random.Random(1)),
                           0, random.Random(1))
