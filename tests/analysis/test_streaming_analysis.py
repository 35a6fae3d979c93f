"""Streaming and parallel ``analyze_pcap`` must match the buffered run."""

import random

import pytest

from repro.analysis.profile import iter_connections
from repro.analysis.tdat import analyze_pcap, iter_analyze_pcap
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


@pytest.fixture(scope="module")
def records():
    """Three concurrent transfers: multiple interleaved connections."""
    sim = Simulator()
    setup = MonitoringSetup(sim)
    for i in range(3):
        table = generate_table(2_000 + 500 * i, random.Random(70 + i))
        setup.add_router(
            RouterParams(name=f"r{i}", ip=f"10.70.0.{i + 1}", table=table)
        )
    setup.start()
    sim.run(until_us=seconds(120))
    return setup.sniffer.sorted_records()


@pytest.fixture(scope="module")
def buffered(records):
    return analyze_pcap(records)


def _fingerprint(report):
    """Everything a mode could plausibly perturb, per connection."""
    return {
        key: (
            analysis.factors.ratios,
            analysis.factors.analysis_period_us,
            len(analysis.labeling.retransmissions()),
            analysis.connection.profile.duration_us,
        )
        for key, analysis in report.analyses.items()
    }


class TestModeEquivalence:
    @pytest.mark.parametrize(
        "kwargs",
        [pytest.param({"streaming": True}, id="streaming")],
    )
    def test_same_report_as_buffered(self, records, buffered, kwargs):
        report = analyze_pcap(records, **kwargs)
        # Same connections, in the same (capture) order.
        assert list(report.analyses) == list(buffered.analyses)
        assert _fingerprint(report) == _fingerprint(buffered)
        assert report.skipped_connections == buffered.skipped_connections

    def test_iter_analyze_yields_every_connection(self, records, buffered):
        keys = {a.key for a in iter_analyze_pcap(records)}
        assert keys == set(buffered.analyses)


class TestIterConnections:
    def test_streams_same_flows_as_trace(self, records, buffered):
        keys = [c.key for c in iter_connections(records)]
        assert set(buffered.analyses) <= set(keys)

    def test_flows_are_complete(self, records):
        for connection in iter_connections(records):
            if connection.profile is None:
                continue
            # Every streamed flow carries its whole packet history.
            assert connection.packets.index[0] <= connection.packets.index[-1]
            assert connection.profile.total_data_packets > 0
