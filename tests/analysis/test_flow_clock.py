"""The flow clock of paper section V-D (Qian et al.): a non-RTT
application timer, recovered by the timer-gap detector."""

import random

import pytest

from repro.analysis.detectors import detect_timer_gaps
from repro.analysis.tdat import analyze_pcap
from repro.bgp.sender_models import TimerBatchSender
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.simulator import Simulator
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def run_scenario(sender_model=None, table_size=40_000, seed=61):
    """One clean transfer; ``sender_model(sim)`` paces the router."""
    sim = Simulator()
    setup = MonitoringSetup(sim)
    table = generate_table(table_size, random.Random(seed))
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.61.0.1",
            table=table,
            sender_model=sender_model(sim) if sender_model else None,
        )
    )
    setup.start()
    sim.run(until_us=seconds(600))
    report = analyze_pcap(setup.sniffer.sorted_records())
    return next(iter(report))


class TestFlowClock:
    """The flow clock is the timer-gap detector's answer."""

    def test_timer_sender_yields_clock(self):
        analysis = run_scenario(
            sender_model=lambda sim: TimerBatchSender(sim, 200_000, 10),
        )
        clock = detect_timer_gaps(analysis.series)
        assert clock == analysis.timer_gaps
        assert clock.detected
        assert clock.timer_us == pytest.approx(200_000, rel=0.15)
        assert clock.plateau_count / clock.gap_count > 0.5
        assert clock.gap_count > 10

    def test_unpaced_sender_has_no_clock(self):
        analysis = run_scenario()
        clock = detect_timer_gaps(analysis.series)
        assert not clock.detected
        assert not analysis.timer_gaps.detected
