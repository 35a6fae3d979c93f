"""Tests for the series-consumer applications (paper section V-D)."""

import random

import pytest

from repro.analysis.applications import (
    FLAVOR_NEWRENO,
    FLAVOR_TAHOE,
    FLAVOR_UNKNOWN,
    extract_flow_clock,
    infer_tcp_flavor,
)
from repro.analysis.tdat import analyze_pcap
from repro.bgp.sender_models import TimerBatchSender
from repro.bgp.table import generate_table
from repro.core.units import seconds
from repro.netsim.link import BernoulliLoss, WindowLoss
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.workloads.scenarios import MonitoringSetup, RouterParams


def run_scenario(flavor="newreno", loss=None, sender_model_factory=None,
                 table_size=40_000, seed=61):
    from repro.netsim.link import CountedLoss

    sim = Simulator()
    streams = RandomStreams(seed)
    setup = MonitoringSetup(sim)
    table = generate_table(table_size, random.Random(seed))
    upstream_loss = None
    downstream_loss = None
    if loss == "upstream":
        upstream_loss = BernoulliLoss(0.04, streams.stream("loss"))
    elif loss == "downstream":
        downstream_loss = WindowLoss([(seconds(0.06), seconds(0.25))])
    elif loss == "single":
        # One isolated 1-packet loss at a large window: the clean
        # fast-recovery episode that separates Tahoe from Reno.
        downstream_loss = CountedLoss(0)
        sim.schedule(100_000, downstream_loss.arm, 1)
    elif loss == "double":
        # Two packets lost from one flight: a multi-hole recovery,
        # which NewReno alone handles within ~an RTT per hole.
        downstream_loss = CountedLoss(0)
        sim.schedule(100_000, downstream_loss.arm, 2)
    setup.add_router(
        RouterParams(
            name="r1",
            ip="10.61.0.1",
            table=table,
            tcp=TcpConfig(flavor=flavor),
            sender_model=(
                sender_model_factory(sim) if sender_model_factory else None
            ),
            upstream_loss=upstream_loss,
            downstream_loss=downstream_loss,
        )
    )
    setup.start()
    sim.run(until_us=seconds(600))
    report = analyze_pcap(setup.sniffer.sorted_records())
    return next(iter(report))


class TestFlowClock:
    def test_timer_sender_yields_clock(self):
        analysis = run_scenario(
            sender_model_factory=lambda sim: TimerBatchSender(sim, 200_000, 10),
        )
        clock = extract_flow_clock(analysis.series)
        assert clock.detected
        assert clock.period_us == pytest.approx(200_000, rel=0.15)
        assert clock.strength > 0.5
        assert clock.samples > 10

    def test_unpaced_sender_has_no_clock(self):
        analysis = run_scenario()
        clock = extract_flow_clock(analysis.series)
        assert not clock.detected


class TestFlavorInference:
    def test_lossless_connection_is_unknown(self):
        analysis = run_scenario()
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        assert report.flavor == FLAVOR_UNKNOWN

    def test_newreno_on_clean_episode(self):
        """A two-hole loss at a large window: the clean NewReno case."""
        analysis = run_scenario(flavor="newreno", loss="double", table_size=80_000)
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        assert report.fast_recovery_events >= 1
        assert report.flavor == FLAVOR_NEWRENO
        assert report.collapse_events == 0

    def test_tahoe_on_clean_episode(self):
        analysis = run_scenario(flavor="tahoe", loss="single", table_size=80_000)
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        assert report.fast_recovery_events >= 1
        assert report.flavor == FLAVOR_TAHOE
        assert report.collapse_events >= 1

    def test_tahoe_never_inferred_for_reno_clean_episode(self):
        analysis = run_scenario(flavor="reno", loss="single", table_size=80_000)
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        assert report.flavor != FLAVOR_TAHOE
        assert report.collapse_events == 0

    def test_noisy_losses_give_some_answer(self):
        """Under overlapping random losses the inference can degrade,
        but must stay within the window-based family and keep evidence."""
        analysis = run_scenario(flavor="newreno", loss="upstream")
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        assert report.flavor in ("tahoe", "reno", "newreno", FLAVOR_UNKNOWN)
        assert isinstance(report.evidence, list)

    def test_evidence_recorded(self):
        analysis = run_scenario(flavor="newreno", loss="downstream")
        report = infer_tcp_flavor(analysis.connection, analysis.series)
        assert isinstance(report.evidence, list)
