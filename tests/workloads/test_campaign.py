"""Tests for the campaign layer (episodes, mixtures, special scenarios)."""

import io

import pytest

from repro.analysis import tdat
from repro.analysis.detectors import (
    PEER_GROUP_MIN_BLOCK_US,
    detect_peer_group_blocking,
)
from repro.analysis.mct import minimum_collection_time
from repro.bgp.table import generate_table
from repro.core.health import IngestError, TraceHealth
from repro.core.timeranges import TimeRangeSet
from repro.netsim.random import RandomStreams
from repro.tools.pcap2bgp import pcap_to_bgp
from repro.wire.pcap import read_pcap
from repro.workloads import campaign
from repro.workloads.campaign import (
    CLEAN,
    DOWNSTREAM_LOSS,
    LOADED_COLLECTOR,
    PATHOLOGIES,
    TIMER,
    UPSTREAM_LOSS,
    ZERO_ACK_BUG,
    _draw_specs,
    _sweep_spec,
    isp_quagga_config,
    isp_vendor_config,
    peer_group_spec,
    routeviews_config,
    run_episode,
    zero_ack_bug_spec,
)


class TestSpecDrawing:
    def test_deterministic_for_seed(self):
        a, _ = _draw_specs(isp_quagga_config(seed=7, transfers=10))
        b, _ = _draw_specs(isp_quagga_config(seed=7, transfers=10))
        assert [(s.pathology, s.rtt_ms, s.timer_ms) for s in a] == [
            (s.pathology, s.rtt_ms, s.timer_ms) for s in b
        ]

    def test_different_seeds_differ(self):
        a, _ = _draw_specs(isp_quagga_config(seed=7, transfers=10))
        b, _ = _draw_specs(isp_quagga_config(seed=8, transfers=10))
        assert [(s.pathology, s.rtt_ms) for s in a] != [
            (s.pathology, s.rtt_ms) for s in b
        ]

    def test_pathologies_from_mixture(self):
        config = isp_vendor_config(transfers=40)
        specs, _ = _draw_specs(config)
        mixture = specs[: config.transfers]
        assert {s.pathology for s in mixture} <= set(PATHOLOGIES)
        # With 40 draws, several distinct pathologies should appear.
        assert len({s.pathology for s in mixture}) >= 3
        # The zero-ACK-bug episodes follow the mixture.
        assert [s.pathology for s in specs[config.transfers:]] == [
            ZERO_ACK_BUG
        ] * config.zero_bug_episodes

    def test_rv_config_differs(self):
        rv = routeviews_config()
        assert rv.collector_window == 16384
        assert rv.rto_backoff_factor > 2.0
        specs, _ = _draw_specs(rv)
        assert all(15.0 <= s.rtt_ms <= 120.0 for s in specs[: rv.transfers])
        assert all(s.collector_tcp.recv_buffer_bytes == 16384
                   for s in specs[: rv.transfers])

    def test_timer_specs_use_known_values(self):
        specs, _ = _draw_specs(isp_quagga_config(transfers=60))
        timers = {s.timer_ms for s in specs if s.pathology == TIMER}
        assert timers <= {100, 200}


def find_spec(config, pathology):
    specs, _ = _draw_specs(config)
    for spec in specs:
        if spec.pathology == pathology:
            return spec
    pytest.skip(f"mixture produced no {pathology} episode")


class TestEpisodes:
    def test_clean_episode_produces_record(self):
        spec = find_spec(isp_quagga_config(transfers=12), CLEAN)
        (record,) = run_episode(spec)
        assert record.pathology == CLEAN
        assert record.duration_us > 0
        assert record.data_packets > 10
        assert record.mct_ended_by in ("stream-end", "duplicates", "idle")

    def test_timer_episode_detected(self):
        spec = find_spec(isp_quagga_config(transfers=30), TIMER)
        # Pin the timer parameters so the gap signature is unambiguous
        # (huge ticks can saturate TCP and legitimately blur the gaps).
        spec.timer_ms = 200
        spec.messages_per_tick = 10
        spec.rtt_ms = 9.0
        (record,) = run_episode(spec)
        assert record.timer.detected
        assert record.true_timer_us is not None
        # Inferred within 25% of the injected timer.
        assert record.timer.timer_us == pytest.approx(
            record.true_timer_us, rel=0.25
        )
        assert record.factors.major_factors().get("sender") == "bgp_sender_app"

    def test_downstream_loss_episode_flagged(self):
        spec = find_spec(isp_vendor_config(transfers=40), DOWNSTREAM_LOSS)
        (record,) = run_episode(spec)
        assert record.consecutive.detected or (
            record.factors.ratios["receiver_local_loss"] > 0
        )

    def test_loaded_collector_episode(self):
        spec = find_spec(isp_quagga_config(transfers=30), LOADED_COLLECTOR)
        records = run_episode(spec)
        assert len(records) == spec.concurrency
        # At least one transfer must show receiver-side pressure.
        assert any(
            r.factors.group_ratios["receiver"] > 0.2 for r in records
        )

    def test_windowed_analysis_crash_is_contained(self, monkeypatch):
        # Each connection is analyzed once, over its MCT extent, so a
        # crash there is contained to its connection like any other.
        spec = find_spec(isp_quagga_config(transfers=30), LOADED_COLLECTOR)
        assert spec.concurrency > 1
        analyze = tdat.analyze_connection
        crashed = []

        def crash_first_windowed(connection, window=None, **kwargs):
            if window is not None and not crashed:
                crashed.append(connection.key)
                raise ZeroDivisionError("injected")
            return analyze(connection, window=window, **kwargs)

        monkeypatch.setattr(tdat, "analyze_connection", crash_first_windowed)
        health = TraceHealth()
        records = run_episode(spec, health=health)
        assert len(records) == spec.concurrency - 1
        (issue,) = health.issues
        assert issue.kind == "connection-analysis-failed"
        assert issue.detail == f"{crashed[0]}: ZeroDivisionError: injected"
        crashed.clear()
        with pytest.raises(IngestError, match="ZeroDivisionError"):
            run_episode(spec, strict=True)

    def test_zero_ack_bug_episode(self):
        (record,) = run_episode(zero_ack_bug_spec(isp_quagga_config()))
        assert record.pathology == ZERO_ACK_BUG
        assert record.zero_bug.detected


#: one spec of each kind the campaign layer builds.
SPEC_KINDS = {
    "mixture": lambda: find_spec(isp_quagga_config(transfers=12), CLEAN),
    "zero-ack-bug": lambda: zero_ack_bug_spec(isp_quagga_config()),
    "sweep": lambda: _sweep_spec(
        generate_table(8_000, RandomStreams(55).stream("table")), 2, 120
    ),
}


@pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
def test_every_spec_kind_runs_through_run_episode(kind):
    spec = SPEC_KINDS[kind]()
    out = io.BytesIO()
    records = run_episode(spec, pcap_out=out)
    # One record per router, each analyzed over its MCT extent.
    assert len(records) == spec.concurrency
    assert {r.pathology for r in records} == {spec.pathology}
    assert all(r.mct_ended_by != "none" for r in records)
    # Router i sits at {subnet}.{i + 1}, in the capture as in the spec.
    out.seek(0)
    keys = tdat.analyze_pcap(out).analyses
    addresses = {ip for key in keys for ip in (key[0], key[2])}
    assert addresses - {"10.255.0.1"} == {
        f"{spec.subnet}.{i + 1}" for i in range(spec.concurrency)
    }


@pytest.fixture(scope="module")
def short_hold_record():
    """The surviving Quagga record of a 20 s hold-time peer group."""
    (record,) = run_episode(
        peer_group_spec(hold_time_s=20, table_size=8_000, fail_after_s=0.1)
    )
    return record


class TestPeerGroupEpisode:
    def test_default_episode_blocks(self):
        # The vendor must die while the transfer is still running, or
        # there is no queue left to block.
        (record,) = run_episode(peer_group_spec())
        assert record.peer_group.detected

    def test_blocking_detected_and_matches_hold_time(self, short_hold_record):
        blocked = short_hold_record.peer_group
        assert blocked.detected
        # Blocking lasts roughly the hold time (paper: 90-180s scaled).
        assert 12e6 < blocked.induced_delay_us < 28e6
        assert short_hold_record.keepalive_pause.detected

    def test_quagga_duration_includes_block(self, short_hold_record):
        # MCT's idle timeout (30s) exceeds the 20s block, so the
        # estimated transfer extent spans the blocked period.
        assert short_hold_record.duration_s > 15

    def test_blocking_evidence_lies_past_the_failed_extent(self, monkeypatch):
        # Figure 9's ISP_A-Vendor case.  The rule must read the failed
        # collector's loss over its whole connection, because the
        # retransmissions into the void come after that connection's own
        # MCT extent.  The loss the rule counts must lie inside the
        # series window it reads, so Figure 9 keeps its block once
        # series ranges are clipped to their window.
        read = []

        def spy(idle_connection, failed_series):
            read.append(failed_series)
            return detect_peer_group_blocking(idle_connection, failed_series)

        monkeypatch.setattr(campaign, "detect_peer_group_blocking", spy)
        out = io.BytesIO()
        (record,) = run_episode(
            peer_group_spec(
                seed=101, hold_time_s=90, fail_after_s=0.4, table_size=40_000
            ),
            pcap_out=out,
        )
        (series,) = read
        out.seek(0)
        streams = pcap_to_bgp(read_pcap(out))
        (failed_key,) = [key for key in streams if "10.255.0.2" in key]
        updates = streams[failed_key].updates()
        extent = minimum_collection_time(
            [(m.timestamp_us, m.message) for m in updates], start_us=0
        )
        loss = series.catalog.get_or_empty("AllLoss").ranges
        window = TimeRangeSet([series.window])
        assert record.peer_group.detected
        for blocked in record.peer_group.blocked_ranges:
            assert blocked.start >= extent.end_us
            assert series.window.start <= blocked.start
            counted = TimeRangeSet([blocked]).intersection(loss)
            inside = counted.intersection(window).size()
            assert inside == counted.size()
            assert inside >= min(PEER_GROUP_MIN_BLOCK_US, blocked.duration // 2)
