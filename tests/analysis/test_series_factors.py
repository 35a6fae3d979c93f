"""Unit tests for series generation, step functions and factor vectors."""

import pytest

from repro.analysis.ackshift import shift_acks
from repro.analysis.factors import FACTORS, classify
from repro.analysis.labeling import label_connection
from repro.analysis.series import (
    SERIES_NAMES,
    SeriesConfig,
    StepFunction,
    generate_series,
)

from tests.analysis.helpers import TraceBuilder


def shifted_series(conn, **kwargs):
    """Run the ACK shift first, as the full T-DAT pipeline does."""
    shift_acks(conn)
    return generate_series(conn, **kwargs)


def timer_gap_connection(gap_us=200_000, flights=10, rtt=9_000):
    """A sender emitting one small flight per timer tick."""
    builder = TraceBuilder().handshake(d1=1000, d2=rtt - 1000)
    t = 100_000
    seq = 0
    for _ in range(flights):
        builder.data(t, seq, 1400)
        builder.data(t + 150, seq + 1400, 1400)
        builder.ack(t + 1000, seq + 2800)
        seq += 2800
        t += gap_us
    return builder.build()


def window_bound_connection(window=16384, rtt=10_000, rounds=12):
    """A sender filling the advertised window every round trip."""
    builder = TraceBuilder().handshake(d1=500, d2=rtt - 500)
    t = 100_000
    seq = 0
    for _ in range(rounds):
        offset = 0
        while offset + 1400 <= window:
            builder.data(t + offset // 14, seq + offset, 1400)
            offset += 1400
        builder.ack(t + 1200, seq + offset, window=window)
        seq += offset
        t += rtt
    return builder.build()


def spans(ranges) -> list[tuple[int, int]]:
    return [(r.start, r.end) for r in ranges]


class TestStepFunction:
    def test_initial_value(self):
        fn = StepFunction.from_columns([], [], initial=7)
        assert spans(fn.ranges_where(lambda v: v == 7, 0, 100)) == [(0, 100)]
        assert spans(fn.ranges_where(lambda v: v != 7, 0, 100)) == []

    def test_value_lookup(self):
        fn = StepFunction.from_columns([10, 20], [5, 0])
        assert spans(fn.ranges_where(lambda v: v == 0, 0, 30)) == [
            (0, 10), (20, 30)
        ]
        assert spans(fn.ranges_where(lambda v: v == 5, 0, 30)) == [(10, 20)]
        # A window that opens inside a step starts with that step's value.
        assert spans(fn.ranges_where(lambda v: v == 5, 15, 30)) == [(15, 20)]

    def test_ranges_where(self):
        fn = StepFunction.from_columns([10, 20, 30], [5, 0, 5])
        ranges = fn.ranges_where(lambda v: v > 0, 0, 40)
        assert spans(ranges) == [(10, 20), (30, 40)]

    def test_ranges_where_empty_window(self):
        fn = StepFunction()
        assert len(fn.ranges_where(lambda v: True, 10, 10)) == 0


class TestSeriesGeneration:
    def test_catalog_has_expected_series(self):
        conn = timer_gap_connection()
        result = generate_series(conn)
        for name in SERIES_NAMES:
            assert name in result.catalog, f"missing series {name}"

    def test_transmission_is_small_fraction(self):
        conn = timer_gap_connection()
        result = generate_series(conn)
        period = result.window.duration
        assert result.get("Transmission").size() < 0.05 * period

    def test_gaps_complement_transmission(self):
        conn = timer_gap_connection()
        result = generate_series(conn)
        gaps = result.get("InterTransmissionGaps")
        tx = result.get("Transmission")
        total = gaps.size() + tx.ranges.clip(
            result.window.start, result.window.end
        ).size()
        assert total == result.window.duration

    def test_send_app_limited_catches_timer_gaps(self):
        conn = timer_gap_connection(gap_us=200_000, flights=10)
        result = generate_series(conn)
        idle = result.get("SendAppLimited")
        # Nine inter-flight gaps of roughly (200ms - rtt).
        assert len(idle) >= 8
        ratio = idle.delay_ratio(result.window.duration)
        assert ratio > 0.8

    def test_window_bound_connection_is_adv_bound(self):
        conn = window_bound_connection()
        result = shifted_series(conn)
        adv = result.get("AdvBndOut")
        assert adv.delay_ratio(result.window.duration) > 0.5
        # 16KB max window minus outstanding is always < 3 MSS here and
        # the window sits at its max: the "large window" bound.
        large = result.get("LargeAdvBndOut")
        assert large.delay_ratio(result.window.duration) > 0.5
        assert result.get("SendAppLimited").delay_ratio(
            result.window.duration
        ) < 0.2

    def test_zero_window_series(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 1400, window=0)
        builder.ack(500_000, 1400, window=65535)
        builder.data(501_000, 1400, 1400)
        builder.ack(502_000, 2800)
        conn = builder.build()
        result = generate_series(conn)
        zero = result.get("ZeroAdvWindow")
        assert zero.size() >= 400_000

    def test_explicit_window_clips(self):
        conn = timer_gap_connection()
        result = generate_series(conn, window=(100_000, 300_000))
        assert result.window.duration == 200_000

    def test_series_span_counts_stored_ranges(self):
        from repro.analysis.tdat import analyze_connection
        from repro.obs import Observability, use_obs

        obs = Observability.create()
        with use_obs(obs):
            analysis = analyze_connection(timer_gap_connection())
        (span,) = [s for s in obs.tracer.spans if s.name == "analysis.series"]
        stored = sum(len(series) for series in analysis.series.catalog)
        assert stored > 0
        assert span.args == {"ranges": stored}

    def test_requires_finalized_connection(self):
        from repro.analysis.profile import Connection

        conn = Connection(("a", 1, "b", 2))
        with pytest.raises(ValueError):
            generate_series(conn)


class TestFactors:
    def test_timer_connection_is_sender_app_limited(self):
        conn = timer_gap_connection()
        report = classify(generate_series(conn))
        assert report.major_groups() == ["sender"]
        assert report.major_factors()["sender"] == "bgp_sender_app"

    def test_window_connection_is_receiver_limited(self):
        conn = window_bound_connection()
        report = classify(shifted_series(conn))
        assert "receiver" in report.major_groups()
        assert report.major_factors()["receiver"] == "tcp_advertised_window"

    def test_vector_shapes(self):
        report = classify(generate_series(timer_gap_connection()))
        assert len(report.vector) == len(FACTORS) == 8
        assert len(report.group_vector) == 3
        assert all(0.0 <= r <= 1.0 for r in report.vector)
        assert all(0.0 <= r <= 1.0 for r in report.group_vector)

    def test_group_is_union_not_sum(self):
        report = classify(shifted_series(window_bound_connection()))
        sender_sum = sum(
            report.ratios[name]
            for name, (_, group) in FACTORS.items()
            if group == "sender"
        )
        assert report.group_ratios["sender"] <= sender_sum + 1e-9

    def test_unknown_when_nothing_major(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 1400)
        report = classify(generate_series(builder.build()))
        # No group ratio exceeds 1: at that threshold nothing is major.
        assert report.major_groups(1.0) == []
        assert report.major_groups(0.0) != []

    def test_threshold_sensitivity(self):
        report = classify(generate_series(timer_gap_connection()))
        # The paper tests thresholds 0.3..0.5 without qualitative change.
        for threshold in (0.3, 0.4, 0.5):
            assert report.major_groups(threshold) == ["sender"]
