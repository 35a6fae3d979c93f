"""Unit tests for knee detection, MCT and the problem detectors."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.ackshift import shift_acks
from repro.analysis.detectors import (
    detect_consecutive_losses,
    detect_long_keepalive_pauses,
    detect_timer_gaps,
    detect_zero_ack_bug,
)
from repro.analysis.knee import l_method_knee, plateau_value
from repro.analysis.mct import minimum_collection_time
from repro.analysis.series import generate_series
from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import Prefix, UpdateMessage
from repro.core.units import seconds

from tests.analysis.helpers import TraceBuilder
from tests.analysis.test_series_factors import timer_gap_connection


class TestKnee:
    def test_clear_knee(self):
        values = [10.0] * 20 + [100.0, 200.0, 300.0, 400.0]
        knee = l_method_knee(values)
        assert knee is not None
        assert 17 <= knee <= 21

    def test_plateau_value(self):
        values = sorted([200.0] * 15 + [950.0, 1800.0, 3600.0])
        knee = l_method_knee(values)
        assert plateau_value(values, knee) == pytest.approx(200.0)

    def test_degenerate_inputs(self):
        assert l_method_knee([]) is None
        assert l_method_knee([1.0, 2.0, 3.0]) is None
        assert plateau_value([1.0], None) is None

    def test_straight_line_has_low_confidence_knee(self):
        # A pure line has no meaningful knee; we only require no crash.
        values = [float(i) for i in range(30)]
        knee = l_method_knee(values)
        assert knee is None or 0 <= knee < 30

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            l_method_knee([1.0, 2.0, bad, 4.0, 5.0])

    def test_float_scaling_is_exact(self):
        # Floats reach the integer kernel scaled by a power of two, so a
        # curve and its binary rescalings share one knee.
        curve = [12.0] * 30 + [20.0, 90.0, 400.0, 700.0, 1300.0]
        knee = l_method_knee(curve)
        for shift in (-40, -3, 5):
            assert l_method_knee([math.ldexp(v, shift) for v in curve]) == knee
        assert l_method_knee([v + 0.1 for v in curve]) == _oracle_knee(
            [v + 0.1 for v in curve]
        )

    def test_planted_knee_at_scale(self):
        # A day-long rate-limited transfer: 100k gaps, a 200 ms timer
        # plateau then a long tail.  The quadratic search cannot finish.
        rng = random.Random(7)
        plateau = [200_000 + rng.randint(0, 800) for _ in range(90_000)]
        tail = [rng.randint(1_000_000, 5_000_000) for _ in range(10_000)]
        gaps = sorted(plateau + tail)
        knee = l_method_knee(gaps)
        assert 89_000 <= knee <= 90_500
        assert plateau_value(gaps, knee) == pytest.approx(200_400, abs=400)


def _oracle_totals(values):
    """Weighted total RMSE per split, refitting both lines every time.

    The original quadratic L-method, kept here only as the reference
    the linear-time kernel is checked against.
    """

    def line_fit_rmse(xs, ys):
        n = len(xs)
        if n < 2:
            return 0.0
        mean_x = sum(xs) / n
        mean_y = sum(ys) / n
        sxx = sum((x - mean_x) ** 2 for x in xs)
        if sxx == 0:
            return 0.0
        slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sxx
        intercept = mean_y - slope * mean_x
        sse = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        return math.sqrt(sse / n)

    n = len(values)
    xs = list(range(n))
    totals = {}
    for c in range(1, n - 2):
        left_rmse = line_fit_rmse(xs[: c + 1], values[: c + 1])
        right_rmse = line_fit_rmse(xs[c + 1 :], values[c + 1 :])
        weight_left = (c + 1) / n
        totals[c] = weight_left * left_rmse + (1 - weight_left) * right_rmse
    return totals


def _oracle_knee(values):
    totals = _oracle_totals([float(v) for v in values])
    best_index, best_error = None, math.inf
    for c, total in totals.items():
        if total < best_error:
            best_index, best_error = c, total
    return best_index


@st.composite
def plateau_tail_curves(draw):
    n = draw(st.integers(4, 300))
    plateau_len = draw(st.integers(1, n))
    base = draw(st.integers(0, 2_000_000))
    jitter = draw(st.integers(0, 5_000))
    plateau = draw(st.lists(st.integers(base, base + jitter),
                            min_size=plateau_len, max_size=plateau_len))
    tail = draw(st.lists(st.integers(base, 5_000_000),
                         min_size=n - plateau_len, max_size=n - plateau_len))
    return sorted(plateau + tail)


sorted_curves = st.lists(
    st.integers(0, 5_000_000), min_size=0, max_size=300
).map(sorted)


class TestKneeDifferential:
    """The linear kernel against the quadratic oracle."""

    def check(self, values):
        got = l_method_knee(values)
        want = _oracle_knee(values)
        if got == want:
            return
        # Only a floating-point tie may separate them: the oracle's own
        # totals at the two indices agree to 1e-9 relative.
        assert got is not None and want is not None
        totals = _oracle_totals([float(v) for v in values])
        assert totals[got] == pytest.approx(totals[want], rel=1e-9, abs=0)

    @settings(max_examples=60, deadline=None)
    @given(plateau_tail_curves())
    def test_plateau_plus_tail(self, values):
        self.check(values)

    @settings(max_examples=60, deadline=None)
    @given(sorted_curves)
    def test_arbitrary_sorted(self, values):
        self.check(values)


def make_update(*cidrs):
    return UpdateMessage(
        announced=tuple(Prefix.parse(c) for c in cidrs),
        attributes=PathAttributes.from_path([65001], "10.0.0.1"),
    )


class TestMct:
    def test_empty_stream(self):
        assert minimum_collection_time([]) is None

    def test_simple_burst(self):
        updates = [
            (seconds(1), make_update("10.0.0.0/8")),
            (seconds(2), make_update("10.1.0.0/16")),
            (seconds(3), make_update("10.2.0.0/16")),
        ]
        transfer = minimum_collection_time(updates, start_us=seconds(0.5))
        assert transfer.start_us == seconds(0.5)
        assert transfer.end_us == seconds(3)
        assert transfer.prefixes == 3
        assert transfer.ended_by == "stream-end"

    def test_duplicates_end_transfer(self):
        updates = [
            (seconds(i), make_update(f"10.{i}.0.0/16")) for i in range(1, 21)
        ]
        # Steady-state churn: the same prefixes re-announced.
        updates += [
            (seconds(21 + i), make_update(f"10.{(i % 3) + 1}.0.0/16"))
            for i in range(10)
        ]
        transfer = minimum_collection_time(updates)
        assert transfer.ended_by == "duplicates"
        assert transfer.end_us == seconds(20)
        assert transfer.prefixes == 20

    def test_idle_ends_transfer(self):
        updates = [
            (seconds(1), make_update("10.1.0.0/16")),
            (seconds(2), make_update("10.2.0.0/16")),
            (seconds(100), make_update("10.3.0.0/16")),  # an hour later...
        ]
        transfer = minimum_collection_time(updates, idle_timeout_us=seconds(30))
        assert transfer.ended_by == "idle"
        assert transfer.end_us == seconds(2)

    def test_withdraw_only_updates_are_not_duplicates(self):
        updates = [
            (seconds(1), make_update("10.1.0.0/16")),
            (seconds(2), UpdateMessage(withdrawn=(Prefix("10.9.0.0", 16),))),
            (seconds(3), make_update("10.2.0.0/16")),
        ]
        transfer = minimum_collection_time(updates)
        assert transfer.end_us == seconds(3)
        assert transfer.prefixes == 2


class TestTimerGapDetector:
    def test_detects_injected_timer(self):
        conn = timer_gap_connection(gap_us=200_000, flights=15, rtt=9_000)
        shift_acks(conn)
        series = generate_series(conn)
        report = detect_timer_gaps(series)
        assert report.detected
        # Inferred timer should land near the injected 200ms.
        assert report.timer_us == pytest.approx(200_000, rel=0.15)
        assert report.induced_delay_us > seconds(2)

    def test_no_false_positive_on_uniform_random_gaps(self):
        rng = random.Random(3)
        builder = TraceBuilder().handshake()
        t = 100_000
        seq = 0
        for _ in range(30):
            builder.data(t, seq, 1400)
            builder.ack(t + 1000, seq + 1400)
            seq += 1400
            t += rng.randint(30_000, 2_000_000)  # smooth spread, no mode
        conn = builder.build()
        shift_acks(conn)
        report = detect_timer_gaps(generate_series(conn))
        assert not report.detected

    def test_too_few_gaps(self):
        conn = timer_gap_connection(gap_us=200_000, flights=4)
        shift_acks(conn)
        report = detect_timer_gaps(generate_series(conn))
        assert not report.detected


class TestConsecutiveLossDetector:
    def lossy_connection(self, retransmissions):
        builder = TraceBuilder().handshake()
        # One flight seen at the tap, then the same bytes resent many
        # times (receiver-local blackout).
        for i in range(retransmissions):
            builder.data(20_000 + i * 100, i * 1400, 1400)
        builder.ack(21_500, 0)
        t = 400_000
        for i in range(retransmissions):
            builder.data(t + i * 100, i * 1400, 1400)
        builder.ack(t + 50_000, retransmissions * 1400)
        return builder.build()

    def test_detects_long_run(self):
        conn = self.lossy_connection(10)
        shift_acks(conn)
        report = detect_consecutive_losses(generate_series(conn))
        assert report.detected
        assert report.episodes == 1
        assert report.worst_run >= 10
        assert report.induced_delay_us > 100_000

    def test_below_threshold_not_flagged(self):
        conn = self.lossy_connection(3)
        shift_acks(conn)
        report = detect_consecutive_losses(generate_series(conn))
        assert not report.detected
        assert report.worst_run >= 3


class TestKeepalivePauseDetector:
    def test_long_keepalive_pause_detected(self):
        from repro.bgp.messages import KeepaliveMessage, encode_message

        ka = encode_message(KeepaliveMessage())
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 1400)
        # 120 seconds with only keepalives every 30s.
        seq = 1400
        for i in range(4):
            t = seconds(30 * (i + 1))
            builder.data(t, seq, len(ka), payload=ka)
            builder.ack(t + 1000, seq + len(ka))
            seq += len(ka)
        builder.data(seconds(125), seq, 1400)
        builder.ack(seconds(126), seq + 1400)
        conn = builder.build()
        shift_acks(conn)
        series = generate_series(conn)
        report = detect_long_keepalive_pauses(series, conn)
        assert report.detected
        assert report.induced_delay_us > seconds(60)

    def test_data_in_pause_rejects_detection(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 1400)
        builder.data(seconds(30), 1400, 1400)  # real data, not keepalive
        builder.ack(seconds(31), 2800)
        builder.data(seconds(60), 2800, 1400)
        builder.ack(seconds(61), 4200)
        conn = builder.build()
        shift_acks(conn)
        report = detect_long_keepalive_pauses(generate_series(conn), conn)
        assert not report.detected


class TestZeroAckBugDetector:
    def test_detects_conflicting_series(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_100, 1400, 1400)
        builder.data(20_200, 4200, 1400)  # gap: upstream loss evidence
        builder.ack(21_000, 2800, window=0)  # zero window at the same time
        builder.data(seconds(2), 2800, 1400)  # late fill
        builder.ack(seconds(2) + 1000, 5600, window=65535)
        conn = builder.build()
        report = detect_zero_ack_bug(generate_series(conn))
        assert report.detected
        assert report.occurrences >= 1

    def test_clean_connection_not_flagged(self):
        conn = timer_gap_connection()
        report = detect_zero_ack_bug(generate_series(conn))
        assert not report.detected
