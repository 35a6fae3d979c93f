"""Unit tests for retransmission / out-of-sequence classification."""

from repro.analysis.labeling import (
    KIND_DOWNSTREAM,
    KIND_NEW,
    KIND_REORDERING,
    KIND_UPSTREAM,
    label_connection,
)

from tests.analysis.helpers import TraceBuilder


def in_order_connection():
    builder = TraceBuilder().handshake()
    t = 20_000
    for i in range(6):
        builder.data(t + i * 200, i * 1400, 1400)
    builder.ack(30_000, 6 * 1400)
    return builder.build()


def loss_times(result, kind):
    """``(trigger, recovery)`` of the first ``kind`` event."""
    return next((t, r) for _, k, t, r in result.events if k == kind)


class TestCleanStream:
    def test_all_new(self):
        result = label_connection(in_order_connection())
        assert result.count(KIND_NEW) == 6
        assert not result.retransmissions()


class TestDownstreamLoss:
    def test_seen_bytes_resent(self):
        """A segment seen at the tap and later resent = downstream loss."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_200, 1400, 1400)  # seen at tap, lost after tap
        builder.ack(21_000, 1400)  # receiver only got the first
        builder.data(320_000, 1400, 1400)  # RTO retransmission
        builder.ack(321_000, 2800)
        conn = builder.build()
        result = label_connection(conn)
        assert result.count(KIND_DOWNSTREAM) == 1
        trigger, recovery = loss_times(result, KIND_DOWNSTREAM)
        assert trigger == 20_200  # original transmission
        assert recovery == 321_000

    def test_recovery_covers_ack(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.ack(21_000, 0)  # dupack-ish; no progress
        builder.data(320_000, 0, 1400)  # resend
        builder.ack(321_000, 1400)
        result = label_connection(builder.build())
        (retx,) = result.retransmissions()
        assert retx.kind == KIND_DOWNSTREAM
        assert loss_times(result, KIND_DOWNSTREAM)[1] == 321_000


class TestUpstreamLoss:
    def test_unseen_gap_filled_late(self):
        """A hole at the tap filled much later = upstream loss."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        # Segment [1400, 2800) was dropped before the tap: never seen.
        builder.data(20_400, 2800, 1400)
        builder.data(20_600, 4200, 1400)
        builder.ack(21_000, 1400)
        builder.ack(21_100, 1400)
        builder.ack(21_200, 1400)
        builder.data(50_000, 1400, 1400)  # retransmission fills the hole
        builder.ack(51_000, 5600)
        result = label_connection(builder.build())
        assert result.count(KIND_UPSTREAM) == 1
        trigger, recovery = loss_times(result, KIND_UPSTREAM)
        # Triggered when the gap became visible (first packet past it).
        assert trigger == 20_400
        assert recovery == 51_000

    def test_reordering_not_loss(self):
        """A gap filled immediately by an earlier-sent packet = reordering."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400, ip_id=100)
        builder.data(20_100, 2800, 1400, ip_id=102)  # overtook its sibling
        builder.data(20_120, 1400, 1400, ip_id=101)  # arrives 20us later
        builder.ack(21_000, 4200)
        result = label_connection(builder.build())
        assert result.count(KIND_REORDERING) == 1
        assert result.count(KIND_UPSTREAM) == 0

    def test_late_fill_is_loss_even_with_early_ip_id(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400, ip_id=100)
        builder.data(20_100, 2800, 1400, ip_id=102)
        # Arrives 300ms later: beyond any plausible reordering window.
        builder.data(320_000, 1400, 1400, ip_id=101)
        builder.ack(321_000, 4200)
        result = label_connection(builder.build())
        assert result.count(KIND_UPSTREAM) == 1

    def test_quick_fill_with_later_ip_id_is_retransmission(self):
        """Fast retransmit can fill a gap quickly, but its IP ID is new."""
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400, ip_id=100)
        builder.data(20_100, 2800, 1400, ip_id=102)
        builder.data(20_120, 1400, 1400, ip_id=110)  # sent after the gap
        builder.ack(21_000, 4200)
        result = label_connection(builder.build())
        assert result.count(KIND_UPSTREAM) == 1


class TestMixed:
    def test_counts_are_disjoint(self):
        builder = TraceBuilder().handshake()
        builder.data(20_000, 0, 1400)
        builder.data(20_100, 1400, 1400)
        builder.data(20_200, 4200, 1400)  # gap at [2800, 4200)
        builder.ack(21_000, 2800)
        builder.data(50_000, 2800, 1400)  # upstream-loss fill
        builder.data(51_000, 4200, 1400)  # downstream-style resend
        builder.ack(52_000, 5600)
        result = label_connection(builder.build())
        total = sum(
            result.count(k)
            for k in (KIND_NEW, KIND_UPSTREAM, KIND_DOWNSTREAM, KIND_REORDERING)
        )
        assert total == len(result.kinds) == 5
        assert result.count(KIND_UPSTREAM) == 1
        assert result.count(KIND_DOWNSTREAM) == 1
