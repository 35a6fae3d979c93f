"""Unit tests for TimeRange and TimeRangeSet."""

import pytest

from repro.core.timeranges import TimeRange, TimeRangeSet


class TestTimeRange:
    def test_duration(self):
        assert TimeRange(10, 25).duration == 15

    def test_empty_range_allowed(self):
        assert TimeRange(5, 5).duration == 0

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            TimeRange(10, 5)

    def test_contains_half_open(self):
        rng = TimeRangeSet([(10, 20)])
        covered = [t for t in range(5, 25) if rng.overlapping(t, t + 1)]
        assert covered == list(range(10, 20))

    def test_overlaps(self):
        rng = TimeRangeSet([(0, 10)])
        assert rng.overlapping(5, 15) == [TimeRange(0, 10)]
        assert rng.overlapping(10, 15) == []

    def test_touches_includes_adjacency(self):
        assert len(TimeRangeSet([(0, 10), (10, 15)])) == 1
        assert len(TimeRangeSet([(0, 10), (11, 15)])) == 2

    def test_intersect(self):
        out = TimeRangeSet([(0, 10)]).intersection(TimeRangeSet([(5, 20)]))
        assert out.ranges == (TimeRange(5, 10),)

    def test_intersect_disjoint_is_none(self):
        out = TimeRangeSet([(0, 5)]).intersection(TimeRangeSet([(5, 10)]))
        assert out.ranges == ()

    def test_ordering_by_extent(self):
        assert TimeRange(0, 5) < TimeRange(0, 6) < TimeRange(1, 2)


class TestTimeRangeSetBasics:
    def test_empty(self):
        s = TimeRangeSet()
        assert len(s) == 0
        assert s.size() == 0
        assert not s
        assert s.ranges == ()

    def test_add_tuple_coercion(self):
        s = TimeRangeSet([(0, 10), (20, 30)])
        assert len(s) == 2
        assert s.size() == 20

    def test_empty_ranges_dropped(self):
        s = TimeRangeSet([(5, 5)])
        assert len(s) == 0

    def test_coalesce_overlapping(self):
        s = TimeRangeSet([(0, 10), (5, 15)])
        assert list(s) == [TimeRange(0, 15)]

    def test_coalesce_adjacent(self):
        s = TimeRangeSet([(0, 10), (10, 20)])
        assert list(s) == [TimeRange(0, 20)]

    def test_disjoint_preserved_sorted(self):
        s = TimeRangeSet([(20, 30), (0, 10)])
        assert [(r.start, r.end) for r in s] == [(0, 10), (20, 30)]

    def test_insert_bridging_many(self):
        s = TimeRangeSet([(0, 5), (10, 15), (20, 25)])
        s.add_span(4, 21)
        assert list(s) == [TimeRange(0, 25)]

    def test_contains_and_range_at(self):
        s = TimeRangeSet([(0, 10), (20, 30)])
        assert s.overlapping(0, 1) == [TimeRange(0, 10)]
        assert s.overlapping(15, 16) == []
        assert s.overlapping(25, 26) == [TimeRange(20, 30)]
        assert s.overlapping(10, 11) == []

    def test_overlapping_query(self):
        s = TimeRangeSet([(0, 10), (20, 30), (40, 50)])
        hits = s.overlapping(5, 45)
        assert [(r.start, r.end) for r in hits] == [(0, 10), (20, 30), (40, 50)]

    def test_durations(self):
        s = TimeRangeSet([(0, 5), (10, 30)])
        assert s.durations() == [5, 20]

    def test_gaps(self):
        s = TimeRangeSet([(0, 5), (10, 15), (30, 35)])
        gaps = s.complement((0, 35))
        assert [(r.start, r.end) for r in gaps] == [(5, 10), (15, 30)]

    def test_remove_span_splits(self):
        s = TimeRangeSet([(0, 30)])
        s.remove_span(10, 20)
        assert [(r.start, r.end) for r in s] == [(0, 10), (20, 30)]

    def test_remove_span_noop_on_empty_interval(self):
        s = TimeRangeSet([(0, 30)])
        s.remove_span(20, 10)
        assert s.size() == 30


class TestTimeRangeSetAlgebra:
    def test_union(self):
        a = TimeRangeSet([(0, 10), (20, 30)])
        b = TimeRangeSet([(5, 25), (40, 50)])
        u = a.union(b)
        assert [(r.start, r.end) for r in u] == [(0, 30), (40, 50)]

    def test_union_multiple(self):
        a = TimeRangeSet([(0, 5)])
        b = TimeRangeSet([(5, 10)])
        c = TimeRangeSet([(10, 15)])
        assert a.union(b, c).ranges == TimeRangeSet([(0, 15)]).ranges

    def test_intersection(self):
        a = TimeRangeSet([(0, 10), (20, 30)])
        b = TimeRangeSet([(5, 25)])
        i = a.intersection(b)
        assert [(r.start, r.end) for r in i] == [(5, 10), (20, 25)]

    def test_intersection_empty(self):
        a = TimeRangeSet([(0, 10)])
        b = TimeRangeSet([(10, 20)])
        assert a.intersection(b).size() == 0

    def test_difference(self):
        a = TimeRangeSet([(0, 30)])
        b = TimeRangeSet([(5, 10), (20, 40)])
        d = a.difference(b)
        assert [(r.start, r.end) for r in d] == [(0, 5), (10, 20)]

    def test_difference_subtrahend_before(self):
        a = TimeRangeSet([(10, 20)])
        b = TimeRangeSet([(0, 5)])
        assert a.difference(b) == a

    def test_complement(self):
        a = TimeRangeSet([(5, 10), (20, 25)])
        comp = a.complement((0, 30))
        assert [(r.start, r.end) for r in comp] == [(0, 5), (10, 20), (25, 30)]

    def test_clip(self):
        a = TimeRangeSet([(0, 10), (20, 30)])
        clipped = a.clip(5, 25)
        assert [(r.start, r.end) for r in clipped] == [(5, 10), (20, 25)]

    def test_equality(self):
        assert TimeRangeSet([(0, 5), (5, 10)]) == TimeRangeSet([(0, 10)])
        assert TimeRangeSet([(0, 5)]) != TimeRangeSet([(0, 6)])
