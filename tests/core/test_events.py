"""Unit tests for EventSeries and SeriesCatalog."""

import pytest

from repro.core.events import EventSeries, SeriesCatalog
from repro.core.timeranges import TimeRangeSet


class TestEventSeries:
    def test_construct_from_tuples(self):
        s = EventSeries("Loss", [(0, 10), (20, 30)])
        assert len(s) == 2
        assert s.size() == 20

    def test_construct_from_timerangeset(self):
        trs = TimeRangeSet([(0, 5)])
        s = EventSeries("X", trs)
        assert s.ranges is trs

    def test_delay_ratio(self):
        s = EventSeries("Loss", [(0, 25)])
        assert s.delay_ratio(100) == 0.25

    def test_delay_ratio_zero_period(self):
        assert EventSeries("X", [(0, 10)]).delay_ratio(0) == 0.0

    def test_renamed_is_interpretation_rule(self):
        upstream = EventSeries("UpstreamLoss", [(0, 10)])
        local = upstream.renamed("SendLocalLoss")
        assert local.name == "SendLocalLoss"
        assert local.ranges == upstream.ranges

    def test_intersection_rule(self):
        adv = EventSeries("AdvBndOut", [(0, 20)])
        small = EventSeries("SmallAdv", [(10, 30)])
        combined = adv.intersection(small, name="SmallAdvBndOut")
        assert combined.name == "SmallAdvBndOut"
        assert [(r.start, r.end) for r in combined] == [(10, 20)]

    def test_union_rule(self):
        a = EventSeries("A", [(0, 5)])
        b = EventSeries("B", [(10, 15)])
        assert a.union(b, name="AB").size() == 10

    def test_difference(self):
        a = EventSeries("A", [(0, 20)])
        b = EventSeries("B", [(5, 10)])
        assert a.difference(b).size() == 15

    def test_complement(self):
        a = EventSeries("Transmission", [(10, 20)])
        gaps = a.complement((0, 30), name="Gaps")
        assert gaps.size() == 20

    def test_clip(self):
        a = EventSeries("A", [(0, 100)])
        assert a.clip(10, 30).size() == 20


class TestSeriesCatalog:
    def test_put_get(self):
        cat = SeriesCatalog()
        s = EventSeries("Outstanding", [(0, 10)])
        cat.put(s)
        assert cat.get("Outstanding") is s
        assert "Outstanding" in cat

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            SeriesCatalog().get("nope")

    def test_get_or_empty(self):
        cat = SeriesCatalog()
        empty = cat.get_or_empty("ZeroWindow")
        assert empty.size() == 0
        assert "ZeroWindow" not in cat

    def test_iteration_and_names(self):
        cat = SeriesCatalog()
        cat.put(EventSeries("A"))
        cat.put(EventSeries("B"))
        assert cat.names() == ["A", "B"]
        assert len(cat) == 2
        assert [s.name for s in cat] == ["A", "B"]

    def test_replace(self):
        cat = SeriesCatalog()
        cat.put(EventSeries("A", [(0, 1)]))
        cat.put(EventSeries("A", [(0, 2)]))
        assert cat.get("A").size() == 2
        assert len(cat) == 1
