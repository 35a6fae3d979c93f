"""The columnar TimeRangeSet against the object-list oracle.

``timeranges_oracle`` is the original implementation, kept as a test
oracle.  The differential property replays random operation sequences
against both and requires equal extents after every step, and per
range the same multiset of ``SeriesEventData.packets`` payloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import timeranges
from repro.core.events import EventSeries, SeriesEventData
from repro.core.timeranges import TimeRange, TimeRangeSet
from tests.core import timeranges_oracle as oracle

N = 100_000

coords = st.integers(min_value=-20, max_value=200)
spans = st.tuples(coords, coords).map(lambda t: (min(t), max(t)))
payloads = st.none() | st.integers(min_value=1, max_value=9).map(
    lambda n: SeriesEventData(packets=n)
)
items = st.tuples(spans, payloads).map(lambda t: (*t[0], t[1]))
indices = st.integers(min_value=0, max_value=63)

operations = st.one_of(
    st.tuples(st.just("add"), indices, items),
    st.tuples(st.just("add_span"), indices, items),
    st.tuples(st.just("remove_span"), indices, spans),
    st.tuples(st.just("union"), st.lists(indices, min_size=1, max_size=4)),
    st.tuples(
        st.just("intersection"), st.lists(indices, min_size=1, max_size=3)
    ),
    st.tuples(st.just("difference"), indices, indices),
    st.tuples(st.just("complement"), indices, spans),
    st.tuples(st.just("clip"), indices, spans),
    st.tuples(st.just("dilate"), indices, st.integers(0, 15)),
    st.tuples(st.just("gaps"), indices),
    st.tuples(st.just("shift"), indices, st.integers(-50, 50)),
    st.tuples(st.just("overlapping"), indices, spans),
    st.tuples(st.just("range_at"), indices, coords),
    st.tuples(st.just("size"), indices),
    st.tuples(st.just("durations"), indices),
)


def packets(data) -> list[int]:
    """The sorted packet counts of a payload (a flat list, or one item)."""
    if data is None:
        return []
    items = data if isinstance(data, list) else [data]
    return sorted(item.packets for item in items)


def view(ranges) -> list[tuple[int, int, list[int]]]:
    """Extents and payload packet counts of each range, in order."""
    return [(r.start, r.end, packets(r.data)) for r in ranges]


def apply(module, pool: list, op: tuple):
    """Run ``op`` on ``pool`` (mutated in place); return a query result."""
    name, *args = op

    def pick(index):
        return pool[index % len(pool)]

    if name == "add":
        pick(args[0]).add(module.TimeRange(*args[1]))
    elif name == "add_span":
        pick(args[0]).add_span(*args[1])
    elif name == "remove_span":
        pick(args[0]).remove_span(*args[1])
    elif name == "union":
        first, *rest = (pick(i) for i in args[0])
        pool.append(first.union(*rest))
    elif name == "intersection":
        first, *rest = (pick(i) for i in args[0])
        pool.append(first.intersection(*rest))
    elif name == "difference":
        pool.append(pick(args[0]).difference(pick(args[1])))
    elif name == "complement":
        pool.append(pick(args[0]).complement(args[1]))
    elif name == "clip":
        pool.append(pick(args[0]).clip(*args[1]))
    elif name == "dilate":
        pool.append(pick(args[0]).dilate(args[1]))
    elif name == "gaps":
        pool.append(pick(args[0]).gaps())
    elif name == "shift":
        pool.append(pick(args[0]).shift(args[1]))
    elif name == "overlapping":
        return view(pick(args[0]).overlapping(*args[1]))
    elif name == "range_at":
        hit = pick(args[0]).range_at(args[1])
        return None if hit is None else view([hit])
    elif name == "size":
        return pick(args[0]).size()
    elif name == "durations":
        return pick(args[0]).durations()
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(items, max_size=10), min_size=1, max_size=3),
    st.lists(operations, max_size=25),
)
def test_matches_object_list_oracle(initial, ops):
    pool = [TimeRangeSet(spans) for spans in initial]
    reference = [oracle.TimeRangeSet(spans) for spans in initial]
    for op in ops:
        got = apply(timeranges, pool, op)
        want = apply(oracle, reference, op)
        assert got == want, op
        assert [view(s) for s in pool] == [view(s) for s in reference], op


def touching(n: int) -> list[tuple[int, int, SeriesEventData]]:
    return [(i, i + 1, SeriesEventData(packets=1)) for i in range(n)]


def test_touching_payloads_coalesce_in_one_pass():
    built = EventSeries("Transmission", TimeRangeSet(touching(N)))
    assert len(built) == 1
    assert built.total_packets() == N


def test_touching_payloads_added_in_order():
    grown = TimeRangeSet()
    for span in touching(N):
        grown.add(span)
    series = EventSeries("Transmission", grown)
    assert len(series) == 1
    assert series.total_packets() == N


def test_derived_set_owns_its_payload_lists():
    base = TimeRangeSet(touching(3))
    derived = base.intersection(TimeRangeSet([(0, 10)]))
    derived.add_span(3, 4, SeriesEventData(packets=5))
    assert packets(base.ranges[0].data) == [1, 1, 1]
    assert packets(derived.ranges[0].data) == [1, 1, 1, 5]


def test_constructor_copies_caller_payload_lists():
    caller = [SeriesEventData(packets=1)]
    grown = TimeRangeSet([(0, 1, caller)])
    grown.add_span(1, 2, SeriesEventData(packets=2))
    assert len(caller) == 1


def test_overlapping_returns_only_the_hits():
    s = TimeRangeSet((10 * i, 10 * i + 5) for i in range(1_000))
    hits = s.overlapping(4_003, 4_012)
    assert hits == [TimeRange(4_000, 4_005), TimeRange(4_010, 4_015)]
    assert s.overlapping(4_006, 4_010) == []
