"""The columnar TimeRangeSet against the object-list oracle.

``timeranges_oracle`` is the original implementation, kept as a test
oracle.  The differential property replays random operation sequences
against both and requires equal extents after every step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import timeranges
from repro.core.events import EventSeries
from repro.core.timeranges import TimeRange, TimeRangeSet
from tests.core import timeranges_oracle as oracle

N = 100_000

coords = st.integers(min_value=-20, max_value=200)
spans = st.tuples(coords, coords).map(lambda t: (min(t), max(t)))
indices = st.integers(min_value=0, max_value=63)

operations = st.one_of(
    st.tuples(st.just("add"), indices, spans),
    st.tuples(st.just("add_span"), indices, spans),
    st.tuples(st.just("remove_span"), indices, spans),
    st.tuples(st.just("union"), st.lists(indices, min_size=1, max_size=4)),
    st.tuples(
        st.just("intersection"), st.lists(indices, min_size=1, max_size=3)
    ),
    st.tuples(st.just("difference"), indices, indices),
    st.tuples(st.just("complement"), indices, spans),
    st.tuples(st.just("clip"), indices, spans),
    st.tuples(st.just("dilate"), indices, st.integers(0, 15)),
    st.tuples(st.just("overlapping"), indices, spans),
    st.tuples(st.just("size"), indices),
    st.tuples(st.just("durations"), indices),
)


def view(ranges) -> list[tuple[int, int]]:
    """The extent of each range, in order."""
    return [(r.start, r.end) for r in ranges]


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
    elif name == "overlapping":
        return view(pick(args[0]).overlapping(*args[1]))
    elif name == "size":
        return pick(args[0]).size()
    elif name == "durations":
        return pick(args[0]).durations()
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(spans, max_size=10), min_size=1, max_size=3),
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


def touching(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n)]


def test_touching_spans_coalesce_in_one_pass():
    built = EventSeries("Transmission", TimeRangeSet(touching(N)))
    assert list(built) == [TimeRange(0, N)]
    assert built.size() == N


def test_touching_spans_added_in_order():
    grown = TimeRangeSet()
    for span in touching(N):
        grown.add(span)
    series = EventSeries("Transmission", grown)
    assert list(series) == [TimeRange(0, N)]
    assert series.size() == N


def test_derived_set_owns_its_columns():
    base = TimeRangeSet(touching(3))
    derived = base.intersection()
    derived.add_span(5, 6)
    assert list(base) == [TimeRange(0, 3)]
    assert list(derived) == [TimeRange(0, 3), TimeRange(5, 6)]


def test_overlapping_returns_only_the_hits():
    s = TimeRangeSet((10 * i, 10 * i + 5) for i in range(1_000))
    hits = s.overlapping(4_003, 4_012)
    assert hits == [TimeRange(4_000, 4_005), TimeRange(4_010, 4_015)]
    assert s.overlapping(4_006, 4_010) == []
