"""Property-based tests for TimeRangeSet set-algebra laws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeranges import TimeRangeSet

# Keep coordinates small so overlaps are common.
spans = st.tuples(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
).map(lambda t: (min(t), max(t)))

range_sets = st.lists(spans, max_size=12).map(TimeRangeSet)


def covered(s: TimeRangeSet) -> set[int]:
    """Brute-force set of covered integer microsecond ticks."""
    ticks: set[int] = set()
    for rng in s:
        ticks.update(range(rng.start, rng.end))
    return ticks


@given(range_sets)
def test_invariants_sorted_coalesced_nonempty(s):
    prev_end = None
    for rng in s:
        assert rng.duration > 0
        if prev_end is not None:
            # Strictly separated: touching ranges must have coalesced.
            assert rng.start > prev_end
        prev_end = rng.end


@given(range_sets)
def test_size_matches_covered_ticks(s):
    assert s.size() == len(covered(s))


@given(range_sets, range_sets)
def test_union_semantics(a, b):
    assert covered(a.union(b)) == covered(a) | covered(b)


@given(range_sets, range_sets)
def test_intersection_semantics(a, b):
    assert covered(a.intersection(b)) == covered(a) & covered(b)


@given(range_sets, range_sets)
def test_difference_semantics(a, b):
    assert covered(a.difference(b)) == covered(a) - covered(b)


@given(range_sets, range_sets)
def test_union_commutative(a, b):
    assert a.union(b) == b.union(a)


@given(range_sets, range_sets)
def test_intersection_commutative(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(range_sets, range_sets, range_sets)
@settings(max_examples=50)
def test_distributivity(a, b, c):
    left = a.intersection(b.union(c))
    right = a.intersection(b).union(a.intersection(c))
    assert left == right


@given(range_sets)
def test_complement_partitions_window(s):
    window = (0, 250)
    comp = s.complement(window)
    clipped = s.clip(*window)
    assert comp.intersection(clipped).size() == 0
    assert comp.size() + clipped.size() == 250


@given(range_sets, range_sets)
def test_de_morgan(a, b):
    window = (0, 250)
    lhs = a.union(b).complement(window)
    rhs = a.complement(window).intersection(b.complement(window))
    assert lhs == rhs


@given(st.lists(spans, max_size=12))
def test_insertion_order_irrelevant(items):
    forward = TimeRangeSet(items)
    backward = TimeRangeSet(reversed(items))
    assert forward == backward


@given(range_sets, spans)
def test_remove_then_query(s, span):
    start, end = span
    s.remove_span(start, end)
    for rng in s:
        assert rng.end <= start or rng.start >= end or start == end
