"""MetricsRegistry semantics: merge algebra, determinism, no-op path.

The property that carries the whole parallel-campaign design is that a
registry recorded in one process and *split* across N workers folds
back to the same thing: ``merge(split(registry)) == registry`` for any
partition of the recorded events.  That is what makes
``CampaignResult.metrics`` independent of ``workers=``.
"""

from __future__ import annotations

import json
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import NULL_REGISTRY, SECONDS_BUCKETS, MetricsRegistry
from repro.obs.runtime import DISABLED, Observability


def _events_strategy():
    """A list of metric events: (kind, name, value)."""
    names = st.sampled_from(["alpha", "beta", "gamma.delta"])
    counter = st.tuples(
        st.just("counter"), names, st.integers(min_value=0, max_value=1000)
    )
    gauge = st.tuples(
        st.just("gauge"),
        names,
        st.floats(
            min_value=-1e6, max_value=1e6,
            allow_nan=False, allow_infinity=False,
        ),
    )
    # Dyadic rationals: histogram totals are float sums, and only
    # exactly-representable values make the sum independent of how the
    # partition groups the additions.  (The campaign itself always
    # folds per-task registries in the same order, which is an even
    # stronger guarantee; the property here covers any grouping.)
    histogram = st.tuples(
        st.just("histogram"),
        names,
        st.integers(min_value=0, max_value=40_000).map(lambda k: k / 4.0),
    )
    return st.lists(st.one_of(counter, gauge, histogram), max_size=60)


def _record(registry: MetricsRegistry, events) -> None:
    for kind, name, value in events:
        # Distinct namespaces per kind: the registry (rightly) refuses
        # to re-register a name under a different instrument kind.
        if kind == "counter":
            registry.counter(f"c.{name}").inc(value)
        elif kind == "gauge":
            registry.gauge(f"g.{name}").set(value)
        else:
            registry.histogram(f"h.{name}").observe(value)


@given(events=_events_strategy(), cut_points=st.lists(st.integers(0, 60)))
@settings(max_examples=80, deadline=None)
def test_merge_of_any_partition_round_trips(events, cut_points):
    """merge(split(events)) == record(events), for any partition."""
    whole = MetricsRegistry()
    _record(whole, events)

    cuts = sorted({min(c, len(events)) for c in cut_points})
    bounds = [0, *cuts, len(events)]
    merged = MetricsRegistry()
    for lo, hi in zip(bounds, bounds[1:]):
        part = MetricsRegistry()
        _record(part, events[lo:hi])
        merged.merge(part)

    assert merged.to_dict() == whole.to_dict()


@given(events=_events_strategy())
@settings(max_examples=40, deadline=None)
def test_merge_survives_pickle_round_trip(events):
    """Worker registries travel back over a pipe; pickling is lossless."""
    original = MetricsRegistry()
    _record(original, events)
    clone = pickle.loads(pickle.dumps(original))
    assert clone.to_dict() == original.to_dict()
    # and the clone is still live, not a frozen snapshot
    clone.counter("c.alpha").inc()


def test_crashed_worker_partial_registry_merges_without_double_count():
    """A retried task's partial export must not inflate the totals.

    The campaign driver only absorbs the export of the *successful*
    attempt; this test pins the registry-level contract that makes the
    recovery story honest: merging the partial then the complete
    registry would double-count, so the driver must (and does) drop the
    partial one.  Here we assert that merging only the surviving
    attempt reproduces the uncontested totals exactly.
    """
    # attempt 1 dies halfway: it recorded 3 of its 6 events
    partial = MetricsRegistry()
    partial.counter("episodes").inc()
    partial.counter("records").inc(3)
    # attempt 2 (the retry) runs to completion
    complete = MetricsRegistry()
    complete.counter("episodes").inc()
    complete.counter("records").inc(6)

    parent = MetricsRegistry()
    parent.merge(complete)  # the driver folds only resolved outcomes
    snapshot = parent.to_dict()
    assert snapshot["episodes"]["value"] == 1
    assert snapshot["records"]["value"] == 6

    # folding the partial as well would corrupt both counters
    corrupted = MetricsRegistry()
    corrupted.merge(partial)
    corrupted.merge(complete)
    assert corrupted.to_dict()["records"]["value"] == 9


def test_histogram_merge_adds_bucketwise():
    a = MetricsRegistry()
    b = MetricsRegistry()
    for value in (0.0005, 0.05, 5.0):
        a.histogram("lat").observe(value)
    for value in (0.05, 500.0):
        b.histogram("lat").observe(value)
    a.merge(b)
    snap = a.to_dict()["lat"]
    assert snap["count"] == 5
    assert snap["min"] == 0.0005
    assert snap["max"] == 500.0
    assert sum(snap["counts"]) == 5
    assert len(snap["counts"]) == len(SECONDS_BUCKETS) + 1


def test_gauge_merge_keeps_peak_and_last():
    a = MetricsRegistry()
    b = MetricsRegistry()
    a.gauge("depth").set(10.0)
    a.gauge("depth").set(4.0)
    b.gauge("depth").set(7.0)
    a.merge(b)
    snap = a.to_dict()["depth"]
    assert snap["peak"] == 10.0
    assert snap["value"] == 7.0  # last write in merge order wins


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    try:
        registry.gauge("x")
    except TypeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("expected TypeError on kind conflict")


def test_deterministic_view_excludes_wall_metrics():
    registry = MetricsRegistry()
    registry.counter("sim.events").inc(12)
    registry.counter("pool.spawned", wall=True).inc(2)
    registry.histogram("pool.execute_s", wall=True).observe(0.5)
    full = registry.to_dict()
    deterministic = registry.to_dict(deterministic_only=True)
    assert set(full) == {"sim.events", "pool.spawned", "pool.execute_s"}
    assert set(deterministic) == {"sim.events"}
    # the view is JSON-clean: byte-identical dumps witness determinism
    json.dumps(deterministic, sort_keys=True)


def test_disabled_path_is_shared_noop_singletons():
    """DISABLED dispatch allocates nothing: every call returns the same
    module-level no-op instrument, and recording into it is a no-op."""
    registry = NULL_REGISTRY
    assert not registry.enabled
    c1 = registry.counter("anything")
    c2 = registry.counter("something.else")
    assert c1 is c2
    assert registry.gauge("a") is registry.gauge("b")
    assert registry.histogram("a") is registry.histogram("b")
    c1.inc(10**9)
    registry.gauge("a").set(3.0)
    registry.histogram("a").observe(1.0)
    assert registry.to_dict() == {}

    assert DISABLED.enabled is False
    assert DISABLED.metrics is NULL_REGISTRY


def test_enabled_observability_exports_and_absorbs():
    child = Observability.create()
    child.metrics.counter("episodes").inc()
    export = child.export()

    parent = Observability.create()
    parent.absorb(export, tid=3)
    assert parent.metrics.to_dict()["episodes"]["value"] == 1
