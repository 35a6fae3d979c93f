"""Tracer exports: Chrome trace_event validity and span mechanics."""

from __future__ import annotations

import json

from repro.obs.trace import (
    CLOCK_SIM,
    CLOCK_WALL,
    NULL_TRACER,
    PID_SIM,
    PID_WALL,
    SpanRecord,
    Tracer,
)


def test_span_context_manager_records_wall_span():
    tracer = Tracer()
    with tracer.span("stage", cat="analysis", args={"n": 3}):
        pass
    (span,) = tracer.spans
    assert span.name == "stage"
    assert span.cat == "analysis"
    assert span.clock == CLOCK_WALL
    assert span.dur_us >= 0
    assert span.args == {"n": 3}


def test_span_recorded_even_when_body_raises():
    tracer = Tracer()
    try:
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert [s.name for s in tracer.spans] == ["doomed"]


def test_chrome_events_have_required_fields_and_clock_pids():
    tracer = Tracer()
    with tracer.span("wall-stage"):
        pass
    tracer.add_span("sim-run", start_us=100, dur_us=2000, clock=CLOCK_SIM)
    events = tracer.chrome_events()
    assert len(events) == 2
    for event in events:
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            assert key in event, f"chrome event missing {key}"
        assert event["ph"] == "X"
        assert isinstance(event["ts"], int)
        assert isinstance(event["dur"], int)
    by_name = {e["name"]: e for e in events}
    assert by_name["wall-stage"]["pid"] == PID_WALL
    assert by_name["sim-run"]["pid"] == PID_SIM
    assert by_name["sim-run"]["args"]["clock"] == CLOCK_SIM


def test_to_chrome_names_both_process_rows_and_is_json_clean():
    tracer = Tracer()
    tracer.add_span("run", start_us=0, dur_us=10)
    trace = json.loads(json.dumps(tracer.to_chrome()))
    assert trace["displayTimeUnit"] == "ms"
    metadata = [e for e in trace["traceEvents"] if e["ph"] == "M"]
    assert {m["pid"] for m in metadata} == {PID_WALL, PID_SIM}
    assert all(m["name"] == "process_name" for m in metadata)


def test_write_chrome_and_jsonl(tmp_path):
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass

    chrome = tmp_path / "trace.json"
    tracer.write_chrome(chrome)
    trace = json.loads(chrome.read_text())
    names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
    assert names == ["inner", "outer"]  # completion order

    jsonl = tmp_path / "trace.jsonl"
    tracer.write_jsonl(jsonl)
    lines = [json.loads(l) for l in jsonl.read_text().splitlines()]
    assert [l["name"] for l in lines] == ["inner", "outer"]
    assert all(l["clock"] == CLOCK_WALL for l in lines)


def test_nested_spans_contain_each_other_on_the_same_track():
    """Chrome infers nesting from interval containment on one
    (pid, tid): the outer span's [ts, ts+dur] must cover the inner's."""
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    assert outer.start_us <= inner.start_us
    assert (
        inner.start_us + inner.dur_us <= outer.start_us + outer.dur_us
    )
    assert inner.tid == outer.tid


def test_merge_reassigns_tid_per_episode_track():
    worker = Tracer()
    with worker.span("episode"):
        pass
    parent = Tracer()
    parent.merge(worker.spans, tid=7)
    parent.merge(worker.spans, tid=8)
    assert [s.tid for s in parent.spans] == [7, 8]
    # the adopted records are fresh; the worker's stay untouched
    assert [s.tid for s in worker.spans] == [0]


def test_span_records_pickle_and_survive_merge():
    import pickle

    span = SpanRecord(
        name="episode", cat="campaign", clock=CLOCK_WALL,
        start_us=5, dur_us=10, args={"index": 1},
    )
    clone = pickle.loads(pickle.dumps([span]))
    parent = Tracer()
    parent.merge(clone, tid=2)
    assert parent.spans[0].args == {"index": 1}
    assert parent.spans[0].tid == 2


def test_null_tracer_is_inert():
    with NULL_TRACER.span("ignored"):
        pass
    NULL_TRACER.add_span("ignored", start_us=0, dur_us=1)
    NULL_TRACER.merge([SpanRecord("x", "c", CLOCK_WALL, 0, 1)])
    assert NULL_TRACER.spans == []
    assert NULL_TRACER.chrome_events() == []
