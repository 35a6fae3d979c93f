"""Session layer: the byte pipe, the analysis thread, the registry."""

from __future__ import annotations

import io
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.budget import ResourceBudget
from repro.analysis.render import ReportRenderer
from repro.analysis.tdat import analyze_pcap
from repro.serve.session import (
    AnalysisSession,
    ChunkFeeder,
    ServeError,
    SessionAborted,
    SessionManager,
)

from tests.serve.helpers import flood_bytes


#: chunk boundaries for ``feed`` calls, and ``read(n)`` sizes including
#: the read-to-EOF forms.
_cuts = st.lists(st.integers(0, 300), max_size=12)
_read_sizes = st.lists(
    st.one_of(st.integers(0, 80), st.sampled_from((-1, None))), max_size=12
)


def _chunked(data: bytes, cuts: list[int]) -> list[bytes]:
    bounds = sorted({0, len(data), *(c for c in cuts if c < len(data))})
    return [data[a:b] for a, b in zip(bounds, bounds[1:])]


class TestChunkFeeder:
    def test_read_blocks_until_exactly_n_bytes(self):
        feeder = ChunkFeeder()
        got = {}

        def consume():
            got["data"] = feeder.read(10)

        thread = threading.Thread(target=consume)
        thread.start()
        feeder.feed(b"abcd")
        feeder.feed(b"efgh")
        feeder.feed(b"ijkl")
        thread.join(5)
        assert not thread.is_alive()
        assert got["data"] == b"abcdefghij"
        # The remainder stays queued for the next read.
        feeder.close()
        assert feeder.read(10) == b"kl"

    def test_short_read_only_at_eof(self):
        feeder = ChunkFeeder()
        feeder.feed(b"xyz")
        feeder.close()
        assert feeder.read(2) == b"xy"
        assert feeder.read(8) == b"z"
        assert feeder.read(8) == b""

    def test_feed_applies_backpressure(self):
        feeder = ChunkFeeder(max_buffered=8)
        feeder.feed(b"12345678")
        blocked = threading.Event()
        passed = threading.Event()

        def produce():
            blocked.set()
            feeder.feed(b"more")
            passed.set()

        thread = threading.Thread(target=produce, daemon=True)
        thread.start()
        assert blocked.wait(5)
        assert not passed.wait(0.2), "feed should block while full"
        assert feeder.read(8) == b"12345678"  # drain frees the producer
        assert passed.wait(5)

    def test_feed_after_close_is_a_conflict(self):
        feeder = ChunkFeeder()
        feeder.close()
        with pytest.raises(ServeError):
            feeder.feed(b"late")

    def test_abort_unblocks_the_reader_with_an_error(self):
        feeder = ChunkFeeder()
        caught = {}

        def consume():
            try:
                feeder.read(100)
            except SessionAborted as exc:
                caught["reason"] = str(exc)

        thread = threading.Thread(target=consume)
        thread.start()
        feeder.abort("torn down")
        thread.join(5)
        assert caught["reason"] == "torn down"

    def test_bytes_fed_accounting(self):
        feeder = ChunkFeeder()
        feeder.feed(b"abc")
        feeder.feed(b"")
        feeder.feed(b"defg")
        assert feeder.bytes_fed == 7

    def test_read_none_reads_to_eof_like_a_file(self):
        feeder = ChunkFeeder()
        feeder.feed(b"ab")
        feeder.feed(b"cd")
        feeder.close()
        reference = io.BytesIO(b"abcd")
        assert feeder.read(1) == reference.read(1) == b"a"
        assert feeder.read(None) == reference.read(None) == b"bcd"
        assert feeder.read(None) == reference.read(None) == b""

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=300), cuts=_cuts, sizes=_read_sizes)
    def test_reads_match_bytesio(self, data, cuts, sizes):
        feeder = ChunkFeeder()
        for chunk in _chunked(data, cuts):
            feeder.feed(chunk)
        feeder.close()
        reference = io.BytesIO(data)
        for n in sizes:
            assert feeder.read(n) == reference.read(n)
        assert feeder.read() == reference.read()
        with feeder._cond:
            assert feeder._buffered == 0

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.binary(max_size=300), cuts=_cuts, sizes=_read_sizes,
        max_buffered=st.integers(1, 16),
    )
    def test_small_buffer_still_unblocks_the_producer(
        self, data, cuts, sizes, max_buffered
    ):
        feeder = ChunkFeeder(max_buffered=max_buffered)
        got = []

        def produce():
            for chunk in _chunked(data, cuts):
                feeder.feed(chunk)
            feeder.close()

        def consume():
            got.extend(feeder.read(n) for n in sizes)
            got.append(feeder.read())

        threads = [
            threading.Thread(target=produce, daemon=True),
            threading.Thread(target=consume, daemon=True),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive(), "feeder deadlocked"
        reference = io.BytesIO(data)
        assert got == [reference.read(n) for n in sizes] + [reference.read()]
        with feeder._cond:
            assert feeder._buffered == 0

    def test_concurrent_producers_under_backpressure_lose_nothing(self):
        feeder = ChunkFeeder(max_buffered=64)
        producers = 6
        chunks = [bytes([p]) * (1 + i % 97) for p in range(producers)
                  for i in range(300)]
        got = bytearray()

        def produce(p):
            for chunk in chunks:
                if chunk[0] == p:
                    feeder.feed(chunk)

        def consume():
            while piece := feeder.read(13):
                got.extend(piece)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=produce, args=(p,), daemon=True)
                for p in range(producers)
            ]
            consumer = threading.Thread(target=consume, daemon=True)
            for thread in [*threads, consumer]:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive(), "producer never unblocked"
            feeder.close()
            consumer.join(30)
            assert not consumer.is_alive(), "reader never saw EOF"
        finally:
            sys.setswitchinterval(old_interval)
        assert sorted(got) == sorted(b"".join(chunks))
        with feeder._cond:
            assert feeder._buffered == 0
            assert feeder.bytes_fed == len(got)


class TestAnalysisSession:
    def test_chunked_feed_matches_one_shot_analysis(self):
        data = flood_bytes(6)
        session = AnalysisSession("s1")
        for i in range(0, len(data), 1024):
            session.feed(data[i : i + 1024])
        session.finish()
        assert session.wait(30)
        assert session.state == "done"
        etag, body = session.snapshot_report()

        report = analyze_pcap(io.BytesIO(data))
        reference = ReportRenderer(
            health=report.health, degradation=report.degradation
        )
        reference.extend(list(report))
        reference.finish()
        ref_etag, ref_body = reference.render_report()
        assert etag == ref_etag
        assert body == ref_body

    def test_budgeted_session_reports_degradation(self):
        budget = ResourceBudget(max_live_connections=4)
        data = flood_bytes(32)  # every flow open at once
        session = AnalysisSession("s2", budget=budget)
        session.feed(data)
        session.finish()
        assert session.wait(30)
        assert session.state == "done"
        degradation = session.renderer.degradation
        assert degradation is not None
        assert degradation.degraded
        assert degradation.peak_live_connections <= 4
        status = session.status()
        assert status["degraded"] is True

    def test_garbage_input_fails_gracefully_not_fatally(self):
        session = AnalysisSession("s3")
        session.feed(b"this is not a pcap file at all, not even close")
        session.finish()
        assert session.wait(30)
        # Tolerant ingest swallows the damage into health; the session
        # ends without a usable capture but never crashes the server.
        assert session.state in ("done", "failed")
        etag, body = session.snapshot_health()
        assert etag.startswith('"')

    def test_feed_after_finish_is_a_conflict(self):
        session = AnalysisSession("s4")
        session.finish()
        with pytest.raises(ServeError) as excinfo:
            session.feed(b"late bytes")
        assert excinfo.value.status == 409
        session.wait(30)


class TestSessionManager:
    def test_ids_are_deterministic_and_sequential(self):
        manager = SessionManager()
        ids = [manager.create().id for _ in range(3)]
        assert ids == ["s0001", "s0002", "s0003"]
        manager.drain(timeout=10)

    def test_session_cap_is_enforced_on_live_sessions(self):
        manager = SessionManager(max_sessions=2)
        first = manager.create()
        manager.create()
        with pytest.raises(ServeError) as excinfo:
            manager.create()
        assert excinfo.value.status == 429
        # A finished session frees its slot.
        first.finish()
        assert first.wait(30)
        manager.create()
        manager.drain(timeout=10)

    def test_get_and_remove_unknown_session_404(self):
        manager = SessionManager()
        with pytest.raises(ServeError) as excinfo:
            manager.get("nope")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError):
            manager.remove("nope")

    def test_drain_flushes_all_sessions_and_blocks_creates(self):
        manager = SessionManager()
        session = manager.create()
        session.feed(flood_bytes(3))
        assert manager.drain(timeout=30)
        assert session.state == "done"
        with pytest.raises(ServeError) as excinfo:
            manager.create()
        assert excinfo.value.status == 503
