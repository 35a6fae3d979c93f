"""The robustness acceptance gate: fuzz campaigns over mangled traces."""

import io

import pytest

from repro.analysis.tdat import analyze_pcap
from repro.faults import fuzz
from repro.faults.fuzz import (
    check_clean_invariant,
    clean_trace_bytes,
    run_case,
    run_fuzz,
)
from repro.faults.mangle import mangle


@pytest.fixture(scope="module")
def clean_blob():
    return clean_trace_bytes(table_prefixes=2_000, duration_s=60)


class TestCleanInvariant:
    def test_clean_trace_has_empty_health(self, clean_blob):
        report = analyze_pcap(io.BytesIO(clean_blob))
        assert report.health.ok
        assert report.health.issues == []
        assert len(report) == 1

    def test_factors_match_strict_pipeline(self, clean_blob):
        """Tolerant ingest of a clean trace must not perturb the science."""
        ok, detail = check_clean_invariant(clean_blob)
        assert ok, detail


class TestRunCase:
    def test_case_is_replayable(self, clean_blob):
        a = run_case(clean_blob, seed=123)
        b = run_case(clean_blob, seed=123)
        assert (a.ops, a.mangled_bytes, a.connections, a.issues) == (
            b.ops, b.mangled_bytes, b.connections, b.issues
        )

    def test_case_records_plan(self, clean_blob):
        case = run_case(clean_blob, seed=5)
        assert case.ops
        assert case.mangled_bytes > 0
        assert not case.crashed

    def test_reader_damage_counted_once(self):
        """pcap2bgp re-reads the mangled bytes; the reader's issues it
        records again must not count twice."""
        blob = clean_trace_bytes(table_prefixes=800, duration_s=60)
        case = run_case(blob, seed=1)
        report = analyze_pcap(io.BytesIO(mangle(blob, case.ops, 1)))
        assert case.ops == ["corrupt-record-header"]
        assert (case.issues, case.bytes_lost) == (1, 70)
        assert len(report.health.issues) == 1
        assert report.health.bytes_lost == 70


class TestCampaign:
    def test_fuzz_invariant_200_seeds(self, clean_blob):
        """The PR's acceptance criterion: 200 seeded mangled traces run
        the T-DAT pipeline end-to-end with zero uncaught exceptions,
        each accounted by a TraceHealth report."""
        report = run_fuzz(seeds=200, table_prefixes=2_000, duration_s=60)
        assert report.crashes == [], report.summary()
        assert report.clean_ok, report.clean_detail
        assert len(report.cases) == 200
        # Mangled traces must be *accounted*, not silently swallowed:
        # the campaign as a whole records plenty of ingest issues.
        assert sum(case.issues for case in report.cases) > 100
        assert any(case.issues > 0 for case in report.cases[:20])

    def test_summary_mentions_outcome(self, clean_blob):
        report = run_fuzz(seeds=3)
        text = report.summary()
        assert "3 mangled trace(s)" in text
        assert "0 crash(es)" in text
        assert "clean-trace invariant ok" in text

    def test_main_smoke(self, capsys):
        rc = fuzz.main(["--seeds", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "5 mangled trace(s), 0 crash(es)" in out
