"""Resource budgets: validation, deterministic eviction, degradation
accounting, and the ample-budget identity invariant."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.budget import ResourceBudget, StateLedger
from repro.analysis.tdat import analyze_pcap, iter_analyze_pcap
from repro.api import Pipeline
from repro.faults.stress import (
    ALLOWED_DEGRADATION_KINDS,
    analysis_fingerprint,
    connection_flood,
    pathological_reorder,
)
from repro.wire.tcpw import ACK, FIN, PSH

FLOOD_N = 150


@pytest.fixture(scope="module")
def flood():
    return list(connection_flood(connections=FLOOD_N))


class TestResourceBudget:
    def test_unbounded_by_default(self):
        assert not ResourceBudget().bounded
        assert ResourceBudget(max_connection_packets=8).bounded

    def test_limits_must_be_positive(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_live_connections=0)
        with pytest.raises(ValueError):
            ResourceBudget(max_state_bytes=-1)
        with pytest.raises(ValueError):
            ResourceBudget(max_connection_packets=2.5)
        with pytest.raises(ValueError):
            ResourceBudget(max_live_connections=True)

    def test_describe_names_the_limits(self):
        text = ResourceBudget(
            max_live_connections=8, max_state_bytes=1 << 20
        ).describe()
        assert "live<=8" in text
        assert "watermarks" in text


class TestStateLedger:
    def test_admission_charges_and_discharge_reclaims(self):
        ledger = StateLedger(ResourceBudget(max_live_connections=10))
        key = ("10.0.0.1", 1024, "10.0.0.2", 179)
        assert ledger.admit(key, 100, ACK | PSH, 1_000)
        assert ledger.live_connections == 1
        assert ledger.summary.peak_live_connections == 1
        ledger.discharge(key)
        assert ledger.live_connections == 0

    def test_per_connection_packet_cap_sheds_but_admits_close(self):
        ledger = StateLedger(ResourceBudget(max_connection_packets=2))
        key = ("10.0.0.1", 1024, "10.0.0.2", 179)
        assert ledger.admit(key, 10, ACK | PSH, 1_000)
        assert ledger.admit(key, 10, ACK | PSH, 2_000)
        assert not ledger.admit(key, 10, ACK | PSH, 3_000)  # over cap
        assert ledger.admit(key, 0, ACK | FIN, 4_000)  # close always lands
        summary = ledger.summary
        assert summary.capped == 1
        assert summary.packets_shed == 1

    def test_finish_records_degraded_marker_once(self):
        from repro.core.health import TraceHealth

        health = TraceHealth()
        ledger = StateLedger(
            ResourceBudget(max_connection_packets=1), health=health
        )
        key = ("10.0.0.1", 1024, "10.0.0.2", 179)
        ledger.admit(key, 10, ACK | PSH, 1_000)
        ledger.admit(key, 10, ACK | PSH, 2_000)
        ledger.finish()
        kinds = health.by_kind()
        assert kinds.get("analysis-degraded") == 1
        assert all(issue.benign for issue in health.issues)


class TestEviction:
    def test_tight_budget_stays_inside_and_degrades_benignly(self, flood):
        limit = 24
        report = analyze_pcap(
            flood, budget=ResourceBudget(max_live_connections=limit)
        )
        summary = report.degradation
        assert summary is not None and summary.degraded
        assert summary.peak_live_connections <= limit
        assert summary.watermark_trips > 0
        assert summary.finalized_early > 0
        assert not report.health.failures
        assert set(report.health.by_kind()) <= ALLOWED_DEGRADATION_KINDS

    def test_capped_connection_is_flagged_incomplete(self):
        # Flows evicted before any data transfer fall under the
        # min-data-packets floor; a *capped* connection keeps enough
        # state to be analyzed and must carry the partial-result flag.
        records = list(pathological_reorder(segments=300))
        report = analyze_pcap(
            records, budget=ResourceBudget(max_connection_packets=48)
        )
        (analysis,) = list(report)
        assert not analysis.complete
        assert analysis.confidence == "reduced"
        unbudgeted = analyze_pcap(records)
        assert all(a.complete for a in unbudgeted)
        assert all(a.confidence == "full" for a in unbudgeted)

    def test_eviction_order_is_deterministic(self, flood):
        def evictions():
            report = analyze_pcap(
                flood, budget=ResourceBudget(max_live_connections=24)
            )
            return [
                record.to_dict() for record in report.degradation.evictions
            ]

        assert evictions() == evictions()

    def test_evicted_victims_are_finalized_early(self, flood):
        report = analyze_pcap(
            flood, budget=ResourceBudget(max_live_connections=24)
        )
        summary = report.degradation
        assert {record.kind for record in summary.evictions} == {
            "finalized-early"
        }
        assert {record.policy for record in summary.evictions} == {
            "finalize-idle"
        }
        kinds = report.health.by_kind()
        assert kinds["analysis-connection-finalized-early"] == (
            summary.finalized_early
        )
        assert "analysis-state-evicted" not in kinds

    def test_connection_cap_sheds_reorder_bloat(self):
        records = list(pathological_reorder(segments=300))
        report = analyze_pcap(
            records, budget=ResourceBudget(max_connection_packets=48)
        )
        summary = report.degradation
        assert summary.capped == 1
        assert summary.packets_shed > 0
        assert summary.bytes_shed > 0
        assert not report.health.failures


class TestAmpleBudgetIdentity:
    def test_ample_budget_is_invisible(self, flood):
        clean = analyze_pcap(flood, streaming=True)
        budgeted = analyze_pcap(
            flood, budget=ResourceBudget(max_live_connections=FLOOD_N * 2)
        )
        assert not budgeted.degradation.degraded
        assert analysis_fingerprint(budgeted) == analysis_fingerprint(clean)

    @settings(max_examples=8, deadline=None)
    @given(
        connections=st.integers(min_value=2, max_value=12),
        headroom=st.integers(min_value=2, max_value=5),
    )
    def test_property_any_ample_budget_matches_unbudgeted(
        self, connections, headroom
    ):
        records = list(connection_flood(connections=connections))
        clean = analyze_pcap(records, streaming=True)
        budgeted = analyze_pcap(
            records,
            budget=ResourceBudget(
                max_live_connections=connections * headroom
            ),
        )
        assert not budgeted.degradation.degraded
        assert analysis_fingerprint(budgeted) == analysis_fingerprint(clean)


class TestApiKnobs:
    def test_pipeline_budget_reaches_the_report(self, flood):
        pipe = Pipeline(budget=ResourceBudget(max_live_connections=24))
        report = pipe.analyze(flood)
        assert report.degradation is not None
        assert report.degradation.degraded
        ample = Pipeline(
            budget=ResourceBudget(max_live_connections=FLOOD_N * 2)
        ).analyze(flood)
        assert not ample.degradation.degraded

    def test_iter_analyze_accepts_budget(self, flood):
        pipe = Pipeline(budget=ResourceBudget(max_live_connections=24))
        analyses = list(pipe.iter_analyze(flood))
        assert analyses
        # Flows evicted during the SYN flood never reach the data
        # floor, so a tight budget visibly thins the yielded analyses.
        assert len(analyses) < FLOOD_N

    def test_iter_analyze_pcap_exposes_ledger_summary(self, flood):
        ledger = StateLedger(ResourceBudget(max_live_connections=24))
        count = sum(1 for _ in iter_analyze_pcap(flood, ledger=ledger))
        assert count > 0
        assert ledger.summary.degraded
        assert ledger.summary.peak_live_connections <= 24

    def test_unbudgeted_report_has_no_degradation_summary(self, flood):
        assert analyze_pcap(flood).degradation is None


class TestObservability:
    def test_budget_metrics_and_span_are_recorded(self, flood):
        from repro.obs import Observability, use_obs

        obs = Observability.create()
        with use_obs(obs):
            analyze_pcap(
                flood, budget=ResourceBudget(max_live_connections=24)
            )
        snapshot = obs.metrics.to_dict()
        assert snapshot["analysis.evictions"]["value"] > 0
        assert 0 < snapshot["analysis.live_connections"]["peak"] <= 24
        assert snapshot["analysis.state_bytes"]["peak"] > 0
        names = {span.name for span in obs.tracer.spans}
        assert "analysis.eviction" in names
