"""The renderer split: one JSON shape, capture order, cached digests."""

from __future__ import annotations

import io
import json

from repro.analysis.render import (
    ReportRenderer,
    analysis_to_dict,
    payload_digest,
    report_payload,
)
from repro.analysis.tdat import analyze_pcap, iter_analyze_pcap

from tests.serve.helpers import flood_bytes


def _reference(data: bytes):
    """One-shot analysis rendered through the same canonical path."""
    report = analyze_pcap(io.BytesIO(data))
    renderer = ReportRenderer(
        health=report.health, degradation=report.degradation
    )
    renderer.extend(list(report))
    renderer.finish()
    return report, renderer.render_report()


class TestPayloadShape:
    def test_report_payload_matches_cli_shape(self):
        data = flood_bytes(5)
        report = analyze_pcap(io.BytesIO(data))
        payload = report_payload(report)
        assert set(payload) == {"connections", "health"}
        assert len(payload["connections"]) == len(report)
        first = payload["connections"][0]
        assert set(first) >= {
            "connection", "sender", "complete", "confidence", "profile",
            "retransmissions", "factors", "detectors",
        }
        assert payload["connections"] == [
            analysis_to_dict(a) for a in report
        ]

    def test_digest_is_deterministic_across_runs(self):
        data = flood_bytes(4)
        one = report_payload(analyze_pcap(io.BytesIO(data)))
        two = report_payload(analyze_pcap(io.BytesIO(data)))
        assert payload_digest(one) == payload_digest(two)


class TestIncrementalRenderer:
    def test_incremental_equals_one_shot_byte_for_byte(self):
        data = flood_bytes(6)
        _, (ref_etag, ref_body) = _reference(data)
        renderer = ReportRenderer()
        for analysis in iter_analyze_pcap(
            io.BytesIO(data), health=renderer.health
        ):
            renderer.add(analysis)
        renderer.finish()
        etag, body = renderer.render_report()
        assert etag == ref_etag
        assert body == ref_body

    def test_close_order_input_renders_in_capture_order(self):
        # Streaming yields flows in close order; the renderer must
        # restore first-packet capture order like analyze_pcap does.
        data = flood_bytes(6)
        renderer = ReportRenderer()
        analyses = list(
            iter_analyze_pcap(io.BytesIO(data), health=renderer.health)
        )
        renderer.extend(reversed(analyses))  # worst-case arrival order
        indices = [
            a.connection.packets.index[0] for a in renderer.connections()
        ]
        assert indices == sorted(indices)

    def test_unchanged_state_serves_the_cached_body(self):
        data = flood_bytes(3)
        renderer = ReportRenderer()
        renderer.extend(iter_analyze_pcap(io.BytesIO(data), health=renderer.health))
        etag1, body1 = renderer.render_report()
        etag2, body2 = renderer.render_report()
        assert etag1 == etag2
        assert body2 is body1  # cache hit, not a re-render

    def test_new_state_changes_the_etag(self):
        data = flood_bytes(4)
        analyses = list(iter_analyze_pcap(io.BytesIO(data)))
        renderer = ReportRenderer()
        renderer.add(analyses[0])
        etag1, _ = renderer.render_report()
        renderer.add(analyses[1])
        etag2, _ = renderer.render_report()
        assert etag1 != etag2

    def test_health_snapshot_caches_and_tags_independently(self):
        renderer = ReportRenderer()
        etag1, body1 = renderer.render_health()
        etag2, body2 = renderer.render_health()
        assert etag1 == etag2 and body2 is body1
        renderer.health.record(
            "frame", "undecodable-frame", detail="too short"
        )
        etag3, _ = renderer.render_health()
        assert etag3 != etag1

    def test_rendered_body_is_json_with_stable_keys(self):
        data = flood_bytes(3)
        renderer = ReportRenderer()
        renderer.extend(iter_analyze_pcap(io.BytesIO(data), health=renderer.health))
        renderer.finish()
        _, body = renderer.render_report()
        payload = json.loads(body)
        assert list(payload) == sorted(payload)
        assert body.endswith(b"\n")
