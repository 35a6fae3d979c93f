"""HTTP surface: endpoint matrix, conditional GETs, error mapping."""

from __future__ import annotations

import io
import json

from repro.analysis.budget import ResourceBudget
from repro.analysis.render import ReportRenderer
from repro.analysis.tdat import analyze_pcap
from repro.api import Pipeline

from tests.serve.helpers import ServeClient, flood_bytes, running_server


class TestBasics:
    def test_healthz_and_unknown_paths(self):
        with running_server() as client:
            status, payload = client.json("GET", "/healthz")
            assert status == 200 and payload == {"status": "ok"}
            status, payload = client.json("GET", "/no/such/thing")
            assert status == 404 and "no such path" in payload["error"]
            status, _, _ = client.request("PUT", "/sessions")
            assert status == 405

    def test_metrics_endpoint_counts_its_own_requests(self):
        with running_server() as client:
            client.json("GET", "/healthz")
            status, payload = client.json("GET", "/metrics")
            assert status == 200
            assert payload["serve.requests"]["value"] >= 1

    def test_session_lifecycle_and_listing(self):
        with running_server() as client:
            sid = client.create_session()
            status, payload = client.json("GET", "/sessions")
            assert status == 200
            assert [s["id"] for s in payload["sessions"]] == [sid]
            status, payload = client.json("GET", f"/sessions/{sid}")
            assert status == 200 and payload["state"] == "open"
            client.upload(sid, flood_bytes(3))
            status, _, _ = client.request("DELETE", f"/sessions/{sid}")
            assert status == 204
            status, _, _ = client.request("GET", f"/sessions/{sid}")
            assert status == 404

    def test_bad_session_specs_are_400s(self):
        with running_server() as client:
            status, payload = client.json("POST", "/sessions", b"not json")
            assert status == 400 and "bad session spec" in payload["error"]
            status, payload = client.json(
                "POST",
                "/sessions",
                json.dumps({"bogus_knob": 1, "series_backend": "python"}).encode(),
            )
            assert status == 400 and "bogus_knob" in payload["error"]
            assert "series_backend" in payload["error"]
            status, payload = client.json(
                "POST",
                "/sessions",
                json.dumps({"budget": {"nope": 1}}).encode(),
            )
            assert status == 400 and "bad budget" in payload["error"]


class TestConditionalGet:
    def test_report_etag_and_304_contract(self):
        data = flood_bytes(5)
        with running_server() as client:
            sid = client.create_session()
            client.upload(sid, data)
            status, headers, body = client.request(
                "GET", f"/sessions/{sid}/report"
            )
            assert status == 200
            etag = headers["ETag"]
            assert etag.startswith('"') and etag.endswith('"')

            # Same validator back -> 304, no body, same ETag.
            status, headers2, body2 = client.request(
                "GET",
                f"/sessions/{sid}/report",
                headers={"If-None-Match": etag},
            )
            assert status == 304 and body2 == b""
            assert headers2["ETag"] == etag

            # Weak/wildcard forms of the validator also match.
            for validator in (f"W/{etag}", "*", f'"zzz", {etag}'):
                status, _, _ = client.request(
                    "GET",
                    f"/sessions/{sid}/report",
                    headers={"If-None-Match": validator},
                )
                assert status == 304, validator

            # A stale validator gets the full body again.
            status, _, body3 = client.request(
                "GET",
                f"/sessions/{sid}/report",
                headers={"If-None-Match": '"0000"'},
            )
            assert status == 200 and body3 == body

            status, payload = client.json("GET", "/metrics")
            assert payload["serve.cache_hits"]["value"] >= 4

    def test_report_body_matches_one_shot_analysis(self):
        data = flood_bytes(6)
        with running_server() as client:
            sid = client.create_session()
            client.upload(sid, data, chunk=1500)
            _, _, body = client.request("GET", f"/sessions/{sid}/report")
        report = analyze_pcap(io.BytesIO(data))
        renderer = ReportRenderer(
            health=report.health, degradation=report.degradation
        )
        renderer.extend(list(report))
        renderer.finish()
        _, ref_body = renderer.render_report()
        assert body == ref_body

    def test_health_endpoint_is_conditional_too(self):
        with running_server() as client:
            sid = client.create_session()
            client.upload(sid, flood_bytes(2))
            status, headers, _ = client.request(
                "GET", f"/sessions/{sid}/health"
            )
            assert status == 200
            status, _, _ = client.request(
                "GET",
                f"/sessions/{sid}/health",
                headers={"If-None-Match": headers["ETag"]},
            )
            assert status == 304


class TestShutdown:
    def test_post_shutdown_drains_open_sessions(self):
        with running_server() as client:
            sid = client.create_session()
            client.upload(sid, flood_bytes(3))
            status, payload = client.json("POST", "/shutdown")
            assert status == 202 and payload == {"status": "draining"}
        # running_server's exit joins the server thread, which asserts
        # the drain triggered above actually ran to completion.

    def test_programmatic_shutdown_is_not_signal_drain(self):
        with running_server(trace_requests=True) as client:
            client.json("GET", "/healthz")


class TestPipelineServeKnobs:
    def test_budget_knob_applies_to_every_session(self):
        pipeline = Pipeline()
        with running_server(
            pipeline, budget=ResourceBudget(max_live_connections=4)
        ) as client:
            sid = client.create_session()
            client.upload(sid, flood_bytes(24))
            status, payload = client.json("GET", f"/sessions/{sid}")
            assert status == 200
            assert payload["degraded"] is True

    def test_max_sessions_is_enforced_over_http(self):
        with running_server(max_sessions=1) as client:
            client.create_session()
            status, payload = client.json("POST", "/sessions")
            assert status == 429
            assert "session" in payload["error"]
