"""Concurrent clients see consistent snapshots; one pipeline serves many.

The determinism contract under concurrency: every reader polling a
live session observes an *internally consistent* snapshot (the ETag is
the digest of exactly the body it came with, connections appear in
capture order), and once the session finishes, the report is
byte-identical to a one-shot ``analyze_pcap`` of the same bytes.
"""

from __future__ import annotations

import hashlib
import io
import json
import threading

from repro.analysis.render import ReportRenderer, payload_digest
from repro.analysis.tdat import analyze_pcap
from repro.api import Pipeline

from tests.serve.helpers import flood_bytes, running_server


def _reference_body(data: bytes) -> bytes:
    report = analyze_pcap(io.BytesIO(data))
    renderer = ReportRenderer(
        health=report.health, degradation=report.degradation
    )
    renderer.extend(list(report))
    renderer.finish()
    return renderer.render_report()[1]


def _self_consistent(etag: str, body: bytes) -> bool:
    """The ETag must be the digest of exactly this body's payload."""
    payload = json.loads(body)
    return etag == f'"{payload_digest(payload)}"'


class TestInterleavedReaders:
    def test_readers_during_live_upload_see_consistent_snapshots(self):
        data = flood_bytes(16, data_packets=6)
        failures: list[str] = []
        snapshots: list[str] = []
        done = threading.Event()

        with running_server() as client:
            sid = client.create_session()

            def read_loop() -> None:
                while not done.is_set():
                    status, headers, body = client.request(
                        "GET", f"/sessions/{sid}/report"
                    )
                    if status != 200:
                        failures.append(f"reader got {status}")
                        return
                    etag = headers["ETag"]
                    if not _self_consistent(etag, body):
                        failures.append(f"torn snapshot under {etag}")
                        return
                    snapshots.append(etag)

            readers = [
                threading.Thread(target=read_loop, daemon=True)
                for _ in range(4)
            ]
            for reader in readers:
                reader.start()
            # Trickle the upload so readers overlap a moving session.
            for i in range(0, len(data), 2048):
                client.request(
                    "POST", f"/sessions/{sid}/pcap", data[i : i + 2048]
                )
            status, payload = client.json(
                "POST", f"/sessions/{sid}/finish?wait=1"
            )
            assert status == 200 and payload["state"] == "done"
            done.set()
            for reader in readers:
                reader.join(30)
            assert not failures, failures
            assert snapshots, "readers never completed a request"

            _, _, final = client.request("GET", f"/sessions/{sid}/report")
        assert final == _reference_body(data)

    def test_flood_session_stays_in_budget_while_others_answer(self):
        # A deliberately oversubscribed flood in one session must not
        # starve a well-behaved neighbour on the same server.
        flood = flood_bytes(256, data_packets=2, payload_bytes=64)
        small = flood_bytes(4)
        with running_server() as client:
            flood_sid = client.create_session(
                {"budget": {"max_live_connections": 16}}
            )
            neighbour_sid = client.create_session()

            uploader = threading.Thread(
                target=client.upload,
                args=(flood_sid, flood),
                kwargs={"chunk": 4096},
                daemon=True,
            )
            uploader.start()

            # The neighbour gets full service mid-flood.
            client.upload(neighbour_sid, small)
            status, _, body = client.request(
                "GET", f"/sessions/{neighbour_sid}/report"
            )
            assert status == 200
            assert body == _reference_body(small)

            uploader.join(60)
            assert not uploader.is_alive()
            status, payload = client.json("GET", f"/sessions/{flood_sid}")
            assert status == 200 and payload["state"] == "done"
            assert payload["degraded"] is True
            _, report = client.json("GET", f"/sessions/{flood_sid}/report")
            degradation = report["degradation"]
            assert degradation["peak_live_connections"] <= 16


class TestPipelineConcurrency:
    """Calls overlapping on one :class:`Pipeline` match sequential runs.

    A pipeline holds only its knobs: each ``analyze`` runs in the
    calling thread and each ``campaign`` builds its own work pool, so
    nothing is shared between overlapping calls.
    """

    def test_concurrent_analyze_calls_share_one_pipeline(self):
        data = flood_bytes(6)
        pipeline = Pipeline()
        expected = [a.connection.key for a in analyze_pcap(io.BytesIO(data))]
        results: list = [None] * 6
        errors: list = []

        def run(slot: int) -> None:
            try:
                report = pipeline.analyze(io.BytesIO(data))
                results[slot] = [a.connection.key for a in report]
            except Exception as exc:  # noqa: BLE001 — surface to the test
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors, errors
        assert all(r == expected for r in results)

    def test_serving_pipeline_can_still_analyze(self):
        # A long-running serve loop and a one-shot analysis in a second
        # thread share the pipeline.
        data = flood_bytes(4)
        pipeline = Pipeline()
        with running_server(pipeline):
            report = pipeline.analyze(io.BytesIO(data))
            assert len(report) == 4

    def test_concurrent_campaigns_share_one_pipeline(self):
        pipeline = Pipeline(workers=2)

        def campaign() -> dict:
            return pipeline.campaign(
                "ISP_A-Quagga", transfers=2, seed=5
            ).to_dict()

        expected = campaign()
        results: list = [None] * 2
        errors: list = []

        def run(slot: int) -> None:
            try:
                results[slot] = campaign()
            except Exception as exc:  # noqa: BLE001 — surface to the test
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(300)
        assert not errors, errors
        assert results == [expected, expected]
