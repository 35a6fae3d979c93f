"""Report rendering, split from connection-state accumulation.

Historically the only consumer of a :class:`~repro.analysis.tdat.TdatReport`
was the CLI, which flattened it to JSON inline.  The analysis service
(:mod:`repro.serve`) changes the shape of the problem: connections
arrive *incrementally* (``iter_analyze_pcap`` yields each one as its
flow closes), many concurrent readers ask for the *current* report
while ingest is still running, and repeated queries should be answered
from cache with a ``304 Not Modified`` instead of re-rendering.

This module is that split.  :func:`analysis_to_dict` and
:func:`report_payload` are the one canonical JSON flattening (the CLI's
``--json`` output and the service's ``/report`` body are the same
bytes), and :class:`ReportRenderer` is the incremental accumulator: it
absorbs analyses one at a time, keeps them in capture order, and
renders versioned snapshots whose **strong ETag** is a deterministic
digest of the rendered state — two runs over the same bytes produce
the same ETags, and an unchanged state re-serves the cached body.

Everything here is deterministic (this module lives inside the
``repro.analysis`` determinism boundary): digests are pure functions
of the rendered payload, never of wall clocks or object identities.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable

from repro.analysis.budget import DegradationSummary
from repro.analysis.tdat import ConnectionAnalysis, TdatReport, capture_order
from repro.core.health import TraceHealth


def analysis_to_dict(analysis: ConnectionAnalysis) -> dict:
    """Flatten one connection's analysis for JSON output.

    The single source of the JSON shape shared by ``tdat analyze
    --json`` and the service's ``/sessions/<id>/report`` endpoint.
    """
    profile = analysis.connection.profile
    src, sport, dst, dport = analysis.connection.key
    rs, rr, rn = analysis.factors.group_vector
    return {
        "connection": f"{src}:{sport}<->{dst}:{dport}",
        "sender": analysis.connection.sender_ip,
        "complete": analysis.complete,
        "confidence": analysis.confidence,
        "profile": {
            "mss": profile.mss,
            "rtt_us": profile.rtt_us,
            "d1_us": profile.d1_us,
            "d2_us": profile.d2_us,
            "max_advertised_window": profile.max_advertised_window,
            "data_packets": profile.total_data_packets,
            "data_bytes": profile.total_data_bytes,
            "duration_us": profile.duration_us,
        },
        "retransmissions": len(analysis.labeling.retransmissions()),
        "factors": {
            "ratios": analysis.factors.ratios,
            "groups": {"sender": rs, "receiver": rr, "network": rn},
            "major": analysis.factors.major_factors(),
        },
        "detectors": {
            "timer_gaps": {
                "detected": analysis.timer_gaps.detected,
                "timer_us": analysis.timer_gaps.timer_us,
                "induced_delay_us": analysis.timer_gaps.induced_delay_us,
            },
            "consecutive_losses": {
                "detected": analysis.consecutive_losses.detected,
                "episodes": analysis.consecutive_losses.episodes,
                "worst_run": analysis.consecutive_losses.worst_run,
                "induced_delay_us": analysis.consecutive_losses.induced_delay_us,
            },
            "zero_ack_bug": {
                "detected": analysis.zero_ack_bug.detected,
                "occurrences": analysis.zero_ack_bug.occurrences,
            },
            "capture_voids": {
                "detected": analysis.capture_voids.detected,
                "phantom_bytes": analysis.capture_voids.phantom_bytes,
                "excluded_us": analysis.capture_voids.excluded_us,
            },
        },
    }


def report_payload(report: TdatReport) -> dict:
    """The canonical JSON payload of a whole report.

    Exactly what ``tdat analyze --json`` prints: ``connections`` in
    capture order, the ``health`` ledger, and ``degradation`` whenever
    a budget was in force.
    """
    return _payload(report, report.health, report.degradation)


def _payload(
    analyses: Iterable[ConnectionAnalysis],
    health: TraceHealth,
    degradation: DegradationSummary | None,
) -> dict:
    """The one report payload builder, for whole and rendered reports."""
    payload = {
        "connections": [analysis_to_dict(a) for a in analyses],
        "health": health.to_dict(),
    }
    if degradation is not None:
        payload["degradation"] = degradation.to_dict()
    return payload


def payload_digest(payload: dict) -> str:
    """Deterministic strong digest of a rendered payload."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _encode_body(payload: dict) -> bytes:
    """One rendering of a payload: stable key order, 2-space indent."""
    return (
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")


class ReportRenderer:
    """Incremental report accumulation + versioned, digest-tagged views.

    One renderer serves one analysis run.  The producer (a
    :mod:`repro.serve` session thread, or any ``iter_analyze_pcap``
    consumer) calls :meth:`add` per finished connection and
    :meth:`finish` at end of trace; readers call :meth:`render_report`
    / :meth:`render_health` at any time and get ``(etag, body)``
    snapshots.  Rendering is cached: while the observable state — the
    accumulated analyses, the health ledger's counters, the finished
    flag — is unchanged, repeated calls return the identical cached
    body, so a flood of concurrent readers costs one rendering, and an
    ``If-None-Match`` revalidation can be answered with ``304``.

    The caller owns synchronization: a service session wraps every
    ``add``/``render_*`` in its own lock so snapshots are internally
    consistent.  ETags are strong — a deterministic SHA-256 digest of
    the canonical payload — so two sessions fed the same bytes emit
    the same tags.
    """

    def __init__(
        self,
        health: TraceHealth | None = None,
        degradation: DegradationSummary | None = None,
    ) -> None:
        self.health = health if health is not None else TraceHealth()
        self.degradation = degradation
        self.finished = False
        self._analyses: list[ConnectionAnalysis] = []
        self._report_cache: tuple[tuple, str, bytes] | None = None
        self._health_cache: tuple[tuple, str, bytes] | None = None

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def add(self, analysis: ConnectionAnalysis) -> None:
        """Absorb one finished connection's analysis."""
        self._analyses.append(analysis)

    def extend(self, analyses: Iterable[ConnectionAnalysis]) -> None:
        for analysis in analyses:
            self.add(analysis)

    def finish(self) -> None:
        """Mark end of trace: the next snapshot is the final report."""
        self.finished = True

    # ------------------------------------------------------------------
    # State versioning (cheap cache key; not the ETag itself)
    # ------------------------------------------------------------------
    def _version(self) -> tuple:
        """A cheap fingerprint of everything the payload renders.

        Distinct versions may still render identical payloads (the tag
        is recomputed per rendering); an *unchanged* version is what
        lets a snapshot be re-served from cache without re-rendering.
        """
        health = self.health
        return (
            len(self._analyses),
            self.finished,
            len(health.issues),
            sum(health.suppressed.values()),
            health.suppressed_bytes_lost,
            health.records_read,
            health.frames_decoded,
            (
                len(self.degradation.evictions),
                self.degradation.watermark_trips,
                self.degradation.peak_live_connections,
                self.degradation.peak_state_bytes,
            )
            if self.degradation is not None
            else None,
        )

    # ------------------------------------------------------------------
    # Reader side
    # ------------------------------------------------------------------
    def connections(self) -> list[ConnectionAnalysis]:
        """The accumulated analyses in capture (first-packet) order.

        Streaming ingest yields flows in *close* order; snapshots are
        sorted with the key :func:`~repro.analysis.tdat.analyze_pcap`
        orders its reports by, so they match it.
        """
        return sorted(self._analyses, key=capture_order)

    def render_report(self) -> tuple[str, bytes]:
        """``(etag, body)`` of the current report, cached by version."""
        version = self._version()
        cached = self._report_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        payload = _payload(self.connections(), self.health, self.degradation)
        etag = f'"{payload_digest(payload)}"'
        body = _encode_body(payload)
        self._report_cache = (version, etag, body)
        return etag, body

    def render_health(self) -> tuple[str, bytes]:
        """``(etag, body)`` of the health ledger, cached by version."""
        version = self._version()
        cached = self._health_cache
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        payload = self.health.to_dict()
        etag = f'"{payload_digest(payload)}"'
        body = _encode_body(payload)
        self._health_cache = (version, etag, body)
        return etag, body


__all__ = [
    "ReportRenderer",
    "analysis_to_dict",
    "payload_digest",
    "report_payload",
]
