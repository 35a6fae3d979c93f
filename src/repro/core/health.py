"""Trace-ingest health accounting: what the pipeline could not parse.

Real captures are dirty — tcpdump drops packets (paper section II-A),
sniffer placement loses frames, and long-running ISP traces arrive
truncated or bit-mangled.  Rather than hard-raising or silently
skipping, every ingest stage (pcap record framing, Ethernet/IP/TCP
frame decoding, BGP message extraction, per-connection analysis)
appends a structured :class:`IngestIssue` to a shared
:class:`TraceHealth` ledger, so a report can state exactly what was
lost and where — the precondition for trusting any conclusion drawn
from operational data.

``TraceHealth(strict=True)`` restores fail-fast behaviour: recording a
non-benign issue raises :class:`IngestError` instead of accumulating.
Benign issues (e.g. non-IP frames, which every real capture contains)
never raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Ingest stages, in pipeline order.  ``exec`` sits after analysis: it
# accounts whole work units (e.g. one campaign transfer) that crashed
# inside a worker and were contained by the pool's fault isolation.
STAGE_CAPTURE = "capture"
STAGE_PCAP = "pcap"
STAGE_FRAME = "frame"
STAGE_BGP = "bgp"
STAGE_ANALYSIS = "analysis"
STAGE_EXEC = "exec"

STAGES = (
    STAGE_CAPTURE, STAGE_PCAP, STAGE_FRAME, STAGE_BGP, STAGE_ANALYSIS,
    STAGE_EXEC,
)

#: The central registry of every issue kind any stage may record.
#: Report tooling groups and explains issues by these strings, so a
#: typo'd or undocumented kind silently falls out of every summary —
#: the RL004 lint rule holds this dict and the call sites in sync,
#: in both directions.
ISSUE_KINDS = {
    # capture
    "sniffer-drop-window": "sniffer lost frames inside a drop window",
    # pcap
    "truncated-global-header": "file shorter than the pcap global header",
    "bad-magic": "pcap magic number unrecognized",
    "unsupported-version": "pcap major version not understood",
    "bad-record-header": "per-record header failed sanity checks",
    "truncated-record-header": "EOF inside a per-record header",
    "truncated-record": "EOF inside a record's captured payload",
    "unreadable-tail": "trailing bytes unrecoverable past the last record",
    "timestamp-regression": "record timestamps went backwards",
    "implausible-timestamp": "record timestamp outside the plausible epoch",
    # frame
    "undecodable-frame": "Ethernet/IP/TCP decode failed for a frame",
    "packet-after-close": "TCP segment seen after the connection closed",
    # bgp
    "bad-marker": "BGP header marker was not all-ones",
    "bad-length": "BGP header length outside [19, 4096]",
    "malformed-message": "BGP message body failed to parse",
    "stream-hole": "capture drop left a gap inside the BGP stream",
    # analysis
    "connection-analysis-failed": "per-connection T-DAT analysis crashed",
    "analysis-state-evicted": "resource budget shed tracked connection state",
    "analysis-connection-finalized-early":
        "budget watermark forced a report to render from partial state",
    "analysis-degraded": "a resource budget degraded this analysis",
    # health (the ledger's own bookkeeping)
    "issues-truncated":
        "per-kind issue cap reached; further issues counted, not stored",
    # exec
    "transfer-crashed": "campaign work unit died inside a worker",
    "sim-budget-exceeded": "simulation exceeded its event budget",
    "task-timeout": "worker task exceeded the supervision timeout",
    "task-retried": "task succeeded only after supervised retries",
    "campaign-resumed": "episodes restored from a checkpoint journal",
    "checkpoint-salvaged": "torn journal tail quarantined; valid prefix kept",
    "checkpoint-entry-skipped": "CRC-valid journal entry failed to decode",
    "chaos-injected": "a seeded chaos plan injected faults into this run",
}

#: Default per-kind cap on *stored* issues.  A degenerate trace (e.g.
#: a million-packet flood arriving after its flows closed) must not
#: turn the health ledger itself into the memory hog: past the cap,
#: further issues of that kind are counted and their bytes summed, but
#: the issue objects are not retained.
DEFAULT_MAX_ISSUES_PER_KIND = 10_000


class IngestError(ValueError):
    """Raised in strict mode when an ingest stage hits damaged input."""


@dataclass(frozen=True)
class IngestIssue:
    """One thing an ingest stage could not parse or had to discard."""

    stage: str  # one of STAGES
    kind: str  # e.g. "truncated-record", "bad-marker", "undecodable-frame"
    offset: int | None = None  # byte offset in the source file, if known
    timestamp_us: int | None = None  # capture time, if known
    bytes_lost: int = 0  # payload bytes this issue cost
    detail: str = ""
    # Benign issues are bookkeeping, not damage: expected skips (non-IP
    # frames), recoveries (a retried task that then succeeded), resume
    # markers.  They never raise in strict mode and do not count as
    # failures for exit-code purposes.
    benign: bool = False

    def __str__(self) -> str:
        where = []
        if self.offset is not None:
            where.append(f"offset {self.offset}")
        if self.timestamp_us is not None:
            where.append(f"t={self.timestamp_us}us")
        location = " @ " + ", ".join(where) if where else ""
        lost = f", {self.bytes_lost} bytes lost" if self.bytes_lost else ""
        detail = f": {self.detail}" if self.detail else ""
        return f"[{self.stage}] {self.kind}{location}{lost}{detail}"


@dataclass
class TraceHealth:
    """Structured ledger of everything ingest dropped or repaired.

    One instance travels through the whole pipeline (reader → frame
    decoder → BGP reconstruction → analysis) and ends up attached to
    the :class:`~repro.analysis.tdat.TdatReport`.
    """

    issues: list[IngestIssue] = field(default_factory=list)
    strict: bool = False
    records_read: int = 0
    frames_decoded: int = 0
    #: per-kind cap on stored issues (``None`` = unlimited).  The cap
    #: bounds *storage*, not accounting: capped kinds keep counting in
    #: ``suppressed`` and their bytes in ``suppressed_bytes_lost``, and
    #: the first overflow stores one ``issues-truncated`` marker.
    max_issues_per_kind: int | None = DEFAULT_MAX_ISSUES_PER_KIND
    suppressed: dict[str, int] = field(default_factory=dict)
    suppressed_bytes_lost: int = 0
    # stored-issue count per kind; kept incrementally so the cap check
    # stays O(1) on the per-packet ingest path.
    _kind_counts: dict[str, int] = field(default_factory=dict, repr=False)

    def record(
        self,
        stage: str,
        kind: str,
        *,
        offset: int | None = None,
        timestamp_us: int | None = None,
        bytes_lost: int = 0,
        detail: str = "",
        benign: bool = False,
    ) -> IngestIssue:
        """Append one issue; in strict mode, non-benign issues raise."""
        issue = IngestIssue(
            stage=stage,
            kind=kind,
            offset=offset,
            timestamp_us=timestamp_us,
            bytes_lost=bytes_lost,
            detail=detail,
            benign=benign,
        )
        if self.strict and not benign:
            raise IngestError(str(issue))
        cap = self.max_issues_per_kind
        if (
            cap is not None
            and kind != "issues-truncated"
            and self._kind_counts.get(kind, 0) >= cap
        ):
            if kind not in self.suppressed:
                self.suppressed[kind] = 0
                # One stored overflow marker per capped kind.  It
                # inherits the trigger's benign flag so a flood of
                # *failures* still surfaces as a failure after the cap.
                self.record(
                    stage, "issues-truncated",
                    timestamp_us=timestamp_us,
                    detail=(
                        f"{kind}: per-kind cap {cap} reached; further "
                        f"issues counted in `suppressed`, not stored"
                    ),
                    benign=benign,
                )
            self.suppressed[kind] += 1
            self.suppressed_bytes_lost += bytes_lost
            return issue
        self._kind_counts[kind] = self._kind_counts.get(kind, 0) + 1
        self.issues.append(issue)
        return issue

    @property
    def ok(self) -> bool:
        """True when ingest saw nothing it had to drop or repair."""
        return not self.issues

    @property
    def failures(self) -> list[IngestIssue]:
        """The non-benign issues: what actually cost data or episodes."""
        return [issue for issue in self.issues if not issue.benign]

    @property
    def bytes_lost(self) -> int:
        """Total payload bytes the recorded issues cost.

        Includes bytes accounted by cap-suppressed issues: the cap
        bounds storage, never the loss arithmetic.
        """
        return (
            sum(issue.bytes_lost for issue in self.issues)
            + self.suppressed_bytes_lost
        )

    def by_stage(self) -> dict[str, int]:
        """Issue counts keyed by pipeline stage."""
        counts: dict[str, int] = {}
        for issue in self.issues:
            counts[issue.stage] = counts.get(issue.stage, 0) + 1
        return counts

    def by_kind(self) -> dict[str, int]:
        """Issue counts keyed by issue kind (suppressed ones included)."""
        counts: dict[str, int] = {}
        for issue in self.issues:
            counts[issue.kind] = counts.get(issue.kind, 0) + 1
        for kind, count in self.suppressed.items():
            counts[kind] = counts.get(kind, 0) + count
        return counts

    def merge(self, other: "TraceHealth") -> None:
        """Fold another ledger (e.g. a capture-side one) into this one.

        Issues the other ledger stored are kept verbatim — merging
        never re-caps, so a fold of N workers' ledgers can hold up to
        N×cap issues per kind; each worker's ledger bounded its own
        accumulation, which is what the cap is for.
        """
        self.issues.extend(other.issues)
        for issue in other.issues:
            self._kind_counts[issue.kind] = (
                self._kind_counts.get(issue.kind, 0) + 1
            )
        for kind, count in other.suppressed.items():
            self.suppressed[kind] = self.suppressed.get(kind, 0) + count
        self.suppressed_bytes_lost += other.suppressed_bytes_lost
        self.records_read += other.records_read
        self.frames_decoded += other.frames_decoded

    def to_dict(self) -> dict:
        """JSON-friendly form (used by ``tdat --json``)."""
        return {
            "ok": self.ok,
            "records_read": self.records_read,
            "frames_decoded": self.frames_decoded,
            "bytes_lost": self.bytes_lost,
            "issue_count": len(self.issues),
            "suppressed": dict(self.suppressed),
            "by_stage": self.by_stage(),
            "by_kind": self.by_kind(),
            "issues": [
                {
                    "stage": issue.stage,
                    "kind": issue.kind,
                    "offset": issue.offset,
                    "timestamp_us": issue.timestamp_us,
                    "bytes_lost": issue.bytes_lost,
                    "detail": issue.detail,
                    "benign": issue.benign,
                }
                for issue in self.issues
            ],
        }

    def summary(self, max_issues: int = 20) -> str:
        """Human-readable multi-line report."""
        if self.ok:
            return (
                f"trace health: clean ({self.records_read} records, "
                f"{self.frames_decoded} frames decoded)"
            )
        total = len(self.issues) + sum(self.suppressed.values())
        lines = [
            f"trace health: {total} issue(s), "
            f"{self.bytes_lost} bytes lost "
            f"({self.records_read} records, "
            f"{self.frames_decoded} frames decoded)"
        ]
        if self.suppressed:
            capped = ", ".join(
                f"{kind} +{count}"
                for kind, count in sorted(self.suppressed.items())
            )
            lines.append(f"  suppressed past per-kind cap: {capped}")
        for stage in STAGES:
            count = self.by_stage().get(stage)
            if count:
                lines.append(f"  {stage}: {count} issue(s)")
        for issue in self.issues[:max_issues]:
            lines.append(f"  - {issue}")
        hidden = len(self.issues) - max_issues
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)
