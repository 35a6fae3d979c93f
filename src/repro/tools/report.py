"""Campaign reports: CampaignResult -> the paper-style summary tables.

Takes the structured output of :func:`repro.workloads.campaign.run_campaign`
and renders the survey an operator would publish: the dataset summary
(Table I), duration statistics (Figure 3), the major-delay-factor
distribution with per-factor breakdown (Table IV) and the detector
findings with induced delays (Table V) — as plain text or Markdown.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.analysis.factors import FACTORS

if TYPE_CHECKING:  # avoid a circular import (campaign uses repro.tools)
    from repro.workloads.campaign import CampaignResult

_GROUP_LABELS = {
    "sender": "Sender-side limited",
    "receiver": "Receiver-side limited",
    "network": "Network limited",
}


def dataset_summary(results: Iterable["CampaignResult"]) -> list[dict]:
    """Table I rows, one per campaign."""
    rows = []
    for result in results:
        rows.append(
            {
                "trace": result.name,
                "collector": result.collector_kind,
                "routers": result.routers,
                "packets": result.total_packets,
                "bytes": result.total_bytes,
                "transfers": len(result.records),
            }
        )
    return rows


def duration_statistics(result: "CampaignResult") -> dict:
    """Figure 3-style summary for one campaign."""
    durations = result.durations_s()
    if not durations:
        return {"count": 0}
    return {
        "count": len(durations),
        "min_s": durations[0],
        "median_s": statistics.median(durations),
        "p80_s": durations[min(int(0.8 * len(durations)), len(durations) - 1)],
        "max_s": durations[-1],
    }


def factor_distribution(result: "CampaignResult", threshold: float = 0.3) -> dict:
    """Table IV for one campaign: groups, breakdown and unknowns."""
    groups = {g: 0 for g in _GROUP_LABELS}
    breakdown = {factor: 0 for factor in FACTORS}
    unknown = 0
    for record in result.records:
        majors = record.factors.major_groups(threshold)
        if not majors:
            unknown += 1
        for group in majors:
            groups[group] += 1
            dominant = record.factors.dominant_factor(group)
            if dominant is not None:
                breakdown[dominant] += 1
    return {"groups": groups, "breakdown": breakdown, "unknown": unknown}


def detector_findings(result: "CampaignResult") -> dict:
    """Table V rows for one campaign (peer-group runs separately)."""

    def summarize(records, delay_us):
        return {
            "count": len(records),
            "avg_delay_s": (
                sum(delay_us(r) for r in records) / len(records) / 1e6
                if records
                else 0.0
            ),
        }

    timers = [r for r in result.records if r.timer.detected]
    losses = [r for r in result.records if r.consecutive.detected]
    bugs = [r for r in result.records if r.zero_bug.detected]
    return {
        "timer_gaps": summarize(timers, lambda r: r.timer.induced_delay_us),
        "consecutive_losses": summarize(
            losses, lambda r: r.consecutive.induced_delay_us
        ),
        "zero_ack_bug": summarize(
            bugs, lambda r: r.zero_bug.induced_delay_us
        ),
    }


def render_markdown(results: Iterable["CampaignResult"]) -> str:
    """The full multi-campaign report as Markdown."""
    results = list(results)
    lines = ["# BGP table-transfer delay survey", ""]

    lines.append("## Datasets")
    lines.append("")
    lines.append("| trace | collector | routers | packets | bytes | transfers |")
    lines.append("|---|---|---:|---:|---:|---:|")
    for row in dataset_summary(results):
        lines.append(
            f"| {row['trace']} | {row['collector']} | {row['routers']} "
            f"| {row['packets']} | {row['bytes']} | {row['transfers']} |"
        )
    lines.append("")

    lines.append("## Transfer durations (seconds)")
    lines.append("")
    lines.append("| trace | n | min | median | p80 | max |")
    lines.append("|---|---:|---:|---:|---:|---:|")
    for result in results:
        stats = duration_statistics(result)
        if stats["count"]:
            lines.append(
                f"| {result.name} | {stats['count']} | {stats['min_s']:.2f} "
                f"| {stats['median_s']:.2f} | {stats['p80_s']:.2f} "
                f"| {stats['max_s']:.2f} |"
            )
    lines.append("")

    lines.append("## Major delay factors (threshold 0.3)")
    for result in results:
        dist = factor_distribution(result)
        lines.append("")
        lines.append(f"### {result.name}")
        lines.append("")
        for group, label in _GROUP_LABELS.items():
            lines.append(f"- {label}: {dist['groups'][group]}")
        lines.append(f"- Unknown: {dist['unknown']}")
        lines.append("")
        lines.append("| factor | group | transfers |")
        lines.append("|---|---|---:|")
        for factor, (series, group) in FACTORS.items():
            lines.append(
                f"| {factor} | {group} | {dist['breakdown'][factor]} |"
            )
    lines.append("")

    lines.append("## Detected transport problems")
    lines.append("")
    lines.append("| trace | problem | count | avg induced delay (s) |")
    lines.append("|---|---|---:|---:|")
    for result in results:
        findings = detector_findings(result)
        for problem, row in findings.items():
            lines.append(
                f"| {result.name} | {problem.replace('_', ' ')} "
                f"| {row['count']} | {row['avg_delay_s']:.2f} |"
            )
    lines.append("")
    return "\n".join(lines)
