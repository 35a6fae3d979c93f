#!/usr/bin/env python3
"""Survey delay factors across a small monitoring campaign.

The paper's first usage scenario (section IV-A): without prior knowledge
of any problem, run T-DAT over every captured table transfer and ask
*where* the delay comes from — sender, receiver or network — and *which*
mechanism (BGP app, TCP window, loss) dominates.

This runs a scaled-down ISP_A-Quagga campaign and prints the
(Rs, Rr, Rn) vector per transfer plus the aggregate major-factor
distribution (the shape of the paper's Figure 14 / Table IV).

Run:  python examples/survey_delay_factors.py   (takes ~a minute)
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro.analysis.factors import FACTORS
from repro.api import Pipeline
from repro.tools.report import render_markdown
from repro.workloads.campaign import isp_quagga_config


def main() -> None:
    config = isp_quagga_config(transfers=12)
    print(f"running campaign {config.name}: {config.transfers} transfers, "
          f"{config.routers} routers...\n")
    result = Pipeline(workers=2).campaign(config)

    print(f"{'transfer':>9s} {'pathology':18s} {'dur(s)':>8s} "
          f"{'Rs':>5s} {'Rr':>5s} {'Rn':>5s}  major")
    for record in result.records:
        rs, rr, rn = record.factors.group_vector
        major = ",".join(
            f"{g}:{f}" for g, f in record.factors.major_factors().items()
        ) or "unknown"
        print(f"{record.episode:>9d} {record.pathology:18s} "
              f"{record.duration_s:8.2f} {rs:5.2f} {rr:5.2f} {rn:5.2f}  {major}")

    groups = Counter()
    factors = Counter()
    for record in result.records:
        majors = record.factors.major_factors()
        if not majors:
            groups["unknown"] += 1
        for group, factor in majors.items():
            groups[group] += 1
            factors[factor] += 1

    print(f"\nmajor factor groups over {len(result.records)} transfers "
          "(threshold 0.3, groups can overlap):")
    for group, count in groups.most_common():
        print(f"  {group:10s} {count}")
    print("\ndominant individual factors:")
    for factor, count in factors.most_common():
        series_name, group = FACTORS[factor]
        print(f"  {factor:22s} ({group:8s}) {count}")

    report_path = Path(tempfile.gettempdir()) / "tdat_survey.md"
    report_path.write_text(render_markdown([result]))
    print(f"\nfull Markdown report -> {report_path}")


if __name__ == "__main__":
    main()
