"""Shared fixtures for the benchmark harness.

The expensive simulations (three campaigns, the peer-group episodes and
the concurrency sweep) run once per session; each benchmark then times
only its aggregation step and writes the regenerated table/figure to
``benchmarks/out/<id>.txt`` so results can be inspected and diffed
against the paper (see EXPERIMENTS.md).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.workloads.campaign import (
    isp_quagga_config,
    isp_vendor_config,
    peer_group_spec,
    routeviews_config,
    run_campaign,
    run_concurrency_sweep,
    run_episode,
)

OUT_DIR = Path(__file__).parent / "out"

# Scaled-down campaign sizes (the paper analyzed 10396/436/94 transfers
# over months; per-transfer mechanics here are faithful, populations
# are not).
CAMPAIGN_SIZES = {"ISP_A-Vendor": 24, "ISP_A-Quagga": 18, "RV": 14}


@pytest.fixture(scope="session")
def campaigns():
    """The three campaigns of the paper's Table I, simulated."""
    return {
        "ISP_A-Vendor": run_campaign(
            isp_vendor_config(transfers=CAMPAIGN_SIZES["ISP_A-Vendor"])
        ),
        "ISP_A-Quagga": run_campaign(
            isp_quagga_config(transfers=CAMPAIGN_SIZES["ISP_A-Quagga"])
        ),
        "RV": run_campaign(
            routeviews_config(transfers=CAMPAIGN_SIZES["RV"])
        ),
    }


@pytest.fixture(scope="session")
def peer_group_episodes():
    """Three peer-group failures with ISP_A / RV style hold times: the
    surviving Quagga record of each, carrying its blocking report."""
    cases = {
        "ISP_A-Vendor": dict(seed=101, hold_time_s=90, fail_after_s=0.4),
        "ISP_A-Quagga": dict(seed=102, hold_time_s=90, fail_after_s=0.3),
        "RV": dict(seed=103, hold_time_s=60, fail_after_s=0.3),
    }
    return {
        name: run_episode(
            peer_group_spec(table_size=40_000, campaign=name, **case)
        )[0]
        for name, case in cases.items()
    }


@pytest.fixture(scope="session")
def concurrency_sweep():
    """The paper's Figure 15 sweep."""
    return run_concurrency_sweep(concurrencies=(1, 2, 4, 8, 12, 16))


@pytest.fixture(scope="session")
def artifact_writer():
    """Persist a regenerated artifact under benchmarks/out/."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> Path:
        path = OUT_DIR / f"{name}.txt"
        path.write_text(text)
        return path

    return write


def percentile(sorted_values, q: float):
    """The q-quantile (0..1) of an ascending list."""
    if not sorted_values:
        return float("nan")
    index = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[index]
