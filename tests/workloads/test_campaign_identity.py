"""Golden digests of whole campaign results.

Each digest is the sha256 of ``json.dumps(result, sort_keys=True)``
over a campaign's ``to_dict()`` (or a concurrency sweep's ratios).
Every record's analysis runs over the connection's table-transfer
extent found by MCT, so these pin the analysis period as well as the
analysis.  ``ISP_A-Quagga`` takes its extents from the collector's MRT
archive and ``ISP_A-Vendor`` from pcap2bgp, so both extent paths are
covered; both campaigns include a zero-ACK-bug episode.
"""

import hashlib
import json

import pytest

from repro.workloads.campaign import (
    campaign_config,
    run_campaign,
    run_concurrency_sweep,
)

CAMPAIGN_SHA256 = {
    "ISP_A-Quagga":
        "7803b7c863b08be8b41a3cd42773865e413943e8e20568c9e8e15ffa28916cd5",
    "ISP_A-Vendor":
        "87a46f2e91e3c750868131125f10d7b5f8853ac011616cadc3f2785ae98a28b4",
}

SWEEP_SHA256 = (
    "bdd7a82694858fd5f4bef76c35cbe961646579e0ba8bd5a87edea14143994f60"
)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("name", sorted(CAMPAIGN_SHA256))
def test_campaign_result_is_unchanged(name):
    result = run_campaign(campaign_config(name, transfers=2))
    assert _digest(result.to_dict()) == CAMPAIGN_SHA256[name]


def test_concurrency_sweep_is_unchanged():
    sweep = run_concurrency_sweep(
        (2, 8), table_size=20_000, cpu_per_message_us=120
    )
    assert sweep[8]["bgp_receiver_app"] > 0
    assert _digest(sweep) == SWEEP_SHA256
