"""Golden digests of whole campaign results.

Each digest is the sha256 of ``json.dumps(result, sort_keys=True)``
over a campaign's ``to_dict()`` (or a concurrency sweep's ratios).
Every record's analysis runs over the connection's table-transfer
extent found by MCT, so these pin the analysis period as well as the
analysis.  ``ISP_A-Quagga`` takes its extents from the collector's MRT
archive and ``ISP_A-Vendor`` from pcap2bgp, so both extent paths are
covered; both campaigns include a zero-ACK-bug episode.  The episode
captures and the peer-group episode are pinned too.
"""

import hashlib
import io
import json

import pytest

from repro.workloads.campaign import (
    _draw_specs,
    campaign_config,
    peer_group_spec,
    run_campaign,
    run_concurrency_sweep,
    run_episode,
    zero_ack_bug_spec,
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


# The bench's ``fulltable`` corpus is built from the bytes ``run_episode``
# writes to ``pcap_out``, so the captures are pinned directly, not only
# through the records analyzed from them.
CAPTURE_SHA256 = {
    "ISP_A-Quagga":
        "e4eceeb292f152065ae6e203cc202d9b712eb80debf58b4d3483c78194f73b7a",
    "ISP_A-Vendor":
        "31ef9646372570c4f48e91033f9ebd5dc0f39b0837b55a5e95ceca61d9c09d86",
    "zero-ack-bug":
        "3fde0c8d87e1d8f81a53e67c3e4f33e2ca91faacecff706b8bae3c2117bd6e7b",
    # Both sniffers' records, merged in time order.
    "peer-group":
        "6b8656f8e142112d58d19406db2adf3534518955f9738d3a833ea2046c2e92f9",
}

# The benchmark suite's ISP_A-Vendor peer-group case.
PEER_GROUP_CASE = dict(
    seed=101, hold_time_s=90, fail_after_s=0.4, table_size=40_000
)

PEER_GROUP_SHA256 = (
    "4971599b52cac24b869cb64ce1564093de20f746607fc110098fb37a8129a0ec"
)


def _capture_digest(name: str) -> str:
    if name == "zero-ack-bug":
        specs = [zero_ack_bug_spec(campaign_config("ISP_A-Quagga"))]
    elif name == "peer-group":
        specs = [peer_group_spec(**PEER_GROUP_CASE)]
    else:
        config = campaign_config(name, transfers=2)
        specs = _draw_specs(config)[0][: config.transfers]
    digest = hashlib.sha256()
    for spec in specs:
        out = io.BytesIO()
        run_episode(spec, pcap_out=out)
        digest.update(out.getvalue())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CAPTURE_SHA256))
def test_episode_capture_is_unchanged(name):
    assert _capture_digest(name) == CAPTURE_SHA256[name]


def test_peer_group_episode_is_unchanged():
    (record,) = run_episode(peer_group_spec(**PEER_GROUP_CASE))
    assert record.peer_group.detected
    quagga_record = record.to_dict()
    blocked = quagga_record.pop("peer_group")
    payload = {"blocked": blocked, "quagga_record": quagga_record}
    assert _digest(payload) == PEER_GROUP_SHA256
