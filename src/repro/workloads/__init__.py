"""Workload generation: synthetic tables, scenarios and campaigns."""

from repro.workloads.campaign import (
    CAMPAIGNS,
    CampaignConfig,
    CampaignResult,
    EpisodeSpec,
    PeerGroupEpisodeResult,
    TransferRecord,
    campaign_config,
    isp_quagga_config,
    isp_vendor_config,
    routeviews_config,
    run_concurrency_sweep,
    run_episode,
    run_peer_group_episode,
    zero_ack_bug_spec,
)
from repro.workloads.churn import ChurnGenerator, ResetStorm
from repro.workloads.scenarios import (
    COLLECTOR_PORT,
    MonitoringSetup,
    RouterHandle,
    RouterParams,
)


__all__ = [
    "CAMPAIGNS",
    "COLLECTOR_PORT",
    "CampaignConfig",
    "campaign_config",
    "CampaignResult",
    "ChurnGenerator",
    "ResetStorm",
    "EpisodeSpec",
    "MonitoringSetup",
    "PeerGroupEpisodeResult",
    "RouterHandle",
    "RouterParams",
    "TransferRecord",
    "isp_quagga_config",
    "isp_vendor_config",
    "routeviews_config",
    "run_concurrency_sweep",
    "run_episode",
    "run_peer_group_episode",
    "zero_ack_bug_spec",
]
