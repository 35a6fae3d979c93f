"""Parallel campaigns: byte-identical to serial, crashes contained."""

import json

import pytest

from repro.core.health import STAGE_EXEC
from repro.exec.pool import WorkPool
from repro.workloads.campaign import (
    CAMPAIGNS,
    campaign_config,
    isp_quagga_config,
    run_campaign,
)
from repro.workloads.names import CAMPAIGN_NAMES

TRANSFERS = 3
SEED = 5


def _small_config(**overrides):
    config = isp_quagga_config(seed=SEED, transfers=TRANSFERS)
    config.zero_bug_episodes = 0
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture(scope="module")
def serial_result():
    return run_campaign(_small_config())


class TestByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_workers_do_not_change_the_report(self, serial_result, workers):
        result = run_campaign(_small_config(), pool=WorkPool(workers=workers))
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            serial_result.to_dict(), sort_keys=True
        )

    def test_records_in_episode_order(self, serial_result):
        episodes = [r.episode for r in serial_result.records]
        assert episodes == sorted(episodes)

    def test_different_seed_changes_the_report(self, serial_result):
        config = _small_config()
        config.seed = SEED + 1
        other = run_campaign(config, pool=WorkPool(workers=2))
        assert json.dumps(other.to_dict(), sort_keys=True) != json.dumps(
            serial_result.to_dict(), sort_keys=True
        )


class TestFaultIsolation:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_crashed_transfer_becomes_health_issue(self, workers):
        config = _small_config(fail_episodes=(1,))
        result = run_campaign(config, pool=WorkPool(workers=workers))
        # The crashed episode is gone, the siblings completed.
        assert all(r.episode != 1 for r in result.records)
        assert len(result.records) == TRANSFERS - 1
        assert not result.health.ok
        issues = [i for i in result.health.issues if i.stage == STAGE_EXEC]
        assert len(issues) == 1
        assert issues[0].kind == "transfer-crashed"
        assert "episode 1" in issues[0].detail

    def test_surviving_records_match_the_clean_run(self):
        clean = run_campaign(_small_config())
        crashed = run_campaign(
            _small_config(fail_episodes=(0,)), pool=WorkPool(workers=2)
        )
        clean_by_episode = {r.episode: r.to_dict() for r in clean.records}
        for record in crashed.records:
            assert record.to_dict() == clean_by_episode[record.episode]


class TestRegistry:
    def test_known_campaigns(self):
        assert set(CAMPAIGNS) == {"ISP_A-Vendor", "ISP_A-Quagga", "RV"}
        assert tuple(CAMPAIGNS) == CAMPAIGN_NAMES
        for name, factory in CAMPAIGNS.items():
            assert factory().name == name

    def test_campaign_config_passes_overrides(self):
        config = campaign_config("RV", seed=3, transfers=7)
        assert config.name == "RV"
        assert config.seed == 3
        assert config.transfers == 7

    def test_unknown_campaign_raises(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            campaign_config("nope")
