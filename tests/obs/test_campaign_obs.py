"""End-to-end observability through a campaign.

The acceptance contract: the deterministic metrics view is
byte-identical between ``workers=1`` and ``workers=4`` runs of the
same campaign, and the trace carries the nested
``campaign.episode -> episode.simulate / episode.analyze`` hierarchy.
"""

from __future__ import annotations

import json

import pytest

from repro.exec.pool import WorkPool
from repro.obs import Observability, get_obs, use_obs
from repro.workloads.campaign import isp_quagga_config, run_campaign

TRANSFERS = 2
SEED = 9


def _small_config(**overrides):
    config = isp_quagga_config(seed=SEED, transfers=TRANSFERS)
    config.zero_bug_episodes = 0
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _run_with_obs(workers: int, **overrides):
    obs = Observability.create()
    with use_obs(obs):
        result = run_campaign(
            _small_config(**overrides), pool=WorkPool(workers=workers)
        )
    return obs, result


@pytest.fixture(scope="module")
def serial():
    return _run_with_obs(workers=1)


class TestDeterministicMetrics:
    def test_result_carries_the_merged_registry(self, serial):
        _obs, result = serial
        assert result.metrics is not None
        snapshot = result.metrics.to_dict()
        assert snapshot["campaign.episodes"]["value"] == TRANSFERS
        assert snapshot["campaign.records"]["value"] == len(result.records)
        assert snapshot["sim.runs"]["value"] >= TRANSFERS
        assert snapshot["sim.events"]["value"] > 0
        # Each record's connection is analyzed exactly once.
        assert snapshot["analysis.connections"]["value"] == len(result.records)

    def test_workers_do_not_change_the_deterministic_view(self, serial):
        _obs, serial_result = serial
        _obs4, parallel_result = _run_with_obs(workers=4)
        want = json.dumps(
            serial_result.metrics.to_dict(deterministic_only=True),
            sort_keys=True,
        )
        got = json.dumps(
            parallel_result.metrics.to_dict(deterministic_only=True),
            sort_keys=True,
        )
        assert got == want

    def test_wall_metrics_exist_but_are_excluded_from_the_view(self, serial):
        _obs, result = serial
        full = result.metrics.to_dict()
        deterministic = result.metrics.to_dict(deterministic_only=True)
        assert "analysis.connection_s" in full
        assert full["analysis.connection_s"]["wall"] is True
        assert "analysis.connection_s" not in deterministic
        assert all(not m["wall"] for m in deterministic.values())

    def test_crashed_episode_contributes_nothing(self):
        """A worker crash drops that episode's export entirely — the
        survivors' counters must not be inflated by partial recordings
        (and must stay identical across worker counts)."""
        _obs1, serial_result = _run_with_obs(workers=1, fail_episodes=(1,))
        _obs2, parallel_result = _run_with_obs(workers=2, fail_episodes=(1,))
        for result in (serial_result, parallel_result):
            snapshot = result.metrics.to_dict()
            assert snapshot["campaign.episodes"]["value"] == TRANSFERS - 1
        assert json.dumps(
            serial_result.metrics.to_dict(deterministic_only=True),
            sort_keys=True,
        ) == json.dumps(
            parallel_result.metrics.to_dict(deterministic_only=True),
            sort_keys=True,
        )


class TestSpans:
    def test_episode_spans_nest(self, serial):
        obs, _result = serial
        spans = obs.tracer.spans
        episodes = [s for s in spans if s.name == "campaign.episode"]
        assert len(episodes) == TRANSFERS
        for episode in episodes:
            children = [
                s for s in spans
                if s.tid == episode.tid
                and s.name in ("episode.simulate", "episode.analyze")
            ]
            assert {c.name for c in children} == {
                "episode.simulate", "episode.analyze"
            }
            for child in children:
                assert episode.start_us <= child.start_us
                assert (
                    child.start_us + child.dur_us
                    <= episode.start_us + episode.dur_us
                )

    def test_each_episode_gets_its_own_track(self, serial):
        obs, _result = serial
        episodes = [
            s for s in obs.tracer.spans if s.name == "campaign.episode"
        ]
        tids = [s.tid for s in episodes]
        assert len(set(tids)) == len(tids)

    def test_campaign_map_span_wraps_the_pool_run(self, serial):
        obs, _result = serial
        (map_span,) = [
            s for s in obs.tracer.spans if s.name == "campaign.map"
        ]
        assert map_span.args["tasks"] == TRANSFERS

    def test_sim_spans_live_on_the_sim_clock(self, serial):
        obs, _result = serial
        sim_runs = [s for s in obs.tracer.spans if s.name == "sim.run"]
        assert sim_runs
        assert all(s.clock == "sim" for s in sim_runs)


class TestDisabledPath:
    def test_without_a_context_no_metrics_are_attached(self):
        assert get_obs().enabled is False  # ambient default
        result = run_campaign(_small_config())
        assert result.metrics is None

    def test_metrics_stay_out_of_the_identity_digest(self, serial):
        """to_dict() is the serial/parallel byte-identity witness; the
        registry must not leak into it."""
        _obs, result = serial
        plain = run_campaign(_small_config())
        assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )
