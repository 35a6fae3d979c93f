"""Supervised campaigns: retries, checkpoints, resume, watchdog budgets.

The contract under test is the robustness acceptance criterion: a
campaign that crashes transiently, is interrupted, or hits a watchdog
budget must still end in a result byte-identical to (or an accounted
subset of) the clean uninterrupted run.
"""

import json

import pytest

from repro.bgp.table import generate_table
from repro.core.health import STAGE_EXEC, TraceHealth
from repro.exec.pool import WorkPool
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import SimBudgetExceeded
from repro.workloads import campaign
from repro.workloads.campaign import (
    CampaignResult,
    _sweep_spec,
    isp_quagga_config,
    peer_group_spec,
    run_campaign,
    run_episode,
)
from repro.workloads.checkpoint import (
    CampaignInterrupted,
    CampaignJournal,
    CheckpointMismatch,
    GracefulShutdown,
    config_digest,
)

TRANSFERS = 3
SEED = 5


def _small_config(**overrides):
    config = isp_quagga_config(seed=SEED, transfers=TRANSFERS)
    config.zero_bug_episodes = 0
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def _dump(result: CampaignResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(scope="module")
def clean_result():
    return run_campaign(_small_config())


class TestRetriedRunByteIdentity:
    """Satellite: injected transient crashes + retries == clean run."""

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_recovered_campaign_matches_clean_run(self, clean_result, workers):
        pool = WorkPool(workers=workers, max_retries=2, retry_backoff_s=0.0)
        result = run_campaign(
            _small_config(fail_episodes=(0, 1)), pool=pool
        )
        # All episodes recovered; records byte-identical to the clean run.
        assert len(result.records) == TRANSFERS
        assert [r.to_dict() for r in result.records] == [
            r.to_dict() for r in clean_result.records
        ]
        # The recoveries are accounted, but benign: no failures.
        retried = [
            i for i in result.health.issues if i.kind == "task-retried"
        ]
        assert len(retried) == 2
        assert all(i.benign and i.stage == STAGE_EXEC for i in retried)
        assert result.health.failures == []

    def test_retried_pcap_checkpoints_match_clean_checkpoints(
        self, tmp_path
    ):
        clean_dir = tmp_path / "clean"
        retried_dir = tmp_path / "retried"
        run_campaign(_small_config(), checkpoint_dir=clean_dir)
        pool = WorkPool(workers=2, max_retries=2, retry_backoff_s=0.0)
        run_campaign(
            _small_config(fail_episodes=(1,)),
            pool=pool, checkpoint_dir=retried_dir,
        )
        clean_pcaps = sorted((clean_dir / "episodes").glob("*.pcap"))
        retried_pcaps = sorted((retried_dir / "episodes").glob("*.pcap"))
        assert [p.name for p in clean_pcaps] == [
            p.name for p in retried_pcaps
        ]
        for a, b in zip(clean_pcaps, retried_pcaps):
            assert a.read_bytes() == b.read_bytes()


class TestInterruptAndResume:
    """Satellite: kill mid-run, resume, merged result == clean run."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resumed_run_equals_uninterrupted_run(
        self, clean_result, tmp_path, workers
    ):
        ckpt = tmp_path / "ckpt"
        shutdown = GracefulShutdown(install_signals=False)
        done = []

        def stop_after_one(task, outcome):
            done.append(task)
            if len(done) >= 1:
                shutdown.request()

        with pytest.raises(CampaignInterrupted) as err:
            run_campaign(
                _small_config(), pool=WorkPool(workers=workers),
                checkpoint_dir=ckpt, shutdown=shutdown,
                on_episode=stop_after_one,
            )
        assert 1 <= err.value.completed < err.value.total
        assert err.value.checkpoint_dir == ckpt
        assert "--resume" in str(err.value)

        health = TraceHealth()
        resumed = run_campaign(
            _small_config(), pool=WorkPool(workers=workers),
            checkpoint_dir=ckpt, resume=True, health=health,
        )
        # Byte-identical records, totals, and per-record payloads —
        # including ordering, which the fold reconstructs from the
        # submission order, not the completion order.
        assert len(resumed.records) == len(clean_result.records)
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in clean_result.records
        ]
        assert resumed.total_packets == clean_result.total_packets
        assert resumed.total_bytes == clean_result.total_bytes
        # The only health delta vs. a clean run is the benign marker.
        marker = [i for i in health.issues if i.kind == "campaign-resumed"]
        assert len(marker) == 1
        assert marker[0].benign
        assert health.failures == []

    def test_resume_of_complete_checkpoint_runs_nothing(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = run_campaign(_small_config(), checkpoint_dir=ckpt)
        ran = []
        resumed = run_campaign(
            _small_config(), checkpoint_dir=ckpt, resume=True,
            on_episode=lambda task, outcome: ran.append(task),
        )
        assert ran == []  # every episode restored from the journal
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in first.records
        ]


class TestCheckpointJournal:
    def test_layout_and_completion_markers(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_campaign(_small_config(), checkpoint_dir=ckpt)
        # One CRC-framed journal entry per episode; the pcaps ride
        # alongside as separate atomic artifacts.
        journal = CampaignJournal(ckpt, _small_config())
        assert len(journal.load()) == TRANSFERS
        pcaps = sorted(p.name for p in (ckpt / "episodes").glob("*.pcap"))
        assert len(pcaps) == TRANSFERS
        raw = (ckpt / "journal.bin").read_bytes()
        assert raw.startswith(b"TDJ2")
        # Both manifest copies exist and agree on the config binding.
        for name in ("manifest.json", "manifest.replica.json"):
            manifest = json.loads((ckpt / name).read_text())
            assert manifest["config_sha256"] == config_digest(_small_config())

    def test_resume_under_different_config_refuses(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_campaign(_small_config(), checkpoint_dir=ckpt)
        with pytest.raises(CheckpointMismatch, match="different"):
            run_campaign(
                _small_config(seed=SEED + 1),
                checkpoint_dir=ckpt, resume=True,
            )

    def test_resume_needs_a_checkpoint_dir(self):
        ran = []
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_campaign(
                _small_config(), resume=True,
                on_episode=lambda task, outcome: ran.append(task),
            )
        assert ran == []

    def test_torn_tail_is_salvaged_and_rerun_not_trusted(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_campaign(_small_config(), checkpoint_dir=ckpt)
        journal_path = ckpt / "journal.bin"
        raw = journal_path.read_bytes()
        # Tear the last frame mid-payload, as a crash mid-append would.
        journal_path.write_bytes(raw[: len(raw) - 10])
        health = TraceHealth()
        journal = CampaignJournal(ckpt, _small_config(), health=health)
        assert len(journal.load()) == TRANSFERS - 1
        salvage = [
            i for i in health.issues if i.kind == "checkpoint-salvaged"
        ]
        assert len(salvage) == 1 and salvage[0].benign
        # The torn bytes were quarantined and the journal truncated to
        # the longest valid prefix.
        assert list(ckpt.glob("journal.torn-*"))
        assert len(journal_path.read_bytes()) < len(raw) - 10
        ran = []
        run_campaign(
            _small_config(), checkpoint_dir=ckpt, resume=True,
            on_episode=lambda task, outcome: ran.append(task),
        )
        assert len(ran) == 1  # only the torn episode re-ran


class TestZeroAckBugEpisode:
    """The zero-ACK-bug episode is an ordinary campaign episode."""

    @staticmethod
    def _config(**overrides):
        # One mixture episode, then the zero-ACK-bug one (episode 10000).
        config = isp_quagga_config(seed=SEED, transfers=1)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config

    def test_fail_episodes_reach_it(self):
        crashed = run_campaign(self._config(fail_episodes=(10_000,)))
        assert [r.pathology for r in crashed.records] == ["clean"]
        (issue,) = crashed.health.failures
        assert issue.kind == "transfer-crashed"
        assert "episode 10000" in issue.detail
        pool = WorkPool(max_retries=1, retry_backoff_s=0.0)
        recovered = run_campaign(
            self._config(fail_episodes=(10_000,)), pool=pool
        )
        assert [r.pathology for r in recovered.records] == [
            "clean", "zero-ack-bug"
        ]
        (retried,) = recovered.health.issues
        assert retried.kind == "task-retried" and retried.benign
        assert "episode 10000" in retried.detail

    def test_checkpoint_and_resume_reach_it(self, tmp_path):
        clean = run_campaign(self._config())
        ckpt = tmp_path / "ckpt"
        shutdown = GracefulShutdown(install_signals=False)
        with pytest.raises(CampaignInterrupted):
            run_campaign(
                self._config(), checkpoint_dir=ckpt, shutdown=shutdown,
                on_episode=lambda task, outcome: shutdown.request(),
            )
        ran = []
        resumed = run_campaign(
            self._config(), checkpoint_dir=ckpt, resume=True,
            on_episode=lambda task, outcome: ran.append(task),
        )
        assert ran == [1]  # only the zero-ACK-bug episode was left
        assert [r.to_dict() for r in resumed.records] == [
            r.to_dict() for r in clean.records
        ]
        assert resumed.records[-1].pathology == "zero-ack-bug"
        pcaps = sorted(p.name for p in (ckpt / "episodes").glob("*.pcap"))
        assert pcaps == ["episode-0000.pcap", "episode-0001.pcap"]


class TestWatchdogContainment:
    def test_event_budget_contains_pathological_episode(self, monkeypatch):
        # A budget far below any real episode: every episode aborts,
        # the campaign itself still completes and accounts each one.
        monkeypatch.setattr(campaign, "EPISODE_EVENT_BUDGET", 10)
        result = run_campaign(_small_config())
        assert result.records == []
        issues = result.health.failures
        assert issues, "budget aborts must surface as failures"
        assert {i.kind for i in issues} == {"sim-budget-exceeded"}
        assert all(i.stage == STAGE_EXEC for i in issues)

    def test_generous_budget_is_invisible(self, clean_result, monkeypatch):
        # The fixture ran under the default 5M-event watchdog; without
        # any limit the campaign is byte-identical.
        monkeypatch.setattr(campaign, "EPISODE_EVENT_BUDGET", None)
        result = run_campaign(_small_config())
        assert result.health.ok
        assert _dump(result) == _dump(clean_result)

    def test_sweep_and_peer_group_runs_are_watched(self, monkeypatch):
        # Every campaign simulation runs under the watchdog, not only
        # the mixture episodes.
        monkeypatch.setattr(campaign, "EPISODE_EVENT_BUDGET", 10)
        table = generate_table(500, RandomStreams(55).stream("table"))
        with pytest.raises(SimBudgetExceeded) as err:
            run_episode(_sweep_spec(table, 2, 40))
        assert err.value.events == 10
        with pytest.raises(SimBudgetExceeded):
            run_episode(peer_group_spec(table_size=500))
