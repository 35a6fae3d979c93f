"""Checkpoint-journal hardening: CRC framing, tail salvage at every
byte offset, manifest double-write recovery, and the injectable
filesystem seam.

The contract under test: no single torn write, bit flip, or filesystem
failure may cost more than the affected entries — the journal always
recovers its longest valid prefix, a resume from any salvaged state is
byte-identical to the clean run, and a write failure surfaces as a
typed, resumable interruption.
"""

import json
import pickle
import shutil
import zlib
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import FaultyCheckpointFs, FsFault
from repro.chaos.plan import FS_ENOSPC
from repro.chaos.runner import chaos_config
from repro.core.health import TraceHealth
from repro.workloads.campaign import CampaignResult, run_campaign
from repro.workloads.checkpoint import (
    FORMAT,
    FRAME_HEADER,
    FRAME_MAGIC,
    JOURNAL_NAME,
    MANIFEST_NAME,
    MANIFEST_REPLICA_NAME,
    POINT_CHECKPOINT_WRITE,
    POINT_JOURNAL_APPEND,
    CampaignInterrupted,
    CampaignJournal,
    CheckpointMismatch,
    CheckpointWriteError,
    config_digest,
    use_checkpoint_fs,
)

TRANSFERS = 3


@dataclass
class _TinyConfig:
    """A minimal config stand-in: enough for a manifest binding."""

    name: str = "tiny"
    transfers: int = TRANSFERS


def _frame(index: int, payload: bytes | None = None) -> bytes:
    """One journal frame, exactly as CampaignJournal.write emits it."""
    if payload is None:
        payload = pickle.dumps(
            {
                "format": FORMAT,
                "task": index,
                "records": [f"record-{index}"],
                "health": None,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    return FRAME_HEADER.pack(
        FRAME_MAGIC, len(payload), zlib.crc32(payload)
    ) + payload


def _records_dump(result: CampaignResult) -> str:
    # Health is deliberately excluded: a salvaged resume legitimately
    # carries benign bookkeeping a clean run does not.
    payload = result.to_dict()
    return json.dumps(
        {
            "records": payload["records"],
            "total_packets": payload["total_packets"],
            "total_bytes": payload["total_bytes"],
        },
        sort_keys=True,
    )


class TestSalvageAtEveryOffset:
    """The tentpole property, exhaustively: truncate a valid journal at
    *every* byte offset; salvage must recover exactly the frames that
    are fully present and quarantine the rest."""

    def test_every_truncation_offset_recovers_longest_valid_prefix(
        self, tmp_path
    ):
        frames = [_frame(i) for i in range(TRANSFERS)]
        full = b"".join(frames)
        boundaries = [0]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(full) + 1):
            root = tmp_path / f"cut-{cut:04d}"
            CampaignJournal(root, _TinyConfig())  # writes the manifests
            (root / JOURNAL_NAME).write_bytes(full[:cut])
            health = TraceHealth()
            journal = CampaignJournal(root, _TinyConfig(), health=health)
            whole = sum(1 for b in boundaries[1:] if b <= cut)
            valid_end = boundaries[whole]
            assert len(journal.load()) == whole, f"cut at {cut}"
            assert journal.load() == {
                i: ([f"record-{i}"], None)
                for i in range(whole)
            }
            # The file is truncated back to the last whole frame ...
            assert (root / JOURNAL_NAME).read_bytes() == full[:valid_end]
            torn = [i for i in health.issues
                    if i.kind == "checkpoint-salvaged"]
            quarantine = root / f"journal.torn-{valid_end:08d}"
            if cut == valid_end:
                # ... and a cut on a frame boundary loses nothing.
                assert torn == []
                assert not quarantine.exists()
            else:
                assert len(torn) == 1 and torn[0].benign
                assert torn[0].bytes_lost == cut - valid_end
                assert quarantine.read_bytes() == full[valid_end:cut]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One clean checkpointed micro campaign, shared read-only."""
    ckpt = tmp_path_factory.mktemp("pristine") / "ckpt"
    result = run_campaign(chaos_config(TRANSFERS), checkpoint_dir=ckpt)
    return ckpt, _records_dump(result)


class TestTruncatedResumeByteIdentity:
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_resume_after_random_truncation_matches_clean_run(
        self, pristine, tmp_path_factory, data
    ):
        ckpt, clean = pristine
        size = len((ckpt / JOURNAL_NAME).read_bytes())
        cut = data.draw(st.integers(0, size - 1), label="truncate_at")
        work = tmp_path_factory.mktemp("torn") / "ckpt"
        shutil.copytree(ckpt, work)
        raw = (work / JOURNAL_NAME).read_bytes()
        (work / JOURNAL_NAME).write_bytes(raw[:cut])
        health = TraceHealth()
        resumed = run_campaign(
            chaos_config(TRANSFERS),
            checkpoint_dir=work, resume=True, health=health,
        )
        assert _records_dump(resumed) == clean
        assert health.failures == []


class TestFrameDamage:
    def test_crc_bitflip_truncates_from_the_damaged_frame(self, tmp_path):
        # A flipped bit fails the CRC, and a frame that cannot be
        # trusted poisons everything after it: prefix salvage, by
        # design, treats the damage point as the new tail.
        frames = [_frame(i) for i in range(TRANSFERS)]
        flipped = bytearray(b"".join(frames))
        flip_at = len(frames[0]) + FRAME_HEADER.size + 2
        flipped[flip_at] ^= 0x40
        root = tmp_path / "ckpt"
        CampaignJournal(root, _TinyConfig())
        (root / JOURNAL_NAME).write_bytes(bytes(flipped))
        health = TraceHealth()
        journal = CampaignJournal(root, _TinyConfig(), health=health)
        assert set(journal.load()) == {0}
        salvage = [i for i in health.issues
                   if i.kind == "checkpoint-salvaged"]
        assert len(salvage) == 1 and salvage[0].benign
        quarantine = root / f"journal.torn-{len(frames[0]):08d}"
        assert quarantine.read_bytes() == bytes(flipped[len(frames[0]):])

    def test_crc_valid_undecodable_entry_is_skipped_not_torn(
        self, tmp_path
    ):
        # A correctly framed entry whose payload will not decode (wrong
        # format version, foreign pickle) is an isolated casualty: the
        # scan skips it and keeps trusting the frames behind it.
        frames = [
            _frame(0),
            _frame(1, payload=b"not a pickle at all"),
            _frame(2),
        ]
        root = tmp_path / "ckpt"
        CampaignJournal(root, _TinyConfig())
        raw = b"".join(frames)
        (root / JOURNAL_NAME).write_bytes(raw)
        health = TraceHealth()
        journal = CampaignJournal(root, _TinyConfig(), health=health)
        assert set(journal.load()) == {0, 2}
        skipped = [i for i in health.issues
                   if i.kind == "checkpoint-entry-skipped"]
        assert len(skipped) == 1 and skipped[0].benign
        assert health.failures == []
        # Nothing was truncated or quarantined: the file is intact.
        assert (root / JOURNAL_NAME).read_bytes() == raw
        assert not list(root.glob("journal.torn-*"))


class TestManifestDoubleWrite:
    def _open(self, root, health=None):
        return CampaignJournal(root, _TinyConfig(), health=health)

    def test_missing_primary_recovers_from_replica_and_heals(
        self, tmp_path
    ):
        root = tmp_path / "ckpt"
        self._open(root)
        (root / MANIFEST_NAME).unlink()
        self._open(root)  # no CheckpointMismatch: replica suffices
        healed = json.loads((root / MANIFEST_NAME).read_text())
        assert healed["config_sha256"] == config_digest(_TinyConfig())

    def test_corrupt_replica_recovers_from_primary_and_heals(
        self, tmp_path
    ):
        root = tmp_path / "ckpt"
        self._open(root)
        (root / MANIFEST_REPLICA_NAME).write_text("{torn garbag")
        self._open(root)
        assert (root / MANIFEST_REPLICA_NAME).read_bytes() == (
            root / MANIFEST_NAME
        ).read_bytes()

    def test_both_copies_unreadable_refuses(self, tmp_path):
        root = tmp_path / "ckpt"
        self._open(root)
        (root / MANIFEST_NAME).write_text("{")
        (root / MANIFEST_REPLICA_NAME).unlink()
        with pytest.raises(CheckpointMismatch, match="unreadable"):
            self._open(root)

    def test_replica_is_written_before_the_primary(self, tmp_path):
        # A failure on the second manifest write must leave the
        # *replica* on disk (the primary is the later write), so the
        # next open recovers instead of finding a torn-only checkpoint.
        root = tmp_path / "ckpt"
        fs = FaultyCheckpointFs(
            FsFault(
                point=POINT_CHECKPOINT_WRITE, mode=FS_ENOSPC, at_call=2
            )
        )
        with use_checkpoint_fs(fs):
            with pytest.raises(CheckpointWriteError):
                self._open(root)
        assert fs.injected
        assert (root / MANIFEST_REPLICA_NAME).exists()
        assert not (root / MANIFEST_NAME).exists()
        self._open(root)  # recovers from the replica ...
        assert (root / MANIFEST_NAME).exists()  # ... and heals


class TestWriteFailureIsTypedAndResumable:
    def test_journal_enospc_interrupts_then_resume_completes(
        self, tmp_path
    ):
        config = chaos_config(TRANSFERS)
        baseline = _records_dump(run_campaign(config))
        ckpt = tmp_path / "ckpt"
        fs = FaultyCheckpointFs(
            FsFault(
                point=POINT_JOURNAL_APPEND, mode=FS_ENOSPC, at_call=2
            )
        )
        with use_checkpoint_fs(fs):
            with pytest.raises(CampaignInterrupted) as err:
                run_campaign(config, checkpoint_dir=ckpt)
        assert fs.injected
        assert "checkpoint write failed" in err.value.reason
        # Exactly the episodes journaled before the failure count as
        # completed; the failed append itself is not trusted.
        assert err.value.completed == 1
        assert err.value.checkpoint_dir == ckpt
        health = TraceHealth()
        resumed = run_campaign(
            config, checkpoint_dir=ckpt, resume=True, health=health,
        )
        assert _records_dump(resumed) == baseline
        assert health.failures == []
