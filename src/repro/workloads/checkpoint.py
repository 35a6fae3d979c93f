"""Campaign checkpointing and graceful shutdown.

A measurement campaign is hours of simulation; losing it to a reboot,
an OOM kill, or an operator's Ctrl-C means starting over.  This module
gives :func:`~repro.workloads.campaign.run_campaign` a durable journal:

* :class:`CampaignJournal` — a checkpoint directory holding one
  append-only ``journal.bin`` of completed episodes (the analyzed
  records and the episode's private
  :class:`~repro.core.health.TraceHealth` ledger, one CRC32 + length
  framed record per episode) plus the episode pcaps as separate
  atomically-written artifacts.  A hard kill mid-append can only tear
  the journal *tail*; on open the longest valid record prefix is
  salvaged, the torn bytes are quarantined, and a benign
  ``checkpoint-salvaged`` issue accounts the loss — the affected
  episodes simply re-run;
* a double-written ``manifest.json`` (primary + replica, so no single
  torn write can orphan the journal) binding it to the exact
  :class:`~repro.workloads.campaign.CampaignConfig` that produced it —
  resuming under a different config (different seed, transfer count,
  mixture weights ...) raises :class:`CheckpointMismatch` instead of
  silently mixing incompatible populations;
* :class:`GracefulShutdown` — a context manager converting SIGINT and
  SIGTERM into a cooperative drain request: in-flight episodes finish
  and are journaled, then :class:`CampaignInterrupted` propagates so
  the CLI can exit with its dedicated status code.  A second signal
  falls back to an immediate :class:`KeyboardInterrupt`.

Every filesystem operation the journal performs goes through an
injectable :class:`CheckpointFs` seam (:func:`use_checkpoint_fs`), the
hook ``repro.chaos`` uses to inject torn writes, ``ENOSPC``, ``EIO``
and fsync failures at named injection points.  A real I/O failure
surfaces as a typed :class:`CheckpointWriteError`, which the campaign
layer converts into a resumable :class:`CampaignInterrupted`.

Because every episode is a pure function of its spec (and the specs a
pure function of the config), a resumed campaign is byte-identical to
an uninterrupted one: the journal only changes *when* episodes run,
never *what* they produce.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pickle
import signal
import struct
import threading
import time
import zlib
from pathlib import Path
from typing import Any, Iterator

from repro.core.health import STAGE_EXEC, TraceHealth
from repro.obs import get_obs

#: bump when the on-disk entry layout changes incompatibly.
FORMAT = 3

#: a journal entry key: the episode's index in the campaign's specs.
TaskKey = int

#: the append-only episode journal inside a checkpoint directory.
JOURNAL_NAME = "journal.bin"
MANIFEST_NAME = "manifest.json"
#: the manifest replica, written *before* the primary so that a crash
#: between the two writes always leaves at least one readable copy.
MANIFEST_REPLICA_NAME = "manifest.replica.json"

#: journal frame: magic | payload length | crc32(payload), then the
#: pickled payload itself.  Fixed little-endian so a journal written
#: on one host salvages identically on any other.
FRAME_MAGIC = b"TDJ2"
FRAME_HEADER = struct.Struct("<4sII")

# Chaos injection points (see docs/robustness.md, RL007): the named
# seams at which repro.chaos's FaultyCheckpointFs injects faults.
POINT_CHECKPOINT_WRITE = "checkpoint.write"
POINT_CHECKPOINT_FSYNC = "checkpoint.fsync"
POINT_CHECKPOINT_RENAME = "checkpoint.rename"
POINT_JOURNAL_APPEND = "journal.append"
POINT_JOURNAL_FSYNC = "journal.fsync"


class CheckpointMismatch(ValueError):
    """The checkpoint directory belongs to a different campaign config."""


class CheckpointWriteError(RuntimeError):
    """A checkpoint write failed at the filesystem (ENOSPC, EIO, ...).

    Raised from :meth:`CampaignJournal.write` (and manifest creation)
    instead of a bare :class:`OSError` so the campaign layer can tell
    "the journal cannot make progress" apart from ordinary ingest
    errors and convert it into a resumable
    :class:`CampaignInterrupted`.
    """

    def __init__(self, path: Path, cause: BaseException) -> None:
        self.path = Path(path)
        super().__init__(f"checkpoint write to {self.path} failed: {cause}")


class CampaignInterrupted(Exception):
    """A campaign drained after SIGINT/SIGTERM (or a checkpoint write
    failure); the journal is flushed.

    Carries enough for the CLI to report progress and for callers to
    resume: re-run with the same ``checkpoint_dir`` and ``resume=True``
    (or ``tdat campaign ... --resume``) and the campaign continues
    exactly where it stopped.
    """

    def __init__(
        self, campaign: str, completed: int, total: int,
        checkpoint_dir: str | Path, reason: str = "",
    ) -> None:
        self.campaign = campaign
        self.completed = completed
        self.total = total
        self.checkpoint_dir = Path(checkpoint_dir)
        self.reason = reason
        message = (
            f"campaign {campaign} interrupted: {completed}/{total} "
            f"episode(s) completed and checkpointed under "
            f"{self.checkpoint_dir}; re-run with --resume to continue"
        )
        if reason:
            message += f" ({reason})"
        super().__init__(message)


# ---------------------------------------------------------------------- #
# The injectable filesystem seam                                           #
# ---------------------------------------------------------------------- #
class CheckpointFs:
    """The filesystem primitives every checkpoint write goes through.

    The default instance performs the real operations; ``repro.chaos``
    installs a fault-injecting subclass via :func:`use_checkpoint_fs`.
    Each method takes the *injection point* name under which the call
    should be attributed (see the RL007 catalog in
    ``docs/robustness.md``) — the seam is per-call-site, so a fault
    schedule can tear exactly the Nth journal append and nothing else.
    """

    def write(self, handle: Any, data: bytes, point: str) -> None:
        handle.write(data)

    def fsync(self, handle: Any, point: str) -> None:
        os.fsync(handle.fileno())

    def replace(self, src: Path, dst: Path, point: str) -> None:
        os.replace(src, dst)


_REAL_FS = CheckpointFs()
_CHECKPOINT_FS: CheckpointFs = _REAL_FS


def get_checkpoint_fs() -> CheckpointFs:
    """The ambient filesystem seam (the real one unless chaos is on)."""
    return _CHECKPOINT_FS


@contextlib.contextmanager
def use_checkpoint_fs(fs: CheckpointFs) -> Iterator[CheckpointFs]:
    """Install ``fs`` as the checkpoint filesystem for the duration.

    Journal writes happen in the campaign *parent* process (the pool's
    ``on_outcome`` hook), so installing a faulty fs here covers
    parallel runs too — workers never touch the journal.
    """
    global _CHECKPOINT_FS
    previous = _CHECKPOINT_FS
    _CHECKPOINT_FS = fs
    try:
        yield fs
    finally:
        _CHECKPOINT_FS = previous


def config_digest(config: Any) -> str:
    """SHA-256 over the config's canonical JSON form.

    Any field change — seed, transfer count, mixture weights, budgets —
    changes the digest, which is exactly the compatibility contract:
    resuming is only sound when every episode spec would be re-drawn
    identically.
    """
    payload = json.dumps(
        dataclasses.asdict(config), sort_keys=True, default=str
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` durably: no reader ever observes a torn file.

    The two fsyncs (file, then directory after the rename) dominate the
    cost of a checkpoint; their wall time lands in the
    ``checkpoint.fsync_s`` histogram.
    """
    obs = get_obs()
    fs = get_checkpoint_fs()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        fs.write(handle, data, POINT_CHECKPOINT_WRITE)
        handle.flush()
        fsync_started = time.monotonic() if obs.enabled else 0.0
        fs.fsync(handle, POINT_CHECKPOINT_FSYNC)
        if obs.enabled:
            obs.metrics.histogram("checkpoint.fsync_s", wall=True).observe(
                time.monotonic() - fsync_started
            )
    fs.replace(tmp, path, POINT_CHECKPOINT_RENAME)
    # fsync the directory so the rename itself survives a crash.
    try:
        dir_fd = os.open(path.parent, os.O_RDONLY)
    except OSError:
        return
    try:
        fsync_started = time.monotonic() if obs.enabled else 0.0
        os.fsync(dir_fd)
        if obs.enabled:
            obs.metrics.histogram("checkpoint.fsync_s", wall=True).observe(
                time.monotonic() - fsync_started
            )
    except OSError:
        pass
    finally:
        os.close(dir_fd)


class CampaignJournal:
    """One campaign's checkpoint directory.

    Layout::

        <root>/
          manifest.json            # config binding (see config_digest)
          manifest.replica.json    # double-write replica of the same
          journal.bin              # append-only CRC-framed entries
          journal.torn-<offset>    # quarantined torn tail, if salvaged
          episodes/
            episode-0007.pcap      # the episode's capture, as written

    ``journal.bin`` holds one frame per completed episode::

        "TDJ2" | u32 payload_len | u32 crc32(payload) | payload

    (little-endian; payload = pickled ``{format, task, records,
    health}``).  The pcap is written first, the journal append last,
    so the frame is the completion marker.  A hard kill mid-append can
    only tear the tail: on open, the longest valid frame prefix is
    kept, the torn bytes move to ``journal.torn-<offset>``, and the
    loss is accounted as a benign ``checkpoint-salvaged`` issue on the
    ``health`` ledger passed in — the torn episodes simply re-run.
    """

    def __init__(
        self,
        root: str | Path,
        config: Any,
        health: TraceHealth | None = None,
    ) -> None:
        self.root = Path(root)
        self.episodes = self.root / "episodes"
        self.journal_path = self.root / JOURNAL_NAME
        self.digest = config_digest(config)
        self.episodes.mkdir(parents=True, exist_ok=True)
        self._check_or_write_manifest(config)
        self._entries: dict[TaskKey, tuple[list, Any]] = {}
        self._scan_and_salvage(health)

    # ------------------------------------------------------------------ #
    # Manifest double-write                                              #
    # ------------------------------------------------------------------ #
    def _check_or_write_manifest(self, config: Any) -> None:
        primary = self.root / MANIFEST_NAME
        replica = self.root / MANIFEST_REPLICA_NAME
        if primary.exists() or replica.exists():
            recorded, healthy = self._read_manifest(primary, replica)
            if recorded.get("config_sha256") != self.digest:
                raise CheckpointMismatch(
                    f"checkpoint at {self.root} was written by a different "
                    f"campaign configuration (manifest "
                    f"{recorded.get('config_sha256', '?')[:12]}..., current "
                    f"{self.digest[:12]}...); refusing to mix results"
                )
            # Heal the copy that was missing or unreadable (best
            # effort: the surviving copy alone is already sufficient).
            for path in (primary, replica):
                if path not in healthy:
                    try:
                        _atomic_write(
                            path, _manifest_bytes(recorded)
                        )
                    except OSError:
                        pass
            return
        payload = _manifest_bytes(
            {
                "format": FORMAT,
                "campaign": getattr(config, "name", "?"),
                "config": dataclasses.asdict(config),
                "config_sha256": self.digest,
            }
        )
        # Replica first: a crash between the two writes must leave the
        # *primary* missing (an obviously incomplete checkpoint that
        # the replica recovers), never a checkpoint whose only copy is
        # torn.
        try:
            _atomic_write(replica, payload)
            _atomic_write(primary, payload)
        except OSError as exc:
            raise CheckpointWriteError(primary, exc) from exc

    @staticmethod
    def _read_manifest(
        primary: Path, replica: Path
    ) -> tuple[dict, list[Path]]:
        """The manifest dict plus which of the two copies were readable."""
        recorded: dict | None = None
        healthy: list[Path] = []
        errors: list[str] = []
        for path in (primary, replica):
            try:
                candidate = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError) as exc:
                errors.append(f"{path.name}: {exc}")
                continue
            healthy.append(path)
            if recorded is None:
                recorded = candidate
        if recorded is None:
            raise CheckpointMismatch(
                f"unreadable checkpoint manifest (both copies): "
                f"{'; '.join(errors)}"
            )
        return recorded, healthy

    # ------------------------------------------------------------------ #
    # Journal scan + tail salvage                                        #
    # ------------------------------------------------------------------ #
    def _scan_and_salvage(self, health: TraceHealth | None) -> None:
        """Parse every valid frame; truncate and quarantine a torn tail."""
        try:
            raw = self.journal_path.read_bytes()
        except FileNotFoundError:
            return
        except OSError:
            raw = b""
        offset = 0
        valid_end = 0
        while offset < len(raw):
            frame_end = self._read_journal_frame(raw, offset, health)
            if frame_end is None:
                break
            offset = frame_end
            valid_end = frame_end
        if valid_end >= len(raw):
            return
        torn = raw[valid_end:]
        quarantine = self.root / f"journal.torn-{valid_end:08d}"
        try:
            with open(self.journal_path, "r+b") as handle:
                handle.truncate(valid_end)
        except OSError:
            # Cannot repair in place: leave the file alone.  Appends
            # past the torn bytes would be unreachable, but the scan
            # above already treats everything past ``valid_end`` as
            # missing, so the affected episodes re-run — sound, merely
            # wasteful.
            return
        try:
            quarantine.write_bytes(torn)
        except OSError:
            pass  # the torn bytes are garbage; losing them is fine
        if health is not None:
            health.record(
                STAGE_EXEC, "checkpoint-salvaged",
                offset=valid_end,
                bytes_lost=len(torn),
                detail=(
                    f"journal tail torn at byte {valid_end}; recovered "
                    f"{len(self._entries)} entrie(s), quarantined "
                    f"{len(torn)} byte(s) to {quarantine.name}"
                ),
                benign=True,
            )

    def _read_journal_frame(
        self, raw: bytes, offset: int, health: TraceHealth | None
    ) -> int | None:
        """Consume one frame at ``offset``; None when the tail is torn.

        A frame whose envelope (magic, length, CRC) is intact but whose
        payload fails to decode — wrong format version, partial copy
        from another machine — is *skipped*, not treated as torn: the
        frames after it are still trustworthy, and the skipped episode
        re-runs (``checkpoint-entry-skipped``, benign).
        """
        header = raw[offset:offset + FRAME_HEADER.size]
        if len(header) < FRAME_HEADER.size:
            return None
        magic, length, crc = FRAME_HEADER.unpack(header)
        if magic != FRAME_MAGIC:
            return None
        start = offset + FRAME_HEADER.size
        payload = raw[start:start + length]
        if len(payload) < length or zlib.crc32(payload) != crc:
            return None
        try:
            entry = pickle.loads(payload)
            if entry.get("format") != FORMAT:
                raise ValueError(f"journal format {entry.get('format')}")
            self._entries[entry["task"]] = (
                entry["records"], entry["health"],
            )
        except Exception as exc:  # noqa: BLE001 - damaged entry == rerun
            if health is not None:
                health.record(
                    STAGE_EXEC, "checkpoint-entry-skipped",
                    offset=offset,
                    bytes_lost=FRAME_HEADER.size + length,
                    detail=f"CRC-valid journal entry failed to decode: {exc}",
                    benign=True,
                )
        return start + length

    # ------------------------------------------------------------------ #
    # Reads and writes                                                   #
    # ------------------------------------------------------------------ #
    @staticmethod
    def entry_name(task: TaskKey) -> str:
        return f"episode-{task:04d}"

    def write(
        self,
        task: TaskKey,
        records: list,
        health: Any,
        pcap_bytes: bytes | None,
    ) -> None:
        """Persist one completed episode (pcap first, journal append
        last — the frame is the completion marker).

        A filesystem failure anywhere in the sequence raises
        :class:`CheckpointWriteError`; the partial artifacts it leaves
        (a pcap without a frame, a torn frame tail) are exactly what
        the open-time salvage path repairs.
        """
        obs = get_obs()
        fs = get_checkpoint_fs()
        write_started = time.monotonic() if obs.enabled else 0.0
        name = self.entry_name(task)
        payload = pickle.dumps(
            {
                "format": FORMAT,
                "task": task,
                "records": records,
                "health": health,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        frame = FRAME_HEADER.pack(
            FRAME_MAGIC, len(payload), zlib.crc32(payload)
        ) + payload
        try:
            if pcap_bytes is not None:
                _atomic_write(self.episodes / f"{name}.pcap", pcap_bytes)
            with open(self.journal_path, "ab") as handle:
                fs.write(handle, frame, POINT_JOURNAL_APPEND)
                handle.flush()
                fsync_started = time.monotonic() if obs.enabled else 0.0
                fs.fsync(handle, POINT_JOURNAL_FSYNC)
                if obs.enabled:
                    obs.metrics.histogram(
                        "checkpoint.fsync_s", wall=True
                    ).observe(time.monotonic() - fsync_started)
        except OSError as exc:
            raise CheckpointWriteError(self.journal_path, exc) from exc
        self._entries[task] = (records, health)
        if obs.enabled:
            obs.metrics.counter("checkpoint.writes", wall=True).inc()
            obs.metrics.histogram("checkpoint.write_s", wall=True).observe(
                time.monotonic() - write_started
            )

    def load(self) -> dict[TaskKey, tuple[list, Any]]:
        """Every completed entry: ``{task: (records, health)}``.

        The journal was scanned (and its tail salvaged) when this
        instance was opened; a damaged entry is absent here, so the
        episode simply re-runs, which is always sound.
        """
        return dict(self._entries)


class GracefulShutdown:
    """Convert termination signals into a cooperative drain request.

    Used as a context manager around a pool run.  The first SIGINT or
    SIGTERM sets the drain flag (polled by
    :meth:`~repro.exec.pool.WorkPool.map` via :meth:`requested`); a
    second one restores the previous handlers and raises
    :class:`KeyboardInterrupt` immediately — the operator's escape
    hatch when draining itself wedges.

    ``install_signals=False`` gives a purely programmatic instance
    (tests, embedding apps, the chaos harness's drain fault class)
    driven via :meth:`request`.  Handlers are only ever installed from
    the main thread; elsewhere the instance degrades to programmatic
    mode.
    """

    def __init__(self, install_signals: bool = True) -> None:
        self._event = threading.Event()
        self._previous: dict[int, Any] = {}
        self._install = install_signals
        self.signals_installed = False

    def __enter__(self) -> "GracefulShutdown":
        if (
            self._install
            and threading.current_thread() is threading.main_thread()
        ):
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(
                        signum, self._handle
                    )
                except (ValueError, OSError):
                    continue
            self.signals_installed = bool(self._previous)
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                continue
        self._previous.clear()
        self.signals_installed = False

    def _handle(self, signum, frame) -> None:
        if self._event.is_set():
            self._restore()
            raise KeyboardInterrupt
        self._event.set()

    def request(self) -> None:
        """Programmatically request a drain (what a signal would do)."""
        self._event.set()

    def requested(self) -> bool:
        """True once a drain has been requested; the pool's poll hook."""
        return self._event.is_set()


def _manifest_bytes(manifest: dict) -> bytes:
    return json.dumps(
        manifest, indent=2, sort_keys=True, default=str
    ).encode() + b"\n"
