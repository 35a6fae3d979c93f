"""Long-running analysis sessions: push-fed, budget-bounded, snapshot-read.

The streaming analyzer (:func:`~repro.analysis.tdat.iter_analyze_pcap`)
is a *pull* pipeline: it reads bytes from a file-like source and yields
one :class:`~repro.analysis.tdat.ConnectionAnalysis` as each flow
closes.  An HTTP service is the opposite shape — clients *push* pcap
bytes in whatever chunks the network hands them, and readers ask for
the current report at arbitrary moments.  This module bridges the two:

* :class:`ChunkFeeder` is the byte pipe.  The HTTP layer appends
  uploaded chunks; a per-session analysis thread blocks in
  ``read(n)`` exactly like a file, with bounded buffering so a client
  that uploads faster than analysis drains gets backpressure instead
  of unbounded growth.
* :class:`AnalysisSession` owns one analysis run: the feeder, the
  daemon thread driving ``iter_analyze_pcap`` over it, the shared
  :class:`~repro.core.health.TraceHealth`, the optional
  :class:`~repro.analysis.budget.StateLedger`, and the
  :class:`~repro.analysis.render.ReportRenderer` that turns the
  accumulated state into ETag-tagged snapshots.  One RLock makes every
  reader-visible mutation atomic, so a snapshot taken mid-upload is
  internally consistent — the health ledger it renders matches the
  connections it renders.
* :class:`SessionManager` is the server's registry: deterministic ids,
  a session cap, and the drain discipline graceful shutdown needs
  (EOF every feeder, join every thread, keep the final snapshots
  readable).

Nothing here imports asyncio: sessions are plain threads + locks, and
the HTTP layer (:mod:`repro.serve.http`) hops the blocking calls onto
executor threads.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Iterable

from repro.analysis.budget import ResourceBudget, StateLedger
from repro.analysis.render import ReportRenderer
from repro.analysis.series import SNIFFER_AT_RECEIVER
from repro.analysis.tdat import iter_analyze_pcap
from repro.core.health import TraceHealth
from repro.obs import get_obs


class ServeError(Exception):
    """An operational service error with an HTTP status to report."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class SessionAborted(Exception):
    """Raised inside the analysis thread when a session is torn down."""


class ChunkFeeder:
    """A blocking byte pipe with file ``read(n)`` semantics.

    Producers call :meth:`feed` (blocking once ``max_buffered`` bytes
    are queued — backpressure, not growth), :meth:`close` at end of
    stream, or :meth:`abort` to tear the session down.  The consumer —
    the pcap reader inside the analysis thread — calls :meth:`read`,
    which blocks until it can return exactly ``n`` bytes, or fewer
    only at EOF; ``n`` of ``None`` or below zero reads to EOF.  That
    exact-read contract is what the streaming
    :class:`~repro.wire.pcap.PcapReader` relies on to distinguish
    "more bytes coming" from "capture truncated".

    A read costs O(n) plus O(1) per chunk it touches, whatever the
    chunk size: it copies its bytes out of the head chunk at a read
    offset and never re-slices the chunk's remainder.
    """

    def __init__(self, max_buffered: int = 8 * 1024 * 1024) -> None:
        self.max_buffered = max_buffered
        self.bytes_fed = 0  # guarded-by: _cond
        self._chunks: deque[bytes] = deque()  # guarded-by: _cond
        self._offset = 0  # guarded-by: _cond
        self._buffered = 0  # guarded-by: _cond
        self._eof = False  # guarded-by: _cond
        self._abort_reason: str | None = None  # guarded-by: _cond
        self._cond = threading.Condition()

    def feed(self, data: bytes) -> None:
        """Append a chunk; blocks while the buffer is full."""
        if not data:
            return
        with self._cond:
            if self._eof:
                raise ServeError(409, "session already finished")
            while (
                self._buffered >= self.max_buffered
                and self._abort_reason is None
            ):
                self._cond.wait()
            if self._abort_reason is not None:
                raise ServeError(409, "session aborted")
            self._chunks.append(bytes(data))
            self._buffered += len(data)
            self.bytes_fed += len(data)
            self._cond.notify_all()

    def close(self) -> None:
        """Signal end of stream; idempotent."""
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def abort(self, reason: str = "session deleted") -> None:
        """Tear the pipe down: readers raise, writers unblock."""
        with self._cond:
            self._abort_reason = reason
            self._eof = True
            self._cond.notify_all()

    def read(self, n: int | None = -1) -> bytes:
        """Return exactly ``n`` bytes, or fewer only at end of stream."""
        if n is None or n < 0:
            return self._read_all()
        pieces = []
        need = n
        with self._cond:
            while need:
                if self._abort_reason is not None:
                    raise SessionAborted(self._abort_reason)
                if not self._chunks:
                    if self._eof:
                        break
                    self._cond.wait()
                    continue
                chunk = self._chunks[0]
                start = self._offset
                end = start + need
                if end >= len(chunk):
                    end = len(chunk)
                    self._chunks.popleft()
                    self._offset = 0
                else:
                    self._offset = end
                pieces.append(chunk[start:end])
                need -= end - start
                if self._buffered >= self.max_buffered:
                    # Only a full buffer can have blocked a producer.
                    self._cond.notify_all()
                self._buffered -= end - start
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def _read_all(self) -> bytes:
        out = bytearray()
        while True:
            piece = self.read(65536)
            if not piece:
                return bytes(out)
            out += piece


class _SharedHealth(TraceHealth):
    """A :class:`TraceHealth` whose mutations take the session lock.

    The analysis thread records issues between yields — outside any
    renderer call — while readers snapshot ``to_dict()`` concurrently.
    Serializing :meth:`record` against the same RLock the renderer
    uses makes every snapshot internally consistent.  The lock must be
    re-entrant: recording past the issue cap re-enters ``record`` for
    the overflow marker.
    """

    def __init__(self, lock: threading.RLock, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._lock = lock

    def record(self, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            return super().record(*args, **kwargs)

    def merge(self, other: TraceHealth) -> None:
        with self._lock:
            super().merge(other)


class AnalysisSession:
    """One push-fed analysis run and its snapshot state.

    Lifecycle: ``open`` (accepting bytes) → ``finishing`` (EOF
    received, analyzer draining the tail) → ``done`` | ``failed``.
    All reader-visible state — the renderer, the health ledger, the
    lifecycle fields — mutates only under :attr:`lock`.
    """

    def __init__(
        self,
        session_id: str,
        *,
        budget: ResourceBudget | None = None,
        sniffer_location: str = SNIFFER_AT_RECEIVER,
        min_data_packets: int = 2,
        strict: bool = False,
    ) -> None:
        self.id = session_id
        self.lock = threading.RLock()
        self.budget = budget
        health = _SharedHealth(self.lock, strict=strict)
        self._ledger = (
            StateLedger(budget, health=health)
            if budget is not None and budget.bounded
            else None
        )
        self.renderer = ReportRenderer(  # guarded-by: lock
            health=health,
            degradation=self._ledger.summary if self._ledger else None,
        )
        self.feeder = ChunkFeeder()
        self.state = "open"  # guarded-by: lock
        self.error: str | None = None  # guarded-by: lock
        self._strict = strict
        self._kwargs = dict(
            sniffer_location=sniffer_location,
            min_data_packets=min_data_packets,
        )
        self._thread = threading.Thread(
            target=self._run, name=f"serve-{session_id}", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # The analysis thread
    # ------------------------------------------------------------------
    def _run(self) -> None:
        try:
            stream = iter_analyze_pcap(
                self.feeder,
                strict=self._strict,
                health=self.renderer.health,
                ledger=self._ledger,
                **self._kwargs,
            )
            for analysis in stream:
                with self.lock:
                    self.renderer.add(analysis)
        except SessionAborted:
            with self.lock:
                self.state = "failed"
                self.error = "aborted"
            return
        except Exception as exc:  # surfaced to clients, never raised here
            with self.lock:
                self.state = "failed"
                self.error = f"{type(exc).__name__}: {exc}"
            return
        with self.lock:
            self.renderer.finish()
            self.state = "done"

    # ------------------------------------------------------------------
    # Producer API (called from HTTP executor threads)
    # ------------------------------------------------------------------
    def feed(self, data: bytes) -> int:
        """Append uploaded bytes; returns the session's running total."""
        # The state read must hold the lock (RL009): a torn read
        # against the analysis thread's failure transition could admit
        # bytes into an already-failed session.
        with self.lock:
            state = self.state
        if state not in ("open",):
            raise ServeError(409, f"session {self.id} is {state}")
        self.feeder.feed(data)
        return self.feeder.bytes_fed

    def finish(self) -> None:
        """End of upload: EOF the feeder and let the tail drain."""
        with self.lock:
            if self.state == "open":
                self.state = "finishing"
        self.feeder.close()

    def wait(self, timeout: float | None = None) -> bool:
        """Join the analysis thread; True when it has fully drained."""
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def abort(self) -> None:
        """Tear the session down without waiting for a clean drain."""
        self.feeder.abort()
        self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    # Reader API
    # ------------------------------------------------------------------
    def snapshot_report(self) -> tuple[str, bytes]:
        with self.lock:
            return self.renderer.render_report()

    def snapshot_health(self) -> tuple[str, bytes]:
        with self.lock:
            return self.renderer.render_health()

    def status(self) -> dict[str, Any]:
        with self.lock:
            status: dict[str, Any] = {
                "id": self.id,
                "state": self.state,
                "bytes_received": self.feeder.bytes_fed,
                "connections": len(self.renderer.connections()),
                "records_read": self.renderer.health.records_read,
            }
            if self.budget is not None:
                status["budget"] = self.budget.describe()
            if self.renderer.degradation is not None:
                status["degraded"] = self.renderer.degradation.degraded
            if self.error is not None:
                status["error"] = self.error
            return status


class SessionManager:
    """The server's session registry, cap, and drain discipline."""

    def __init__(self, max_sessions: int = 64, **session_defaults: Any) -> None:
        self.max_sessions = max_sessions
        self.session_defaults = session_defaults
        self._sessions: dict[str, AnalysisSession] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self._counter = 0  # guarded-by: _lock
        self._draining = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    def create(self, **overrides: Any) -> AnalysisSession:
        kwargs = {**self.session_defaults, **overrides}
        with self._lock:
            if self._draining:
                raise ServeError(503, "server is draining")
            live = [
                s for s in self._sessions.values()
                if s.state in ("open", "finishing")
            ]
            if len(live) >= self.max_sessions:
                raise ServeError(
                    429, f"session limit reached ({self.max_sessions})"
                )
            self._counter += 1
            session_id = f"s{self._counter:04d}"
            session = AnalysisSession(session_id, **kwargs)
            self._sessions[session_id] = session
        # Resolved per create, not cached at construction: the manager
        # is typically built before the server installs its ambient
        # context, and session creation is far from a hot loop.
        obs = get_obs()
        obs.metrics.counter("serve.sessions", wall=True).inc()
        obs.metrics.gauge("serve.active_sessions", wall=True).set(
            len(live) + 1
        )
        return session

    def get(self, session_id: str) -> AnalysisSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServeError(404, f"no such session: {session_id}")
        return session

    def remove(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise ServeError(404, f"no such session: {session_id}")
        session.abort()

    def sessions(self) -> Iterable[AnalysisSession]:
        with self._lock:
            return list(self._sessions.values())

    # ------------------------------------------------------------------
    def drain(self, timeout: float | None = 30.0) -> bool:
        """Graceful shutdown: EOF every feeder, join every thread.

        Completed snapshots stay readable afterwards; returns True when
        every session drained inside the timeout.
        """
        with self._lock:
            self._draining = True
            sessions = list(self._sessions.values())
        for session in sessions:
            session.finish()
        drained = True
        for session in sessions:
            drained = session.wait(timeout) and drained
        return drained


__all__ = [
    "AnalysisSession",
    "ChunkFeeder",
    "ServeError",
    "SessionAborted",
    "SessionManager",
]
