"""The asyncio HTTP/1.1 front end of the analysis service.

Stdlib only, matching the repo's no-dependency contract: one
``asyncio.start_server`` acceptor, a hand-rolled HTTP/1.1 parser
(request line + headers + ``Content-Length`` body, keep-alive), and a
route table over the :class:`~repro.serve.session.SessionManager`.

The event loop never blocks on analysis state: uploads feed the
session's byte pipe on executor threads (so feeder backpressure stalls
the uploading client, not the server), and report/health snapshots are
rendered on executor threads under the session lock.  Concurrent
readers are cheap by construction — the renderer caches the rendered
body per state version, and a reader presenting the current ETag in
``If-None-Match`` gets ``304 Not Modified`` without any rendering at
all.

Shutdown mirrors the checkpoint journal's two-signal discipline
(:class:`~repro.workloads.checkpoint.GracefulShutdown`): the first
SIGINT/SIGTERM stops accepting connections, EOFs every live session
and waits for their analysis threads to drain; a second signal aborts
the wait and tears sessions down immediately.

## Endpoints

========================================  =======================================
``POST /sessions``                        create a session (JSON: budget, sniffer_location, strict)
``GET /sessions``                         list session statuses
``GET /sessions/<id>``                    one session's status
``POST /sessions/<id>/pcap``              upload a chunk of pcap bytes
``POST /sessions/<id>/finish[?wait=1]``   end of upload (optionally wait for drain)
``GET /sessions/<id>/report``             current report (strong ETag, 304-capable)
``GET /sessions/<id>/health``             current TraceHealth (same contract)
``DELETE /sessions/<id>``                 abort and remove a session
``GET /metrics``                          the server's own metrics snapshot
``GET /healthz``                          liveness probe
``POST /shutdown``                        request a graceful drain
========================================  =======================================

A session's ``budget`` takes exactly the three limits of
:class:`~repro.analysis.budget.ResourceBudget`:
``max_live_connections``, ``max_state_bytes`` and
``max_connection_packets``.  Any other key, or a limit that is not an
integer >= 1, is ``400 bad budget`` and creates no session.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Any, Callable

from repro.analysis.budget import ResourceBudget
from repro.analysis.tdat import check_sniffer_location
from repro.obs import Observability, get_obs, use_obs
from repro.serve.session import ServeError, SessionManager

#: largest accepted request body (one upload chunk, not the whole pcap)
MAX_BODY_BYTES = 64 * 1024 * 1024
_MAX_HEADER_BYTES = 16 * 1024

_REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def server_observability() -> Observability:
    """A metrics-only live context sized for a long-running server.

    ``Observability.create()`` pairs the registry with a tracer that
    retains every span for the process lifetime — right for one
    campaign, unbounded for a server that analyzes forever.  The
    server default is live metrics behind ``/metrics`` plus the no-op
    tracer; opt into a real tracer (and ``trace_requests``) only for
    short diagnostic runs.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import NULL_TRACER

    return Observability(
        metrics=MetricsRegistry(), tracer=NULL_TRACER, enabled=True
    )


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        query: dict[str, str],
        headers: dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


class _BadRequest(Exception):
    pass


async def _read_request(reader: asyncio.StreamReader) -> _Request | None:
    """Parse one request off the connection; ``None`` at clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, asyncio.LimitOverrunError):
        return None
    if not line:
        return None
    if len(line) > _MAX_HEADER_BYTES:
        raise _BadRequest("request line too long")
    try:
        method, target, version = line.decode("latin-1").split(None, 2)
    except ValueError:
        raise _BadRequest(f"malformed request line: {line!r}")
    version = version.strip()
    if not version.startswith("HTTP/1."):
        raise _BadRequest(f"unsupported protocol: {version}")
    headers: dict[str, str] = {}
    total = len(line)
    while True:
        line = await reader.readline()
        total += len(line)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("headers too long")
        if line in (b"\r\n", b"\n", b""):
            break
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length", "0")
    try:
        body_len = int(length)
    except ValueError:
        raise _BadRequest(f"bad Content-Length: {length!r}")
    if body_len < 0 or body_len > MAX_BODY_BYTES:
        raise _BadRequest(f"body too large: {body_len} bytes")
    body = await reader.readexactly(body_len) if body_len else b""
    path, _, query_string = target.partition("?")
    query: dict[str, str] = {}
    for pair in query_string.split("&"):
        if pair:
            key, _, value = pair.partition("=")
            query[key] = value
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and version != "HTTP/1.0"
    return _Request(method.upper(), path, query, headers, body, keep_alive)


def _json_body(payload: dict | list) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _etag_matches(header: str, etag: str) -> bool:
    """RFC 7232 ``If-None-Match``: ``*`` or any listed tag matches."""
    if header.strip() == "*":
        return True
    candidates = [tag.strip() for tag in header.split(",")]
    # Weak-comparison: a client echoing W/"..." still revalidates.
    stripped = [
        tag[2:] if tag.startswith("W/") else tag for tag in candidates
    ]
    return etag in stripped


class AnalysisServer:
    """The long-running analysis service: sessions behind HTTP/1.1."""

    def __init__(
        self,
        manager: SessionManager | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 8321,
        obs: Observability | None = None,
        trace_requests: bool = False,
        drain_timeout: float = 30.0,
    ) -> None:
        self.manager = manager if manager is not None else SessionManager()
        self.host = host
        self.port = port
        self.drain_timeout = drain_timeout
        # A tracer accumulates spans unboundedly, so per-request spans
        # stay opt-in.  An explicit context is installed as the ambient
        # one for the duration of serve() — the session analysis
        # threads read the same global slot.
        self._installed_obs = obs
        self._obs = obs if obs is not None else get_obs()
        self._trace_requests = trace_requests
        self._server: asyncio.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._drain_requested: asyncio.Event | None = None
        self._hard_stop = False
        self._signaled = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting; ``self.port`` becomes the real port."""
        self._loop = asyncio.get_running_loop()
        self._drain_requested = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def drain(self) -> bool:
        """Stop accepting and flush every live session."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._hard_stop:
            for session in self.manager.sessions():
                session.abort()
            return False
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, self.manager.drain, self.drain_timeout
        )

    def request_shutdown(self) -> None:
        """Ask the serving loop to drain (thread/signal safe to call)."""
        event = self._drain_requested
        if event is None:
            return
        loop = self._loop
        if loop is not None and not loop.is_closed():
            # asyncio.Event is not thread-safe; hop onto the loop.
            try:
                loop.call_soon_threadsafe(event.set)
                return
            except RuntimeError:
                pass  # loop already shut down between the checks
        event.set()

    def _on_signal(self) -> None:
        if self._signaled:
            # Second signal: stop waiting for sessions, abort them.
            self._hard_stop = True
        self._signaled = True
        self.request_shutdown()

    async def serve(
        self, on_ready: Callable[[str, int], None] | None = None
    ) -> bool:
        """Bind, announce, serve until a drain is requested.

        Returns ``True`` when the drain was initiated by a signal (the
        CLI maps that to its drained exit code), ``False`` for a
        programmatic shutdown (``POST /shutdown`` /
        :meth:`request_shutdown`).
        """
        await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._on_signal)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread or platform without support
        try:
            with use_obs(self._installed_obs):
                if on_ready is not None:
                    on_ready(self.host, self.port)
                assert self._drain_requested is not None
                await self._drain_requested.wait()
                await self.drain()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
        return self._signaled

    def run(
        self, on_ready: Callable[[str, int], None] | None = None
    ) -> bool:
        """Blocking entry point; returns :meth:`serve`'s drained-by-signal flag.

        Bind failures (port in use, bad address) surface as ``OSError``
        for the CLI's guarded-call discipline to turn into a one-line
        error.
        """
        return asyncio.run(self.serve(on_ready=on_ready))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    await self._respond(
                        writer, 400, body=_json_body({"error": str(exc)})
                    )
                    break
                if request is None:
                    break
                status = await self._dispatch_and_respond(writer, request)
                if status is None or not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_and_respond(
        self, writer: asyncio.StreamWriter, request: _Request
    ) -> int | None:
        started = time.monotonic()
        try:
            if self._trace_requests:
                with self._obs.tracer.span(
                    "serve.request", cat="serve",
                    args={"method": request.method, "path": request.path},
                ):
                    status, body, headers = await self._route(request)
            else:
                status, body, headers = await self._route(request)
        except ServeError as exc:
            status, body, headers = (
                exc.status, _json_body({"error": str(exc)}), {}
            )
        except Exception as exc:  # a handler bug must not kill the server
            status = 500
            body = _json_body({"error": f"{type(exc).__name__}: {exc}"})
            headers = {}
        metrics = self._obs.metrics
        metrics.counter("serve.requests", wall=True).inc()
        metrics.histogram("serve.request_s", wall=True).observe(
            time.monotonic() - started
        )
        if status >= 500:
            metrics.counter("serve.errors", wall=True).inc()
        await self._respond(writer, status, body=body, headers=headers)
        return status

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        *,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        out_headers = {"Content-Type": "application/json"}
        out_headers.update(headers or {})
        # 304 and 204 must not carry a body.
        if status in (204, 304):
            body = b""
            out_headers.pop("Content-Type", None)
        out_headers["Content-Length"] = str(len(body))
        for name, value in out_headers.items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode())
        if body:
            writer.write(body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, request: _Request
    ) -> tuple[int, bytes, dict[str, str]]:
        parts = [p for p in request.path.split("/") if p]
        method = request.method
        if parts == ["healthz"] and method == "GET":
            return 200, _json_body({"status": "ok"}), {}
        if parts == ["metrics"] and method == "GET":
            return 200, _json_body(self._obs.metrics.to_dict()), {}
        if parts == ["shutdown"] and method == "POST":
            self.request_shutdown()
            return 202, _json_body({"status": "draining"}), {}
        if parts and parts[0] == "sessions":
            return await self._route_sessions(request, parts[1:])
        return 404, _json_body({"error": f"no such path: {request.path}"}), {}

    async def _route_sessions(
        self, request: _Request, rest: list[str]
    ) -> tuple[int, bytes, dict[str, str]]:
        method = request.method
        loop = asyncio.get_running_loop()
        if not rest:
            if method == "POST":
                return self._create_session(request)
            if method == "GET":
                statuses = [s.status() for s in self.manager.sessions()]
                statuses.sort(key=lambda s: s["id"])
                return 200, _json_body({"sessions": statuses}), {}
            return 405, _json_body({"error": f"{method} not allowed"}), {}
        session = self.manager.get(rest[0])
        tail = rest[1:]
        if not tail:
            if method == "GET":
                return 200, _json_body(session.status()), {}
            if method == "DELETE":
                self.manager.remove(session.id)
                return 204, b"", {}
            return 405, _json_body({"error": f"{method} not allowed"}), {}
        action = tail[0]
        if len(tail) > 1:
            raise ServeError(404, f"no such path: {request.path}")
        if action == "pcap" and method == "POST":
            # feed() may block on backpressure: executor, not the loop.
            total = await loop.run_in_executor(
                None, session.feed, request.body
            )
            self._obs.metrics.counter("serve.bytes_in", wall=True).inc(
                len(request.body)
            )
            return 202, _json_body(
                {"received": len(request.body), "total": total}
            ), {}
        if action == "finish" and method == "POST":
            session.finish()
            if request.query.get("wait") in ("1", "true"):
                await loop.run_in_executor(
                    None, session.wait, self.drain_timeout
                )
            return 200, _json_body(session.status()), {}
        if action == "report" and method == "GET":
            snapshot = await loop.run_in_executor(
                None, session.snapshot_report
            )
            return self._conditional(request, *snapshot)
        if action == "health" and method == "GET":
            snapshot = await loop.run_in_executor(
                None, session.snapshot_health
            )
            return self._conditional(request, *snapshot)
        raise ServeError(404, f"no such path: {request.path}")

    def _create_session(
        self, request: _Request
    ) -> tuple[int, bytes, dict[str, str]]:
        overrides: dict[str, Any] = {}
        if request.body:
            try:
                spec = json.loads(request.body)
            except ValueError as exc:
                raise ServeError(400, f"bad session spec: {exc}")
            if not isinstance(spec, dict):
                raise ServeError(400, "session spec must be a JSON object")
            budget_spec = spec.pop("budget", None)
            if budget_spec is not None:
                try:
                    overrides["budget"] = ResourceBudget(**budget_spec)
                except (TypeError, ValueError) as exc:
                    raise ServeError(400, f"bad budget: {exc}")
            unknown = set(spec) - {"sniffer_location", "strict"}
            if unknown:
                raise ServeError(
                    400, f"unknown session options: {sorted(unknown)}"
                )
            if "sniffer_location" in spec:
                try:
                    check_sniffer_location(spec["sniffer_location"])
                except ValueError as exc:
                    raise ServeError(400, f"bad session spec: {exc}")
            if not isinstance(spec.get("strict", False), bool):
                raise ServeError(
                    400, "bad session spec: strict must be true or false"
                )
            overrides.update(spec)
        session = self.manager.create(**overrides)
        return 201, _json_body(session.status()), {}

    def _conditional(
        self, request: _Request, etag: str, body: bytes
    ) -> tuple[int, bytes, dict[str, str]]:
        headers = {"ETag": etag, "Cache-Control": "no-cache"}
        match = request.headers.get("if-none-match")
        if match is not None and _etag_matches(match, etag):
            self._obs.metrics.counter("serve.cache_hits", wall=True).inc()
            return 304, b"", headers
        return 200, body, headers


__all__ = ["AnalysisServer", "MAX_BODY_BYTES"]
