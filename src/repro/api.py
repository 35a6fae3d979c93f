"""The stable entry point: one facade over the whole T-DAT pipeline.

Everything the repo can do — analyze a capture, reconstruct BGP
streams, run a measurement campaign, serve analyses over HTTP — is
reachable through a :class:`Pipeline` that carries the execution knobs
(``workers``, ``strict``, ``streaming``, ``budget``, the pool's
supervision and ``obs``) once, instead of threading them through
every call::

    from repro.api import Pipeline

    pipe = Pipeline(workers=4)
    report = pipe.analyze("trace.pcap")
    result = pipe.campaign("ISP_A-Quagga", transfers=10)

A knob is declared once, on the :class:`Pipeline`; the methods take
only what names the work (a capture and its sniffer location, a
campaign and its size).  ``tdat`` builds one pipeline per command from
its flags.

The engine modules (``repro.analysis.tdat``, ``repro.workloads.campaign``,
``repro.tools.pcap2bgp``, ``repro.exec.pool``) stay importable for code
that needs the full surface; this facade is the supported subset whose
signatures will not churn.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from repro.analysis.budget import ResourceBudget
from repro.analysis.series import SNIFFER_AT_RECEIVER, SeriesConfig
from repro.analysis.tdat import (
    ConnectionAnalysis,
    TdatReport,
    analyze_pcap,
    iter_analyze_pcap,
)
from repro.core.health import TraceHealth
from repro.exec.pool import WorkPool, available_parallelism
from repro.obs import Observability, use_obs
from repro.tools.pcap2bgp import StreamResult, pcap_to_bgp
from repro.wire.pcap import PcapRecord
from repro.workloads.campaign import (
    CampaignConfig,
    CampaignResult,
    campaign_config,
    run_campaign,
)


@dataclass
class ServeRequest:
    """Run the analysis service (:mod:`repro.serve`).

    ``port=0`` binds an ephemeral port (the server's ``port`` attribute
    holds the real one after startup).  Every session the server
    creates defaults to ``sniffer_location`` and to the pipeline's own
    ``budget`` and ``strict``; a client can override all three per
    session in ``POST /sessions``.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    max_sessions: int = 64
    sniffer_location: str = SNIFFER_AT_RECEIVER
    trace_requests: bool = False
    drain_timeout: float = 30.0


@dataclass
class Pipeline:
    """Execution context shared by every call made through it.

    ``workers=0`` means "use every available CPU".  One
    :class:`~repro.exec.pool.WorkPool` is built lazily and reused, so a
    campaign and its follow-up analyses share worker processes.

    The supervision knobs flow into that pool: ``task_timeout`` bounds
    each task's execution wall clock (queue wait exempt), and
    ``max_retries`` re-runs transient failures (crashed workers,
    timeouts, retryable task errors) with the same seed.

    ``obs`` turns on observability for every analysis and campaign run
    through this pipeline: pass an :class:`~repro.obs.Observability`
    (to keep a handle on the tracer for exports), or simply
    ``obs=True`` to build a fresh one.  Campaign results then carry the
    merged metrics as ``result.metrics``, and ``pipeline.obs.tracer``
    holds the spans.  Left at ``None`` (the default), every
    instrumentation point in the engine dispatches through the shared
    no-op context.
    """

    workers: int = 1
    strict: bool = False
    streaming: bool = False
    budget: ResourceBudget | None = None
    task_timeout: float | None = None
    max_retries: int = 0
    obs: Observability | bool | None = None
    _pool: WorkPool | None = field(  # guarded-by: _pool_lock
        default=None, repr=False, compare=False
    )
    _pool_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    _pool_leased: bool = field(  # guarded-by: _pool_lock
        default=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.workers == 0:
            self.workers = available_parallelism()
        if self.obs is True:
            self.obs = Observability.create()
        elif self.obs is False:
            self.obs = None

    @property
    def pool(self) -> WorkPool:
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def _make_pool(self) -> WorkPool:
        return WorkPool(
            workers=self.workers,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
        )

    @contextmanager
    def _lease_pool(self):
        """Check the shared pool out for one call.

        A :class:`~repro.exec.pool.WorkPool` supervises one ``map`` at
        a time — its per-map stats and worker bookkeeping are not
        reentrant — so the lazily-built shared pool must never be
        handed to two overlapping calls.  The first concurrent caller
        leases the shared pool; everyone who finds it already leased
        gets a private pool for the duration of the call instead of
        racing one supervisor.  This is what lets server-driven
        analyses and direct ``analyze()`` calls overlap safely on one
        pipeline.
        """
        with self._pool_lock:
            shared = not self._pool_leased
            if shared:
                self._pool_leased = True
                if self._pool is None:
                    self._pool = self._make_pool()
                pool = self._pool
        if not shared:
            pool = self._make_pool()
        try:
            yield pool
        finally:
            if shared:
                with self._pool_lock:
                    self._pool_leased = False

    # ------------------------------------------------------------------ #
    # Analysis                                                           #
    # ------------------------------------------------------------------ #
    def analyze(
        self,
        source: BinaryIO | str | Path | list[PcapRecord],
        sniffer_location: str = SNIFFER_AT_RECEIVER,
    ) -> TdatReport:
        """Run T-DAT over every connection of a capture.

        The pipeline's observability context (if any) is ambient for
        the duration of the call.
        """
        with use_obs(self.obs or None), self._lease_pool() as pool:
            return analyze_pcap(
                source,
                sniffer_location=sniffer_location,
                strict=self.strict,
                streaming=self.streaming,
                pool=pool,
                budget=self.budget,
            )

    def iter_analyze(
        self,
        source: BinaryIO | str | Path | list[PcapRecord],
        sniffer_location: str = SNIFFER_AT_RECEIVER,
    ) -> Iterator[ConnectionAnalysis]:
        """Yield each connection's analysis as its flow closes."""
        return iter_analyze_pcap(
            source,
            sniffer_location=sniffer_location,
            strict=self.strict,
            budget=self.budget,
        )

    def extract_bgp(
        self, source: BinaryIO | str | Path | list[PcapRecord]
    ) -> dict[tuple, StreamResult]:
        """Reconstruct per-connection BGP message streams (pcap2bgp)."""
        return pcap_to_bgp(
            source, health=None if self.strict else TraceHealth()
        )

    # ------------------------------------------------------------------ #
    # The analysis service                                               #
    # ------------------------------------------------------------------ #
    def build_server(self, request: ServeRequest | None = None):
        """Construct (but do not run) an analysis service.

        The returned :class:`~repro.serve.AnalysisServer` hosts
        sessions whose defaults come from this pipeline (budget,
        strict); callers drive it themselves —
        ``await server.serve()`` inside a loop, or ``server.run()``
        to block.  The pipeline's observability context (or, absent
        one, a metrics-only server context backing ``/metrics``) is
        ambient while the server runs, so every session thread
        records into it.
        """
        from repro.serve import AnalysisServer, SessionManager
        from repro.serve.http import server_observability

        request = request if request is not None else ServeRequest()
        manager = SessionManager(
            max_sessions=request.max_sessions,
            budget=self.budget,
            sniffer_location=request.sniffer_location,
            strict=self.strict,
        )
        return AnalysisServer(
            manager,
            host=request.host,
            port=request.port,
            obs=self.obs or server_observability(),
            trace_requests=request.trace_requests,
            drain_timeout=request.drain_timeout,
        )

    def serve(self, request: ServeRequest | None = None, on_ready=None) -> bool:
        """Run the analysis service until it drains; blocking.

        Returns ``True`` when the drain was initiated by a signal
        (``tdat serve`` maps that to exit code 7), ``False`` for a
        programmatic ``POST /shutdown``.
        """
        return self.build_server(request).run(on_ready=on_ready)

    # ------------------------------------------------------------------ #
    # Campaigns                                                          #
    # ------------------------------------------------------------------ #
    def campaign(
        self,
        name_or_config: str | CampaignConfig,
        *,
        seed: int | None = None,
        transfers: int | None = None,
        overrides: dict[str, Any] | None = None,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
    ) -> CampaignResult:
        """Run a campaign by registry name or explicit config.

        ``seed`` and ``transfers`` replace the config's own when given,
        then ``overrides`` replaces any other config fields.  A name
        outside the registry raises :class:`ValueError`.  With
        ``checkpoint_dir`` completed episodes are journaled there, and
        ``resume=True`` skips the ones already journaled.
        """
        sized = {
            key: value
            for key, value in (("seed", seed), ("transfers", transfers))
            if value is not None
        }
        if isinstance(name_or_config, CampaignConfig):
            config = replace(name_or_config, **sized)
        else:
            config = campaign_config(name_or_config, **sized)
        if overrides:
            config = replace(config, **overrides)
        with use_obs(self.obs or None), self._lease_pool() as pool:
            return run_campaign(
                config,
                strict=self.strict,
                pool=pool,
                checkpoint_dir=checkpoint_dir,
                resume_from=checkpoint_dir if resume else None,
            )


__all__ = [
    "ServeRequest",
    "Pipeline",
    "TdatReport",
    "CampaignResult",
    "TraceHealth",
    "SeriesConfig",
    "ResourceBudget",
]
