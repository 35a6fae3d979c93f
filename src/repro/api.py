"""The stable entry point: one facade over the whole T-DAT pipeline.

Everything the repo can do — analyze a capture, reconstruct BGP
streams, run a measurement campaign — is reachable through a
:class:`Pipeline` carrying the execution knobs (``workers``,
``strict``, ``streaming``, ``seed``) once, instead of threading them
through every call::

    from repro.api import Pipeline

    pipe = Pipeline(workers=4)
    report = pipe.analyze("trace.pcap")
    result = pipe.campaign("ISP_A-Quagga", transfers=10)

Requests can also be built as data and executed later (the CLI and the
benchmark harness do this)::

    from repro.api import AnalysisRequest, CampaignRequest, Pipeline

    req = CampaignRequest(name="RV", transfers=8, seed=3)
    result = Pipeline(workers=2).run(req)

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
from repro.analysis.profile import FlowKey
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
class AnalysisRequest:
    """One capture to analyze, plus the knobs that shape the run.

    ``budget`` bounds the live analysis state
    (:class:`~repro.analysis.budget.ResourceBudget`).  For ``strict``,
    ``streaming``, ``workers`` and ``budget``, ``None`` inherits the
    :class:`Pipeline` default.
    """

    source: BinaryIO | str | Path | list[PcapRecord]
    sniffer_location: str = SNIFFER_AT_RECEIVER
    windows: dict[FlowKey, tuple[int, int]] | None = None
    config: SeriesConfig | None = None
    min_data_packets: int = 2
    strict: bool | None = None  # None → inherit from the Pipeline
    streaming: bool | None = None
    workers: int | None = None
    budget: ResourceBudget | None = None


@dataclass
class CampaignRequest:
    """One campaign to run: a registry name or an explicit config."""

    name: str | None = None
    config: CampaignConfig | None = None
    seed: int | None = None
    transfers: int | None = None
    strict: bool | None = None
    workers: int | None = None
    overrides: dict[str, Any] = field(default_factory=dict)
    # Supervision: journal completed episodes under ``checkpoint_dir``
    # and, with ``resume=True``, skip the ones already journaled there.
    checkpoint_dir: str | Path | None = None
    resume: bool = False

    def resolve(self) -> CampaignConfig:
        """Build the concrete :class:`CampaignConfig` this request names."""
        if (self.name is None) == (self.config is None):
            raise ValueError(
                "CampaignRequest needs exactly one of `name` or `config`"
            )
        if self.config is not None:
            config = self.config
            if self.seed is not None or self.transfers is not None:
                changes = {}
                if self.seed is not None:
                    changes["seed"] = self.seed
                if self.transfers is not None:
                    changes["transfers"] = self.transfers
                config = replace(config, **changes)
        else:
            kwargs: dict[str, Any] = {}
            if self.seed is not None:
                kwargs["seed"] = self.seed
            if self.transfers is not None:
                kwargs["transfers"] = self.transfers
            config = campaign_config(self.name, **kwargs)
        if self.overrides:
            config = replace(config, **self.overrides)
        return config


@dataclass
class ServeRequest:
    """Run the analysis service (:mod:`repro.serve`).

    ``port=0`` binds an ephemeral port (the server's ``port`` attribute
    holds the real one after startup).  ``budget``/``strict`` default
    to the pipeline's own knobs and become the default for every
    session the server creates; a client can still override both per
    session in ``POST /sessions``.
    """

    host: str = "127.0.0.1"
    port: int = 8321
    max_sessions: int = 64
    sniffer_location: str = SNIFFER_AT_RECEIVER
    min_data_packets: int = 2
    strict: bool | None = None  # None → inherit from the Pipeline
    budget: ResourceBudget | None = None
    trace_requests: bool = False
    drain_timeout: float = 30.0


@dataclass
class Pipeline:
    """Execution context shared by every request run through it.

    ``workers=0`` means "use every available CPU".  One
    :class:`~repro.exec.pool.WorkPool` is built lazily and reused, so a
    campaign and its follow-up analyses share worker processes.

    The supervision knobs flow into that pool: ``task_timeout`` bounds
    each task's execution wall clock (queue wait exempt),
    ``max_retries`` re-runs transient failures (crashed workers,
    timeouts, retryable task errors) with the same seed, and
    ``checkpoint_dir`` journals completed campaign episodes so an
    interrupted run can be resumed (see :class:`CampaignRequest.resume`).

    ``obs`` turns on observability for every request run through this
    pipeline: pass an :class:`~repro.obs.Observability` (to keep a
    handle on the tracer for exports), or simply ``obs=True`` to build
    a fresh one.  Campaign results then carry the merged metrics as
    ``result.metrics``, and ``pipeline.obs.tracer`` holds the spans.
    Left at ``None`` (the default), every instrumentation point in the
    engine dispatches through the shared no-op context.
    """

    workers: int = 1
    strict: bool = False
    streaming: bool = False
    budget: ResourceBudget | None = None
    seed: int | None = None
    task_timeout: float | None = None
    max_retries: int = 0
    checkpoint_dir: str | Path | None = None
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
                self._pool = self._make_pool(self.workers)
            return self._pool

    def _make_pool(self, workers: int) -> WorkPool:
        return WorkPool(
            workers=workers,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
        )

    @contextmanager
    def _lease_pool(self, workers: int):
        """Check the shared pool out for one request.

        A :class:`~repro.exec.pool.WorkPool` supervises one ``map`` at
        a time — its per-map stats and worker bookkeeping are not
        reentrant — so the lazily-built shared pool must never be
        handed to two overlapping requests.  The first concurrent
        caller (and any request overriding ``workers``) leases the
        shared pool; everyone who finds it already leased gets a
        private pool for the duration of the call instead of racing
        one supervisor.  This is what lets server-driven analyses and
        direct ``analyze()`` calls overlap safely on one pipeline.
        """
        with self._pool_lock:
            shared = workers == self.workers and not self._pool_leased
            if shared:
                self._pool_leased = True
                if self._pool is None:
                    self._pool = self._make_pool(self.workers)
                pool = self._pool
        if not shared:
            pool = self._make_pool(workers)
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
        **knobs,
    ) -> TdatReport:
        """Run T-DAT over every connection of a capture."""
        return self.run(AnalysisRequest(source=source, **knobs))

    def iter_analyze(
        self,
        source: BinaryIO | str | Path | list[PcapRecord],
        **knobs,
    ) -> Iterator[ConnectionAnalysis]:
        """Yield each connection's analysis as its flow closes."""
        request = AnalysisRequest(source=source, **knobs)
        return iter_analyze_pcap(
            request.source,
            sniffer_location=request.sniffer_location,
            windows=request.windows,
            config=request.config,
            min_data_packets=request.min_data_packets,
            strict=self._knob(request.strict, self.strict),
            budget=self._knob(request.budget, self.budget),
        )

    def extract_bgp(
        self,
        source: BinaryIO | str | Path | list[PcapRecord],
        min_data_packets: int = 1,
        health: TraceHealth | None = None,
    ) -> dict[tuple, StreamResult]:
        """Reconstruct per-connection BGP message streams (pcap2bgp)."""
        if health is None and not self.strict:
            health = TraceHealth()
        return pcap_to_bgp(
            source, min_data_packets=min_data_packets, health=health
        )

    # ------------------------------------------------------------------ #
    # The analysis service                                               #
    # ------------------------------------------------------------------ #
    def build_server(self, request: ServeRequest | None = None, **knobs):
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

        if request is None:
            request = ServeRequest(**knobs)
        elif knobs:
            request = replace(request, **knobs)
        obs = self.obs or server_observability()
        manager = SessionManager(
            max_sessions=request.max_sessions,
            budget=self._knob(request.budget, self.budget),
            sniffer_location=request.sniffer_location,
            min_data_packets=request.min_data_packets,
            strict=self._knob(request.strict, self.strict),
        )
        return AnalysisServer(
            manager,
            host=request.host,
            port=request.port,
            obs=obs,
            trace_requests=request.trace_requests,
            drain_timeout=request.drain_timeout,
        )

    def serve(
        self,
        request: ServeRequest | None = None,
        on_ready=None,
        **knobs,
    ) -> bool:
        """Run the analysis service until it drains; blocking.

        Returns ``True`` when the drain was initiated by a signal
        (``tdat serve`` maps that to exit code 7), ``False`` for a
        programmatic ``POST /shutdown``.
        """
        return self.build_server(request, **knobs).run(on_ready=on_ready)

    # ------------------------------------------------------------------ #
    # Campaigns                                                          #
    # ------------------------------------------------------------------ #
    def campaign(
        self,
        name_or_config: str | CampaignConfig,
        **knobs,
    ) -> CampaignResult:
        """Run a campaign by registry name or explicit config."""
        if isinstance(name_or_config, CampaignConfig):
            request = CampaignRequest(config=name_or_config, **knobs)
        else:
            request = CampaignRequest(name=name_or_config, **knobs)
        return self.run(request)

    # ------------------------------------------------------------------ #
    # Dispatch                                                           #
    # ------------------------------------------------------------------ #
    def run(self, request: AnalysisRequest | CampaignRequest | ServeRequest):
        """Execute a request built elsewhere (CLI, benchmarks, tests).

        The pipeline's observability context (if any) is ambient for
        the duration of the request, so every engine layer it touches
        records into the same registry and tracer.
        """
        with use_obs(self.obs or None):
            if isinstance(request, AnalysisRequest):
                workers = self._knob(request.workers, self.workers)
                with self._lease_pool(workers) as pool:
                    return analyze_pcap(
                        request.source,
                        sniffer_location=request.sniffer_location,
                        windows=request.windows,
                        config=request.config,
                        min_data_packets=request.min_data_packets,
                        strict=self._knob(request.strict, self.strict),
                        streaming=self._knob(
                            request.streaming, self.streaming
                        ),
                        pool=pool,
                        budget=self._knob(request.budget, self.budget),
                    )
            if isinstance(request, CampaignRequest):
                if request.seed is None and self.seed is not None:
                    request = replace(request, seed=self.seed)
                workers = self._knob(request.workers, self.workers)
                checkpoint_dir = self._knob(
                    request.checkpoint_dir, self.checkpoint_dir
                )
                with self._lease_pool(workers) as pool:
                    return run_campaign(
                        request.resolve(),
                        strict=self._knob(request.strict, self.strict),
                        pool=pool,
                        checkpoint_dir=checkpoint_dir,
                        resume_from=checkpoint_dir if request.resume else None,
                    )
            if isinstance(request, ServeRequest):
                return self.serve(request)
        raise TypeError(f"not a pipeline request: {request!r}")

    @staticmethod
    def _knob(value, default):
        return default if value is None else value


__all__ = [
    "AnalysisRequest",
    "CampaignRequest",
    "ServeRequest",
    "Pipeline",
    "TdatReport",
    "CampaignResult",
    "TraceHealth",
    "SeriesConfig",
    "ResourceBudget",
]
