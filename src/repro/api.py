"""The stable entry point: one facade over the whole T-DAT pipeline.

Everything the repo can do — analyze a capture, reconstruct BGP
streams, run a measurement campaign, serve analyses over HTTP — is
reachable through a :class:`Pipeline` that carries the execution knobs
(``strict``, ``streaming`` and ``budget`` for analysis; ``workers`` and
the pool's supervision for campaigns; ``obs`` for both) once, instead
of threading them through every call::

    from repro.api import Pipeline

    pipe = Pipeline(workers=4)
    report = pipe.analyze("trace.pcap")  # serial, in-process
    result = pipe.campaign("ISP_A-Quagga", transfers=10)  # 4 processes

A knob is declared once, on the :class:`Pipeline`; the methods take
only what names the work (a capture and its sniffer location, a
campaign and its size).  ``tdat`` builds one pipeline per command from
its flags.

The engine modules (``repro.analysis.tdat``, ``repro.workloads.campaign``,
``repro.tools.pcap2bgp``, ``repro.exec.pool``) stay importable for code
that needs the full surface; this facade is the supported subset whose
signatures will not churn.

Importing this module loads the analysis engine only.  The campaign
runner with its simulator and work pool, pcap2bgp and the service load
on the first call that runs them, so an analysis never pays for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Iterator

from repro.analysis.budget import ResourceBudget, StateLedger
from repro.analysis.series import SNIFFER_AT_RECEIVER, SeriesConfig
from repro.analysis.tdat import (
    ConnectionAnalysis,
    TdatReport,
    analyze_pcap,
    iter_analyze_pcap,
)
from repro.core.health import TraceHealth
from repro.obs import Observability, use_obs
from repro.wire.pcap import PcapRecord

if TYPE_CHECKING:
    from repro.tools.pcap2bgp import StreamResult
    from repro.workloads.campaign import CampaignConfig, CampaignResult


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

    Analysis runs serially in-process; ``streaming`` and ``budget``
    are its only run knobs.  ``workers``, ``task_timeout`` and
    ``max_retries`` configure the :class:`~repro.exec.pool.WorkPool`
    each :meth:`campaign` call builds for its episodes: ``workers=0``
    means "use every available CPU", ``task_timeout`` bounds each
    episode's execution wall clock (queue wait exempt), and
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

    def __post_init__(self) -> None:
        if self.workers == 0:
            from repro.exec.pool import available_parallelism

            self.workers = available_parallelism()
        if self.obs is True:
            self.obs = Observability.create()
        elif self.obs is False:
            self.obs = None

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
        with use_obs(self.obs or None):
            return analyze_pcap(
                source,
                sniffer_location=sniffer_location,
                strict=self.strict,
                streaming=self.streaming,
                budget=self.budget,
            )

    def iter_analyze(
        self,
        source: BinaryIO | str | Path | list[PcapRecord],
        sniffer_location: str = SNIFFER_AT_RECEIVER,
    ) -> Iterator[ConnectionAnalysis]:
        """Yield each connection's analysis as its flow closes.

        The pipeline's observability context (if any) is ambient while
        the analysis advances; the caller's own context is back in place
        at each yield and after ``close()``.
        """
        bounded = self.budget is not None and self.budget.bounded
        analyses = iter_analyze_pcap(
            source,
            sniffer_location=sniffer_location,
            strict=self.strict,
            ledger=StateLedger(self.budget) if bounded else None,
        )
        return _advanced_under(self.obs or None, analyses)

    def extract_bgp(
        self, source: BinaryIO | str | Path | list[PcapRecord]
    ) -> dict[tuple, StreamResult]:
        """Reconstruct per-connection BGP message streams (pcap2bgp)."""
        from repro.tools.pcap2bgp import pcap_to_bgp

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
        ``resume=True`` skips the ones already journaled (without a
        ``checkpoint_dir`` it raises :class:`ValueError`).
        """
        from repro.exec.pool import WorkPool
        from repro.workloads.campaign import (
            CampaignConfig,
            campaign_config,
            run_campaign,
        )

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
        pool = WorkPool(
            workers=self.workers,
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
        )
        with use_obs(self.obs or None):
            return run_campaign(
                config,
                strict=self.strict,
                pool=pool,
                checkpoint_dir=checkpoint_dir,
                resume=resume,
            )


def _advanced_under(
    obs: Observability | None, analyses: Iterator[ConnectionAnalysis]
) -> Iterator[ConnectionAnalysis]:
    """``analyses``, each step (and the final close) run under ``obs``."""
    try:
        while True:
            with use_obs(obs):
                analysis = next(analyses, None)
            if analysis is None:
                return
            yield analysis
    finally:
        with use_obs(obs):
            analyses.close()


__all__ = [
    "ServeRequest",
    "Pipeline",
    "TdatReport",
    "TraceHealth",
    "SeriesConfig",
    "ResourceBudget",
]
