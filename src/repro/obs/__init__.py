"""``repro.obs`` — observability for the whole pipeline.

Zero-dependency metrics, span tracing and profiling hooks: the
measurement substrate every layer of the reproduction reports into —
simulator event counts, work-pool queueing, pcap ingest volumes,
per-stage analysis timings, campaign episode lifecycles.

Quick start::

    from repro.api import Pipeline
    from repro.obs import Observability

    obs = Observability.create()
    result = Pipeline(workers=4, obs=obs).campaign("RV", transfers=8)
    print(result.metrics.to_dict())          # merged campaign metrics
    obs.tracer.write_chrome("trace.json")    # open in ui.perfetto.dev

Or from the command line::

    tdat campaign RV --trace-out trace.json --metrics-out metrics.json
    tdat stats metrics.json

See ``docs/observability.md`` for the metric catalog, the span
hierarchy, and the "disabled costs ~nothing" contract.
"""

from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import (
    Observability,
    ObsExport,
    get_obs,
    reset_worker_obs,
    use_obs,
)
from repro.obs.trace import CLOCK_SIM

__all__ = [
    "CLOCK_SIM",
    "MetricsRegistry",
    "ObsExport",
    "Observability",
    "get_obs",
    "reset_worker_obs",
    "use_obs",
]
