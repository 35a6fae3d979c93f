"""``repro.serve``: T-DAT as a long-running analysis service.

The subsystem the ROADMAP's "T-DAT as a service" item asks for: a
zero-dependency asyncio HTTP/1.1 server
(:class:`~repro.serve.http.AnalysisServer`) over a registry of
long-running analysis sessions
(:class:`~repro.serve.session.SessionManager`).  Clients create a
session, push pcap bytes in chunks, and read factor-attribution
reports and :class:`~repro.core.health.TraceHealth` snapshots while
ingest is still running — each response carries a strong ETag derived
from the deterministic state digest, so unchanged state revalidates as
``304 Not Modified``.

Entry points:

* ``tdat serve`` — the CLI front end with graceful signal drain;
* :meth:`repro.api.Pipeline.serve` / ``build_server`` — the library
  facade (``ServeRequest`` carries the knobs);
* this package directly, for tests and embedding.

See ``docs/service.md`` for the endpoint and caching contract.
"""

from repro.serve.http import AnalysisServer
from repro.serve.session import SessionManager

__all__ = ["AnalysisServer", "SessionManager"]
