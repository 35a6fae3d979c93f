"""Resource budgets for bounded-memory streaming analysis.

At collector scale a capture is effectively unbounded, yet the
per-connection accumulators the analyzer builds (packet timelines,
flights, ack-shift queues, ``TimeRangeSet``\\ s) grow with the trace.
This module makes that growth a managed quantity: a
:class:`ResourceBudget` declares limits, a :class:`StateLedger` meters
every packet the streaming ingest admits against them, and when a
watermark trips one deterministic eviction rule reclaims state —
**gracefully**, with a typed degradation trail instead of an OOM kill.

The rule: once usage reaches :data:`HIGH_WATERMARK` of a global limit,
the coldest connections are *finalized early* — each victim's report
is rendered from the partial state accumulated so far, then its state
is released — until usage is back at :data:`LOW_WATERMARK` of it.
Victims are chosen coldest-first: flows that have already closed
(waiting out their linger) before still-open flows, oldest
last-activity first.  When everything cold is gone and the budget is
still exceeded, the in-flight connection itself is capped as the last
resort (further packets shed, ``complete=False``).

Everything here is deterministic: decisions depend only on capture
timestamps and the admission order, never on wall clocks or host
memory probes, so a budgeted run is exactly reproducible — and
byte-identical to an unbudgeted run whenever the trace fits the
budget (the invariant the chaos ``analysis.memory-pressure`` fault
class and the hypothesis identity suite enforce).

Degradation is observable at every layer: benign
``analysis-state-evicted`` / ``analysis-connection-finalized-early`` /
``analysis-degraded`` issues in :class:`~repro.core.health.TraceHealth`,
a per-report :class:`DegradationSummary`, ``analysis.live_connections``
/ ``analysis.state_bytes`` gauges, an ``analysis.evictions`` counter
and an ``analysis.eviction`` span per reclaim round.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.health import STAGE_ANALYSIS, TraceHealth
from repro.obs import get_obs
from repro.wire.tcpw import FIN, RST

#: Fractions of a global limit: reclaiming starts once usage reaches
#: the high watermark and stops at the low one, so peak usage stays
#: below the configured ceiling rather than oscillating at it.
HIGH_WATERMARK = 0.9
LOW_WATERMARK = 0.7

#: Modeled bookkeeping cost of one tracked packet beyond its payload
#: (its ingest row, its entries in the connection's columns, and its
#: share of downstream accumulators).  A model, not a measurement:
#: the ledger must be deterministic across interpreters, so it charges
#: this constant rather than probing the allocator.
PACKET_STATE_BYTES = 160

# The ledger's own connection key: identical to
# repro.analysis.profile.FlowKey, re-declared locally so profile can
# import this module without a cycle.
_FlowKey = tuple[str, int, str, int]

_LIMITS = ("max_live_connections", "max_connection_packets", "max_state_bytes")


@dataclass(frozen=True)
class ResourceBudget:
    """Limits on the state a streaming analysis may hold live.

    Every limit is optional (``None`` = unlimited); a budget with no
    limit set is accepted but inert (``bounded`` is ``False``).
    ``max_live_connections`` and ``max_state_bytes`` are global and
    trip the eviction rule (see the module docstring);
    ``max_connection_packets`` caps each connection on its own.
    """

    max_live_connections: int | None = None
    max_connection_packets: int | None = None
    max_state_bytes: int | None = None

    def __post_init__(self) -> None:
        for name in _LIMITS:
            value = getattr(self, name)
            # Limits arrive from JSON session specs too: refuse floats
            # and booleans, which compare like numbers.
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )

    @property
    def bounded(self) -> bool:
        """True when at least one limit is actually set."""
        return any(getattr(self, name) is not None for name in _LIMITS)

    def describe(self) -> str:
        """Compact one-line form for logs and CLI stderr."""
        parts = []
        if self.max_live_connections is not None:
            parts.append(f"live<={self.max_live_connections}")
        if self.max_connection_packets is not None:
            parts.append(f"conn-packets<={self.max_connection_packets}")
        if self.max_state_bytes is not None:
            parts.append(f"state<={self.max_state_bytes}B")
        limits = ", ".join(parts) if parts else "unbounded"
        return (
            f"budget({limits}; watermarks {HIGH_WATERMARK:g}"
            f"/{LOW_WATERMARK:g})"
        )


@dataclass
class EvictionRecord:
    """One reclaim action: what was shed, when, why and how much."""

    kind: str  # "finalized-early" | "capped"
    key: _FlowKey
    policy: str  # "finalize-idle" or "connection-cap": the rule that acted
    timestamp_us: int  # capture time of the triggering packet
    reason: str
    state_bytes_reclaimed: int = 0  # live state released by the action
    packets_shed: int = 0  # packets refused after a connection cap
    bytes_shed: int = 0  # payload bytes those packets carried

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "key": list(self.key),
            "policy": self.policy,
            "timestamp_us": self.timestamp_us,
            "reason": self.reason,
            "state_bytes_reclaimed": self.state_bytes_reclaimed,
            "packets_shed": self.packets_shed,
            "bytes_shed": self.bytes_shed,
        }


@dataclass
class DegradationSummary:
    """Per-report account of everything a budget shed, and why.

    Attached to :class:`~repro.analysis.tdat.TdatReport.degradation`
    whenever a budget was in force — even when nothing degraded, so
    callers can distinguish "ran unbudgeted" from "ran budgeted and
    fit" (``degraded`` is ``False`` in the latter case).
    """

    budget: ResourceBudget
    evictions: list[EvictionRecord] = field(default_factory=list)
    watermark_trips: int = 0
    peak_live_connections: int = 0
    peak_state_bytes: int = 0

    @property
    def degraded(self) -> bool:
        """True when any state was actually shed."""
        return bool(self.evictions)

    @property
    def finalized_early(self) -> int:
        return sum(1 for e in self.evictions if e.kind == "finalized-early")

    @property
    def capped(self) -> int:
        return sum(1 for e in self.evictions if e.kind == "capped")

    @property
    def packets_shed(self) -> int:
        return sum(e.packets_shed for e in self.evictions)

    @property
    def bytes_shed(self) -> int:
        return sum(e.bytes_shed for e in self.evictions)

    def to_dict(self) -> dict:
        """JSON-friendly form (used by ``tdat analyze --json``)."""
        return {
            "degraded": self.degraded,
            "budget": self.budget.describe(),
            "watermark_trips": self.watermark_trips,
            "peak_live_connections": self.peak_live_connections,
            "peak_state_bytes": self.peak_state_bytes,
            "finalized_early": self.finalized_early,
            "capped": self.capped,
            "packets_shed": self.packets_shed,
            "bytes_shed": self.bytes_shed,
            "evictions": [e.to_dict() for e in self.evictions],
        }

    def summary(self) -> str:
        """Human-readable one-liner for CLI stderr."""
        if not self.degraded:
            return (
                f"budget: fit ({self.peak_live_connections} peak live "
                f"connections, {self.peak_state_bytes} peak state bytes)"
            )
        return (
            f"budget: degraded — {self.finalized_early} finalized early, "
            f"{self.capped} capped "
            f"({self.packets_shed} packets / {self.bytes_shed} bytes shed; "
            f"peak {self.peak_live_connections} live connections, "
            f"{self.peak_state_bytes} state bytes)"
        )


@dataclass
class _FlowCharge:
    """The ledger's per-connection meter."""

    state_bytes: int = 0
    packets: int = 0
    capped: bool = False
    cap_reason: str = ""
    record: EvictionRecord | None = None  # created on first shed packet


class StateLedger:
    """Meters streaming-ingest state against a :class:`ResourceBudget`.

    One ledger serves one analysis run.  The streaming ingest
    (:func:`~repro.analysis.profile.iter_connections`) consults it for
    every decoded packet (:meth:`admit`), asks it for eviction
    decisions after every admission (:meth:`plan_evictions`), releases
    state when flows finalize normally (:meth:`discharge`) and closes
    it out at end of trace (:meth:`finish`).  All decisions are pure
    functions of the packet stream, so budgeted runs are exactly
    reproducible.
    """

    def __init__(
        self, budget: ResourceBudget, health: TraceHealth | None = None
    ) -> None:
        self.budget = budget
        self.health = health if health is not None else TraceHealth()
        self.summary = DegradationSummary(budget=budget)
        self.state_bytes = 0
        self._flows: dict[_FlowKey, _FlowCharge] = {}
        self._last_ts_us = 0
        # Obs ground rule: resolve the ambient context once per
        # operation (one ledger = one analysis run), not per packet.
        self._obs = get_obs()

    @property
    def live_connections(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # Admission: per-packet metering and per-connection caps
    # ------------------------------------------------------------------
    def admit(
        self, key: _FlowKey, payload_len: int, flags: int, timestamp_us: int
    ) -> bool:
        """Charge one packet; ``False`` means the ingest must shed it.

        FIN/RST segments are always admitted — a capped connection must
        still be able to close, or it would pin its residual state until
        end of trace.  Data shed after a cap is aggregated into the
        connection's single :class:`EvictionRecord`, not recorded
        per-packet.
        """
        self._last_ts_us = timestamp_us
        charge = self._flows.get(key)
        if charge is None:
            charge = _FlowCharge()
            self._flows[key] = charge
        cost = PACKET_STATE_BYTES + payload_len
        is_close = bool(flags & (FIN | RST))
        if not charge.capped and not is_close:
            budget = self.budget
            if (
                budget.max_connection_packets is not None
                and charge.packets + 1 > budget.max_connection_packets
            ):
                charge.capped = True
                charge.cap_reason = (
                    f"connection packet cap "
                    f"({budget.max_connection_packets}) reached"
                )
        if charge.capped and not is_close:
            self._shed(key, charge, payload_len, timestamp_us)
            return False
        charge.packets += 1
        charge.state_bytes += cost
        self.state_bytes += cost
        if self.live_connections > self.summary.peak_live_connections:
            self.summary.peak_live_connections = self.live_connections
        if self.state_bytes > self.summary.peak_state_bytes:
            self.summary.peak_state_bytes = self.state_bytes
        if self._obs.enabled:
            metrics = self._obs.metrics
            metrics.gauge("analysis.live_connections").set(
                self.live_connections
            )
            metrics.gauge("analysis.state_bytes").set(self.state_bytes)
        return True

    def _shed(
        self,
        key: _FlowKey,
        charge: _FlowCharge,
        payload_len: int,
        timestamp_us: int,
    ) -> None:
        """Account one packet refused by a capped connection."""
        if charge.record is None:
            charge.record = EvictionRecord(
                kind="capped",
                key=key,
                policy="connection-cap",
                timestamp_us=timestamp_us,
                reason=charge.cap_reason,
            )
            self.summary.evictions.append(charge.record)
            self.health.record(
                STAGE_ANALYSIS, "analysis-state-evicted",
                timestamp_us=timestamp_us,
                detail=f"{key}: {charge.cap_reason}; shedding further data",
                benign=True,
            )
            if self._obs.enabled:
                self._obs.metrics.counter("analysis.evictions").inc()
        charge.record.packets_shed += 1
        charge.record.bytes_shed += payload_len

    # ------------------------------------------------------------------
    # Global watermarks: eviction planning
    # ------------------------------------------------------------------
    def _over_low(self) -> bool:
        budget = self.budget
        if (
            budget.max_live_connections is not None
            and self.live_connections
            > LOW_WATERMARK * budget.max_live_connections
        ):
            return True
        return (
            budget.max_state_bytes is not None
            and self.state_bytes > LOW_WATERMARK * budget.max_state_bytes
        )

    def plan_evictions(
        self, open_flows: dict, current_key: _FlowKey, now_us: int
    ) -> list[_FlowKey]:
        """Decide what to reclaim after an admission; empty when under.

        ``open_flows`` is the ingest's live-flow table (read-only here:
        only ``closable`` and ``last_ts_us`` are consulted); the caller
        finalizes the returned victims early, while this method
        releases the ledger-side state and records the degradation
        trail.  The connection that just received a packet
        (``current_key``) is never a victim: evicting it would only
        resurrect it on its next packet.  Victim order is deterministic
        — closed-but-lingering flows first, then coldest
        ``last_ts_us``, key as tiebreak.
        """
        budget = self.budget
        reasons = []
        if (
            budget.max_live_connections is not None
            and self.live_connections
            >= HIGH_WATERMARK * budget.max_live_connections
        ):
            reasons.append(
                f"live connections {self.live_connections} reached "
                f"{HIGH_WATERMARK:g}*{budget.max_live_connections}"
            )
        if (
            budget.max_state_bytes is not None
            and self.state_bytes >= HIGH_WATERMARK * budget.max_state_bytes
        ):
            reasons.append(
                f"state {self.state_bytes}B reached "
                f"{HIGH_WATERMARK:g}*{budget.max_state_bytes}B"
            )
        if not reasons:
            return []
        reason = "high watermark: " + "; ".join(reasons)
        self.summary.watermark_trips += 1
        candidates = sorted(
            (k for k in open_flows if k != current_key),
            key=lambda k: (
                not open_flows[k].closable, open_flows[k].last_ts_us, k,
            ),
        )
        victims: list[_FlowKey] = []
        with self._obs.tracer.span(
            "analysis.eviction", cat="analysis", args={"reason": reason}
        ):
            for victim in candidates:
                if not self._over_low():
                    break
                charge = self._flows.pop(victim, None)
                reclaimed = charge.state_bytes if charge else 0
                self.state_bytes -= reclaimed
                self.summary.evictions.append(EvictionRecord(
                    kind="finalized-early",
                    key=victim,
                    policy="finalize-idle",
                    timestamp_us=now_us,
                    reason=reason,
                    state_bytes_reclaimed=reclaimed,
                ))
                self.health.record(
                    STAGE_ANALYSIS, "analysis-connection-finalized-early",
                    timestamp_us=now_us,
                    detail=f"{victim}: {reason}",
                    benign=True,
                )
                victims.append(victim)
            if self._over_low():
                # Everything cold is gone and the budget is still
                # exceeded: the in-flight connection dominates.  Cap it
                # (the last resort) so its next data packet starts
                # shedding instead of growing state.
                charge = self._flows.get(current_key)
                if charge is not None and not charge.capped:
                    charge.capped = True
                    charge.cap_reason = f"memory pressure: {reason}"
            if self._obs.enabled:
                metrics = self._obs.metrics
                metrics.counter("analysis.evictions").inc(len(victims))
                metrics.gauge("analysis.live_connections").set(
                    self.live_connections
                )
                metrics.gauge("analysis.state_bytes").set(self.state_bytes)
        return victims

    # ------------------------------------------------------------------
    # Normal release and end of trace
    # ------------------------------------------------------------------
    def discharge(self, key: _FlowKey) -> None:
        """Release a flow that finalized normally (close or EOF)."""
        charge = self._flows.pop(key, None)
        if charge is not None:
            self.state_bytes -= charge.state_bytes
            if self._obs.enabled:
                metrics = self._obs.metrics
                metrics.gauge("analysis.live_connections").set(
                    self.live_connections
                )
                metrics.gauge("analysis.state_bytes").set(self.state_bytes)

    def finish(self) -> None:
        """Close out the run: record the single degradation marker."""
        if self.summary.degraded:
            self.health.record(
                STAGE_ANALYSIS, "analysis-degraded",
                timestamp_us=self._last_ts_us,
                detail=self.summary.summary(),
                benign=True,
            )
