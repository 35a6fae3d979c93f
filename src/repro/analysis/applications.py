"""Downstream applications of the event series (paper section V-D).

The paper argues T-DAT's series make other TCP analyses easier than raw
traces:

* Qian et al. extract *flow clocks* — non-RTT application timers — which
  are concealed by RTT except while the connection is application
  limited.  That is the timer-gap detector
  (:func:`~repro.analysis.detectors.detect_timer_gaps`), which runs
  directly on the ``SendAppLimited`` series; every report carries its
  result as ``timer_gaps``.
* Jaiswal et al. infer the *TCP flavour* by comparing outstanding data
  against a projected congestion window, which is only meaningful while
  the connection is congestion-window bounded: :func:`infer_tcp_flavor`
  reasons over the loss labels and the outstanding step function, on a
  :class:`~repro.analysis.series.ConnectionSeries` bundle, exactly the
  hand-off the paper proposes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.labeling import LabelingResult
from repro.analysis.profile import Connection
from repro.analysis.series import ConnectionSeries

FLAVOR_TAHOE = "tahoe"
FLAVOR_RENO = "reno"
FLAVOR_NEWRENO = "newreno"
FLAVOR_UNKNOWN = "unknown"


@dataclass
class FlavorReport:
    """An inferred TCP congestion-control flavour."""

    flavor: str
    confidence: float = 0.0
    fast_recovery_events: int = 0
    collapse_events: int = 0
    evidence: list[str] = field(default_factory=list)


def infer_tcp_flavor(
    connection: Connection,
    series: ConnectionSeries,
) -> FlavorReport:
    """Guess Tahoe / Reno / NewReno from post-loss window behaviour.

    * After a dupack-triggered retransmission, Tahoe collapses its
      window to one segment (the next flight is tiny); Reno and NewReno
      halve it (the next flight is roughly half the pre-loss flight).
    * Within a multi-hole recovery, NewReno retransmits the next hole
      on each partial ACK (spacing ~ RTT); Reno needs a fresh dupack
      burst or a timeout per hole (spacing >> RTT).

    Returns :data:`FLAVOR_UNKNOWN` when no loss episode gives evidence —
    flavour is only observable under congestion, as Jaiswal et al. note.
    """
    labeling = series.labeling
    rtt = max(series.rtt_us, 1_000)
    retx = [
        l for l in labeling.retransmissions() if l.trigger_time_us is not None
    ]
    if not retx:
        return FlavorReport(flavor=FLAVOR_UNKNOWN, evidence=["no losses"])

    fast_events = 0
    collapse_events = 0
    halved_events = 0
    evidence: list[str] = []
    outstanding = series.outstanding

    clusters = _cluster_retransmissions(retx, gap_us=8 * rtt)
    newreno_votes = 0
    reno_votes = 0
    for cluster in clusters:
        first = cluster[0]
        sent_us = first.timestamp_us
        silence = sent_us - first.trigger_time_us
        is_timeout = silence > 3 * rtt + 200_000
        if is_timeout:
            continue  # RTO recovery says nothing about fast-recovery flavour
        fast_events += 1
        before = outstanding.value_at(sent_us - 1)
        recovery_end = max(
            (l.recovery_time_us or sent_us) for l in cluster
        )
        # Only the FIRST flight after recovery reflects the collapsed /
        # halved window; any longer horizon sees slow-start regrowth.
        after = _post_recovery_peak(
            outstanding, recovery_end, int(1.5 * rtt), before, series.mss
        )
        if before > 0 and after is not None:
            ratio = after / before
            # A collapse is a ratio far below one half — or an
            # absolutely tiny restart window when the pre-loss window
            # was big enough for the distinction to be meaningful.
            tiny_restart = (
                after <= 2.5 * series.mss and before >= 5 * series.mss
            )
            if ratio < 0.25 or tiny_restart:
                collapse_events += 1
                evidence.append(f"post-loss window ratio {ratio:.2f} (collapse)")
            elif ratio < 0.8:
                halved_events += 1
                evidence.append(f"post-loss window ratio {ratio:.2f} (halved)")
        # Multi-hole recovery spacing.
        distinct = _distinct_seq_retx_times(cluster, connection)
        if len(distinct) >= 2:
            spacings = [b - a for a, b in zip(distinct, distinct[1:])]
            median = sorted(spacings)[len(spacings) // 2]
            if median <= 3 * rtt:
                newreno_votes += 1
                evidence.append(f"hole spacing {median / 1000:.1f}ms (~RTT)")
            else:
                reno_votes += 1
                evidence.append(f"hole spacing {median / 1000:.1f}ms (>>RTT)")

    if fast_events == 0:
        return FlavorReport(
            flavor=FLAVOR_UNKNOWN,
            evidence=evidence + ["only timeout recoveries observed"],
        )
    if collapse_events > halved_events:
        flavor = FLAVOR_TAHOE
        confidence = collapse_events / fast_events
    elif newreno_votes >= reno_votes and newreno_votes > 0:
        flavor = FLAVOR_NEWRENO
        confidence = newreno_votes / max(newreno_votes + reno_votes, 1)
    elif reno_votes > 0:
        flavor = FLAVOR_RENO
        confidence = reno_votes / max(newreno_votes + reno_votes, 1)
    else:
        # Halving observed but no multi-hole evidence: Reno-family.
        flavor = FLAVOR_NEWRENO if halved_events else FLAVOR_UNKNOWN
        confidence = 0.5 if halved_events else 0.0
    return FlavorReport(
        flavor=flavor,
        confidence=confidence,
        fast_recovery_events=fast_events,
        collapse_events=collapse_events,
        evidence=evidence,
    )


def _cluster_retransmissions(retx, gap_us: int):
    """Group retransmissions separated by less than ``gap_us``."""
    clusters = []
    current = [retx[0]]
    for label in retx[1:]:
        if label.timestamp_us - current[-1].timestamp_us <= gap_us:
            current.append(label)
        else:
            clusters.append(current)
            current = [label]
    clusters.append(current)
    return clusters


def _post_recovery_peak(
    outstanding, recovery_us: int, horizon_us: int, before: int, mss: int
) -> int | None:
    """Peak of the first flight *after* the recovery ACK took effect.

    Samples are skipped until the outstanding level drops near zero —
    partial-ACK plateaus of the *old* flight must not count — then the
    peak of what follows is the sender's fresh window: collapsed for
    Tahoe, roughly halved for the Reno family.
    """
    drop_level = max(2 * mss, round(before * 0.15))
    seen_drop = False
    peak: int | None = None
    for t, v in outstanding.samples():
        if t <= recovery_us:
            continue
        if t > recovery_us + horizon_us:
            break
        if not seen_drop:
            if v <= drop_level:
                seen_drop = True
            continue
        peak = v if peak is None else max(peak, v)
    return peak


def _distinct_seq_retx_times(cluster, connection: Connection) -> list[int]:
    """First retransmission time of each distinct segment in a cluster."""
    seen: dict[int, int] = {}
    seqs = connection.data.seq
    for label in cluster:
        seen.setdefault(seqs[label.position], label.timestamp_us)
    return sorted(seen.values())
