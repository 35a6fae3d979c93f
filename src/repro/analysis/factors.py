"""Delay-factor classification: series -> ratio vectors (paper III-D).

Eight conclusive series become the delay *factors*; each factor's delay
ratio is its series size over the analysis period.  Factors roll up
into the Sender / Receiver / Network groups via set union (so
overlapping factor periods are not double counted), yielding the
compact 3-vector ``(Rs, Rr, Rn)`` the paper scatter-plots in Figure 14.
A group is a *major* factor when its ratio exceeds the 0.3 threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.series import ConnectionSeries
from repro.core.events import EventSeries

MAJOR_THRESHOLD = 0.3

#: factor name -> (series name, group) in paper order.
FACTORS: dict[str, tuple[str, str]] = {
    "bgp_sender_app": ("SendAppLimited", "sender"),
    "tcp_congestion_window": ("CwdBndOut", "sender"),
    "sender_local_loss": ("SendLocalLoss", "sender"),
    "bgp_receiver_app": ("SmallAdvBndOut", "receiver"),
    "tcp_advertised_window": ("TcpAdvBndOut", "receiver"),
    "receiver_local_loss": ("RecvLocalLoss", "receiver"),
    "bandwidth_limited": ("BandwidthLimited", "network"),
    "network_packet_loss": ("NetworkLoss", "network"),
}

GROUPS = ("sender", "receiver", "network")


@dataclass
class FactorReport:
    """Raw 8-vector, grouped 3-vector and derived verdicts."""

    analysis_period_us: int
    ratios: dict[str, float]
    group_ratios: dict[str, float]
    factor_sizes_us: dict[str, int]

    @property
    def vector(self) -> tuple[float, ...]:
        """The raw ratio 8-vector in canonical factor order."""
        return tuple(self.ratios[name] for name in FACTORS)

    @property
    def group_vector(self) -> tuple[float, float, float]:
        """(Rs, Rr, Rn)."""
        return (
            self.group_ratios["sender"],
            self.group_ratios["receiver"],
            self.group_ratios["network"],
        )

    def major_groups(self, threshold: float = MAJOR_THRESHOLD) -> list[str]:
        """Groups whose delay ratio exceeds the threshold."""
        return [g for g in GROUPS if self.group_ratios[g] > threshold]

    def dominant_factor(self, group: str) -> str | None:
        """The largest individual factor within ``group``, if any."""
        candidates = [
            (self.ratios[name], name)
            for name, (_, g) in FACTORS.items()
            if g == group and self.ratios[name] > 0
        ]
        if not candidates:
            return None
        return max(candidates)[1]

    def major_factors(
        self, threshold: float = MAJOR_THRESHOLD
    ) -> dict[str, str]:
        """For each major group, its dominant individual factor."""
        result = {}
        for group in self.major_groups(threshold):
            factor = self.dominant_factor(group)
            if factor is not None:
                result[group] = factor
        return result


def classify(series: ConnectionSeries, exclude=None) -> FactorReport:
    """Compute the delay-factor report for one connection's series.

    ``exclude`` (a :class:`~repro.core.timeranges.TimeRangeSet`) removes
    capture-void periods from both the factor series and the analysis
    period, per the paper's section II-A exclusion rule.
    """
    period = series.window.duration
    if exclude is not None:
        period -= exclude.clip(series.window.start, series.window.end).size()
        period = max(period, 1)
    ratios: dict[str, float] = {}
    sizes: dict[str, int] = {}
    group_members: dict[str, list[EventSeries]] = {g: [] for g in GROUPS}
    for factor_name, (series_name, group) in FACTORS.items():
        member = series.catalog.get_or_empty(series_name).clip(
            series.window.start, series.window.end
        )
        if exclude is not None:
            member = member.difference(
                EventSeries("excluded", exclude), name=member.name
            )
        sizes[factor_name] = member.size()
        ratios[factor_name] = member.delay_ratio(period)
        group_members[group].append(member)
    group_ratios = {}
    for group, members in group_members.items():
        if members:
            union = members[0].union(*members[1:], name=f"group-{group}")
        else:
            union = EventSeries(f"group-{group}")
        group_ratios[group] = union.delay_ratio(period)
    return FactorReport(
        analysis_period_us=period,
        ratios=ratios,
        group_ratios=group_ratios,
        factor_sizes_us=sizes,
    )
