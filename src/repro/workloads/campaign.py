"""Measurement campaigns: the repo's stand-ins for the paper's traces.

Three campaigns mirror Table I of the paper:

* ``ISP_A-Vendor`` — iBGP routers monitored by a vendor looking-glass
  (no MRT archive; transfer extents recovered via ``pcap2bgp`` + MCT,
  as the paper does for vendor traces);
* ``ISP_A-Quagga`` — iBGP routers monitored by a Quagga collector with
  an MRT archive (MCT runs on the archive);
* ``RV`` — RouteViews-style eBGP peers across the Internet: larger and
  more diverse RTTs, a 16 KB maximum advertised window, and TCP stacks
  that back off aggressively after timeouts.

Each campaign draws per-transfer conditions (sender model, loss,
collector load, table size) from a seeded mixture so the population
exhibits the heterogeneity behind the paper's Figures 3, 4, 14, 16 and
Tables II, IV, V, while every run stays exactly reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.detectors import (
    ConsecutiveLossReport,
    PeerGroupBlockingReport,
    TimerGapReport,
    ZeroAckBugReport,
    detect_long_keepalive_pauses,
    detect_peer_group_blocking,
)
from repro.analysis.factors import FactorReport
from repro.analysis.mct import TableTransfer, minimum_collection_time
from repro.analysis.profile import canonical_key
from repro.analysis.tdat import ConnectionAnalysis, analyze_pcap
from repro.bgp.collector import CollectorCpu, QuaggaCollector, VendorCollector
from repro.bgp.messages import UpdateMessage
from repro.bgp.peer_group import PeerGroup
from repro.bgp.sender_models import RateLimitedSender, TimerBatchSender
from repro.bgp.table import Rib, generate_table
from repro.core.health import STAGE_EXEC, TraceHealth
from repro.core.units import seconds
from repro.exec.pool import (
    TIMEOUT_KIND,
    PoolInterrupted,
    TransientTaskError,
    WorkPool,
    task_attempt,
    task_context,
)
from repro.netsim.link import BernoulliLoss, WindowLoss
from repro.netsim.random import RandomStreams
from repro.netsim.simulator import Simulator
from repro.obs import MetricsRegistry, Observability, ObsExport, get_obs, use_obs
from repro.tcp.options import TcpConfig
from repro.tools.pcap2bgp import pcap_to_bgp
from repro.wire.pcap import write_pcap
from repro.workloads.checkpoint import (
    CampaignInterrupted,
    CampaignJournal,
    CheckpointWriteError,
    GracefulShutdown,
)
from repro.workloads.scenarios import MonitoringSetup, RouterParams

# Pathology labels (ground truth, recorded per transfer).
CLEAN = "clean"
TIMER = "timer"
RATE_LIMITED = "rate-limited"
UPSTREAM_LOSS = "upstream-loss"
DOWNSTREAM_LOSS = "downstream-loss"
LOADED_COLLECTOR = "loaded-collector"
ZERO_ACK_BUG = "zero-ack-bug"
PEER_GROUP = "peer-group"

#: the paper's observed timer values (section IV-B, Figure 17), in ms.
KNOWN_TIMERS_MS = (80, 100, 200, 400)

#: Simulation watchdog: the most events one ``Simulator.run`` of an
#: episode may execute.  A pathological scenario that would spin
#: forever raises :class:`~repro.netsim.simulator.SimBudgetExceeded`
#: instead, which the campaign accounts as a ``sim-budget-exceeded``
#: health issue rather than hanging the pool.  Event counts are
#: deterministic; the largest normal episode runs under 40,000.
EPISODE_EVENT_BUDGET = 5_000_000


@dataclass
class TransferRecord:
    """One analyzed table transfer of a campaign."""

    campaign: str
    router: str
    episode: int
    trigger: str  # "sender" | "receiver"
    pathology: str
    table_prefixes: int
    wire_bytes: int
    data_packets: int
    rtt_us: int
    duration_us: int
    mct_ended_by: str
    concurrency: int
    true_timer_us: int | None
    factors: FactorReport
    timer: TimerGapReport
    consecutive: ConsecutiveLossReport
    zero_bug: ZeroAckBugReport
    keepalive_pause: PeerGroupBlockingReport | None = None
    # The cross-connection rule's verdict; peer-group episodes only.
    peer_group: PeerGroupBlockingReport | None = None

    @property
    def duration_s(self) -> float:
        return self.duration_us / 1e6

    def to_dict(self) -> dict:
        """JSON-friendly form, stable across execution backends.

        This is the byte-identity witness: serializing the records of a
        serial and a parallel campaign run must produce equal JSON.  A
        ``peer_group`` entry appears only on a peer-group record.
        """
        payload = {
            "campaign": self.campaign,
            "router": self.router,
            "episode": self.episode,
            "trigger": self.trigger,
            "pathology": self.pathology,
            "table_prefixes": self.table_prefixes,
            "wire_bytes": self.wire_bytes,
            "data_packets": self.data_packets,
            "rtt_us": self.rtt_us,
            "duration_us": self.duration_us,
            "mct_ended_by": self.mct_ended_by,
            "concurrency": self.concurrency,
            "true_timer_us": self.true_timer_us,
            "factors": {
                "analysis_period_us": self.factors.analysis_period_us,
                "ratios": dict(self.factors.ratios),
                "group_ratios": dict(self.factors.group_ratios),
                "major_factors": self.factors.major_factors(),
            },
            "timer": {
                "detected": self.timer.detected,
                "timer_us": self.timer.timer_us,
                "gap_count": self.timer.gap_count,
                "induced_delay_us": self.timer.induced_delay_us,
            },
            "consecutive": {
                "detected": self.consecutive.detected,
                "episodes": self.consecutive.episodes,
                "worst_run": self.consecutive.worst_run,
                "induced_delay_us": self.consecutive.induced_delay_us,
            },
            "zero_bug": {
                "detected": self.zero_bug.detected,
                "occurrences": self.zero_bug.occurrences,
                "induced_delay_us": self.zero_bug.induced_delay_us,
            },
            "keepalive_pause": (
                {
                    "detected": self.keepalive_pause.detected,
                    "induced_delay_us": self.keepalive_pause.induced_delay_us,
                }
                if self.keepalive_pause is not None
                else None
            ),
        }
        if self.peer_group is not None:
            payload["peer_group"] = {
                "detected": self.peer_group.detected,
                "blocked_ranges": [
                    [r.start, r.end] for r in self.peer_group.blocked_ranges
                ],
                "induced_delay_us": self.peer_group.induced_delay_us,
            }
        return payload


@dataclass
class CampaignResult:
    """All transfers of one campaign plus aggregate statistics."""

    name: str
    collector_kind: str
    records: list[TransferRecord] = field(default_factory=list)
    total_packets: int = 0
    total_bytes: int = 0
    routers: int = 0
    health: TraceHealth = field(default_factory=TraceHealth)
    # The campaign-level metrics snapshot (None when observability was
    # disabled).  Deliberately NOT part of to_dict(): the serialized
    # result is the serial/parallel byte-identity witness, and wall
    # metrics legitimately differ between runs.  Use
    # ``metrics.to_dict(deterministic_only=True)`` for the view that IS
    # identical across worker counts.
    metrics: MetricsRegistry | None = field(default=None, repr=False)

    def durations_s(self) -> list[float]:
        return sorted(r.duration_s for r in self.records)

    def to_dict(self) -> dict:
        """JSON-friendly form (records in episode order + the ledger)."""
        return {
            "name": self.name,
            "collector_kind": self.collector_kind,
            "routers": self.routers,
            "total_packets": self.total_packets,
            "total_bytes": self.total_bytes,
            "records": [record.to_dict() for record in self.records],
            "health": self.health.to_dict(),
        }


@dataclass
class CampaignConfig:
    """Knobs of one campaign's mixture."""

    name: str
    collector_kind: str  # "vendor" | "quagga"
    seed: int
    transfers: int
    routers: int
    # Zero-ACK-bug episodes drawn after the mixture (section IV-B).
    zero_bug_episodes: int = 1
    # ISP backbones sit a few ms away; RouteViews peers much farther.
    rtt_range_ms: tuple[float, float] = (3.0, 12.0)
    collector_window: int = 65535
    rto_backoff_factor: float = 2.0
    table_sizes: tuple[int, ...] = (8_000, 20_000, 45_000)
    timer_values_ms: tuple[int, ...] = (100, 200)
    # Mixture weights: clean / timer / rate / up-loss / down-loss / loaded.
    # Timer-driven and rate-limited senders dominate, matching the
    # paper's finding that BGP application factors outnumber TCP ones.
    weights: tuple[float, ...] = (0.20, 0.30, 0.16, 0.10, 0.12, 0.12)
    # Residual path loss applied even to "clean" transfers (RouteViews
    # peers cross the open Internet; ISP_A backbones do not).
    background_loss_rate: float = 0.0
    # Random-loss severity of upstream-loss episodes: ISP backbones see
    # brief light congestion; Internet paths lose much more.
    upstream_loss_range: tuple[float, float] = (0.008, 0.02)
    # Fraction of AS-path hops drawn from 4-byte AS space (RFC 6793).
    wide_asn_fraction: float = 0.0
    # Scale of downstream blackout durations (RV's aggressive RTO
    # backoff turns longer blackouts into much longer recoveries).
    loss_window_scale: float = 1.0
    # Fault injection: these episode numbers raise a *transient* fault
    # (first attempt only) inside their worker — with retries disabled
    # it exercises the pool's per-transfer crash containment, with
    # retries enabled the episode recovers and matches a clean run.
    fail_episodes: tuple[int, ...] = ()


def isp_vendor_config(seed: int = 11, transfers: int = 40) -> CampaignConfig:
    """ISP_A monitored by the vendor looking-glass (paper's ISP_A-1)."""
    return CampaignConfig(
        name="ISP_A-Vendor",
        collector_kind="vendor",
        seed=seed,
        transfers=transfers,
        routers=max(4, transfers // 5),
        timer_values_ms=(200, 400),
    )


def isp_quagga_config(seed: int = 22, transfers: int = 30) -> CampaignConfig:
    """ISP_A monitored by the Quagga collector (paper's ISP_A-2)."""
    return CampaignConfig(
        name="ISP_A-Quagga",
        collector_kind="quagga",
        seed=seed,
        transfers=transfers,
        routers=max(4, transfers // 5),
        timer_values_ms=(100, 200),
    )


def routeviews_config(seed: int = 33, transfers: int = 24) -> CampaignConfig:
    """RouteViews-style eBGP monitoring (paper's RV trace)."""
    return CampaignConfig(
        name="RV",
        collector_kind="vendor",
        seed=seed,
        transfers=transfers,
        routers=max(6, transfers // 3),
        rtt_range_ms=(15.0, 120.0),
        collector_window=16384,
        rto_backoff_factor=4.0,  # "backoff more aggressively" (IV-B)
        timer_values_ms=(80, 400),
        weights=(0.10, 0.22, 0.22, 0.22, 0.14, 0.10),
        background_loss_rate=0.012,
        loss_window_scale=3.0,
        upstream_loss_range=(0.02, 0.06),
        # RouteViews peers the open Internet: by 2010 4-byte ASNs were
        # appearing in paths (carried via AS_TRANS + AS4_PATH).
        wide_asn_fraction=0.08,
    )


PATHOLOGIES = (
    CLEAN, TIMER, RATE_LIMITED, UPSTREAM_LOSS, DOWNSTREAM_LOSS, LOADED_COLLECTOR,
)

#: factory registry: campaign name → config factory (``seed``,
#: ``transfers`` keyword overrides pass through).
CAMPAIGNS = {
    "ISP_A-Vendor": isp_vendor_config,
    "ISP_A-Quagga": isp_quagga_config,
    "RV": routeviews_config,
}


def campaign_config(name: str, **overrides) -> CampaignConfig:
    """Look up a campaign by name (Table I) and build its config."""
    try:
        factory = CAMPAIGNS[name]
    except KeyError:
        known = ", ".join(sorted(CAMPAIGNS))
        raise ValueError(f"unknown campaign {name!r} (known: {known})") from None
    return factory(**overrides)


@dataclass
class EpisodeSpec:
    """Everything needed to simulate and analyze one transfer episode.

    ``concurrency`` routers send ``table`` to one collector.  Router
    ``i`` is named ``router`` (``router-i`` when there are several) and
    addressed ``{subnet}.{i + 1}``; each path's upstream delay follows
    from ``rtt_ms``.

    A :data:`PEER_GROUP` episode has one router that replicates
    ``table`` through a :class:`~repro.bgp.peer_group.PeerGroup`,
    ``messages_per_tick`` messages a batch, to a second, vendor
    collector as well; that collector dies ``fail_after_s`` after the
    table is queued.
    """

    campaign: str
    collector_kind: str
    episode: int
    router: str
    subnet: str
    pathology: str
    trigger: str
    table: Rib
    rtt_ms: float
    router_tcp: TcpConfig = field(default_factory=TcpConfig)
    collector_tcp: TcpConfig = field(default_factory=TcpConfig)
    timer_ms: int | None = None
    messages_per_tick: int = 10
    rate_bytes_per_s: float = 0.0
    loss_rate: float = 0.0
    loss_window_s: tuple[float, float] | None = None
    cpu_per_message_us: int = 60
    # (period, length) of the collector's read stalls; (0, 0) for none.
    cpu_stall_us: tuple[int, int] = (0, 0)
    concurrency: int = 1
    seed: int = 0
    fail_after_s: float = 0.0
    hold_time_s: int = 180


def _draw_specs(config: CampaignConfig) -> tuple[list[EpisodeSpec], dict[int, Rib]]:
    """The campaign's episodes: the mixture, then the zero-ACK-bug ones."""
    streams = RandomStreams(config.seed)
    rng = streams.stream("mixture")
    tables = {
        size: generate_table(
            size,
            streams.stream(f"table-{size}"),
            wide_asn_fraction=config.wide_asn_fraction,
        )
        for size in config.table_sizes
    }
    router_tcp = TcpConfig(rto_backoff_factor=config.rto_backoff_factor)
    collector_tcp = TcpConfig(recv_buffer_bytes=config.collector_window)
    specs: list[EpisodeSpec] = []
    for episode in range(config.transfers):
        router_index = episode % config.routers
        if episode < len(PATHOLOGIES):
            # Guarantee coverage: the first six episodes cycle through
            # every pathology once; the rest follow the mixture.
            pathology = PATHOLOGIES[episode]
        else:
            pathology = rng.choices(PATHOLOGIES, config.weights)[0]
        size = rng.choice(config.table_sizes)
        rtt_ms = rng.uniform(*config.rtt_range_ms)
        trigger = "sender" if rng.random() < 0.7 else "receiver"
        spec = EpisodeSpec(
            campaign=config.name,
            collector_kind=config.collector_kind,
            episode=episode,
            router=f"{config.name}-r{router_index}",
            subnet=f"10.{episode % 250 + 1}.0",
            pathology=pathology,
            trigger=trigger,
            table=tables[size],
            rtt_ms=rtt_ms,
            router_tcp=router_tcp,
            collector_tcp=collector_tcp,
            seed=config.seed * 1000 + episode,
        )
        if pathology == CLEAN and config.background_loss_rate > 0:
            spec.loss_rate = config.background_loss_rate
        if pathology == TIMER:
            # Timer gaps need enough ticks to form a distribution: use
            # the biggest table and modest per-tick batches.
            spec.table = tables[max(config.table_sizes)]
            spec.timer_ms = rng.choice(config.timer_values_ms)
            spec.messages_per_tick = rng.choice((8, 15, 30))
            # A timer shorter than the RTT leaves no idle gap on the
            # wire: only nearby peers expose their timers (which is why
            # the paper could see them at all).
            spec.rtt_ms = min(spec.rtt_ms, spec.timer_ms / 3)
        elif pathology == RATE_LIMITED:
            spec.rate_bytes_per_s = rng.uniform(5_000, 40_000)
        elif pathology == UPSTREAM_LOSS:
            spec.loss_rate = rng.uniform(*config.upstream_loss_range)
        elif pathology == DOWNSTREAM_LOSS:
            # Blackout early enough to land inside the transfer, on the
            # biggest table so there is still data to lose.
            spec.table = tables[max(config.table_sizes)]
            # Start after session establishment and the first slow-start
            # rounds (both scale with the RTT) so whole flights die.
            start = rng.uniform(0.0, 0.01) + 7 * spec.rtt_ms / 1000
            length = rng.uniform(0.2, 1.0) * config.loss_window_scale
            spec.loss_window_s = (start, start + length)
        elif pathology == LOADED_COLLECTOR:
            # Receiver pressure is only visible when the table dwarfs
            # the receive buffer, so use the biggest one.
            spec.table = tables[max(config.table_sizes)]
            spec.cpu_per_message_us = rng.choice((1_500, 3_000, 6_000))
            if trigger == "receiver":
                spec.concurrency = rng.choice((2, 4, 6))
        specs.append(spec)
    specs += [
        zero_ack_bug_spec(config, i) for i in range(config.zero_bug_episodes)
    ]
    return specs, tables


def zero_ack_bug_spec(config: CampaignConfig, index: int = 0) -> EpisodeSpec:
    """A transfer whose sender TCP has the zero-window probe bug."""
    seed = config.seed + 777 + index
    return EpisodeSpec(
        campaign=config.name,
        collector_kind=config.collector_kind,
        episode=10_000 + index,
        router=f"{config.name}-bug{index}",
        subnet="10.254.0",
        pathology=ZERO_ACK_BUG,
        trigger="sender",
        table=generate_table(120_000, RandomStreams(seed).stream("table")),
        rtt_ms=9.1,
        router_tcp=TcpConfig(
            zero_ack_bug=True, zero_window_probe_delay_us=200_000
        ),
        collector_tcp=TcpConfig(recv_buffer_bytes=8 * 1400),
        # A bursty receiver app: long read stalls create the repeated
        # zero-window episodes that arm persist probes, and the resume
        # instants race the probe transmission (the bug's trigger).
        cpu_per_message_us=400,
        cpu_stall_us=(seconds(1.2), 620_000),
        seed=seed,
    )


def peer_group_spec(
    seed: int = 99,
    hold_time_s: int = 180,
    table_size: int = 20_000,
    fail_after_s: float = 0.3,
    campaign: str = "ISP_A",
) -> EpisodeSpec:
    """One router replicating to Quagga + Vendor collectors; the vendor
    box dies mid-transfer and blocks the group until its hold timer
    fires — the paper's Figure 9 / Table V scenario."""
    return EpisodeSpec(
        campaign=campaign,
        collector_kind="quagga",
        episode=20_000,
        router="rtr",
        subnet="10.9.0",
        pathology=PEER_GROUP,
        trigger="receiver",
        table=generate_table(table_size, RandomStreams(seed).stream("table")),
        rtt_ms=9.1,
        cpu_per_message_us=150,
        fail_after_s=fail_after_s,
        hold_time_s=hold_time_s,
    )


def _sender_model(spec: EpisodeSpec, sim: Simulator):
    """The router's sender model; ``None`` gives the session's default
    :class:`~repro.bgp.sender_models.ImmediateSender`."""
    if spec.pathology == TIMER:
        return TimerBatchSender(
            sim, spec.timer_ms * 1000, spec.messages_per_tick
        )
    if spec.pathology == RATE_LIMITED:
        return RateLimitedSender(sim, spec.rate_bytes_per_s)
    return None


def run_episode(
    spec: EpisodeSpec,
    strict: bool = False,
    health: TraceHealth | None = None,
    pcap_out: io.BufferedIOBase | None = None,
) -> list[TransferRecord]:
    """Simulate one episode, capture it, and run T-DAT on the capture.

    Campaign mixture episodes, zero-ACK-bug episodes, each level of the
    concurrency sweep and the peer-group episode all run here.  With
    ``strict=True`` the analysis fails fast on any ingest damage;
    otherwise issues accumulate in ``health`` (a fresh ledger when not
    supplied).  ``pcap_out`` receives the episode's capture as a pcap
    byte stream (the checkpoint journal's payload): every sniffer's
    records merged in time order, so a peer-group capture holds both
    collectors' connections.  The simulation runs under
    :data:`EPISODE_EVENT_BUDGET`: a pathological scenario raises
    :class:`~repro.netsim.simulator.SimBudgetExceeded` instead of
    spinning forever.

    A peer-group episode returns only the surviving collector's record,
    carrying the cross-connection blocking report in ``peer_group``.
    """
    sim = Simulator()
    streams = RandomStreams(spec.seed)
    stall_every_us, stall_duration_us = spec.cpu_stall_us
    collector_classes = [
        QuaggaCollector if spec.collector_kind == "quagga" else VendorCollector
    ]
    peer_group = spec.pathology == PEER_GROUP
    if peer_group:
        # The group's second collector, the one that dies.
        collector_classes.append(VendorCollector)
    setups = [
        MonitoringSetup(
            sim,
            collector_cls=collector_cls,
            collector_ip=f"10.255.0.{number}",
            collector_tcp=spec.collector_tcp,
            cpu=CollectorCpu(
                sim,
                per_message_us=spec.cpu_per_message_us,
                stall_every_us=stall_every_us,
                stall_duration_us=stall_duration_us,
            ),
            hold_time_s=spec.hold_time_s,
        )
        for number, collector_cls in enumerate(collector_classes, start=1)
    ]
    upstream_delay = int(spec.rtt_ms * 1000 / 2) - 550
    handles = []
    for i in range(spec.concurrency):
        upstream_loss = None
        downstream_loss = None
        if spec.loss_rate > 0:
            upstream_loss = BernoulliLoss(
                spec.loss_rate, streams.stream(f"loss-{i}")
            )
        if spec.loss_window_s is not None:
            start_s, end_s = spec.loss_window_s
            downstream_loss = WindowLoss([(seconds(start_s), seconds(end_s))])
        params = RouterParams(
            name=f"{spec.router}-{i}" if spec.concurrency > 1 else spec.router,
            ip=f"{spec.subnet}.{i + 1}",
            # A peer group queues the table itself, once sessions are up.
            table=None if peer_group else spec.table,
            sender_model=_sender_model(spec, sim),
            tcp=spec.router_tcp,
            upstream_delay_us=max(upstream_delay, 100),
            upstream_loss=upstream_loss,
            downstream_loss=downstream_loss,
            hold_time_s=spec.hold_time_s,
        )
        handles.append(setups[0].add_router(params))
    if peer_group:
        # The same router host peers with the failing collector too.
        router = handles[0]
        failed = setups[1].add_router(router.params, host=router.host)
        group = PeerGroup(
            sim,
            [router.session, failed.session],
            batch_messages=spec.messages_per_tick,
            poll_interval_us=20_000,
        )
    tracer = get_obs().tracer
    with tracer.span(
        "episode.simulate", cat="campaign", args={"episode": spec.episode}
    ):
        for setup in setups:
            setup.start()
        if not peer_group:
            sim.run(until_us=seconds(900), max_events=EPISODE_EVENT_BUDGET)
        else:
            # Establish both sessions, then queue the table.  The failing
            # collector dies ``fail_after_s`` later (t1 of the paper's
            # Figure 9); only a death before the transfer ends leaves
            # the group's queue blocked.
            sim.run(until_us=seconds(2), max_events=EPISODE_EVENT_BUDGET)
            group.announce_table(spec.table)
            sim.schedule(seconds(spec.fail_after_s), setups[1].collector.kill)
            sim.run(
                until_us=seconds(spec.hold_time_s + 120),
                max_events=EPISODE_EVENT_BUDGET,
            )

    with tracer.span(
        "episode.analyze", cat="campaign", args={"episode": spec.episode}
    ):
        capture = sorted(
            (record for setup in setups for record in setup.sniffer.records),
            key=lambda record: record.timestamp_us,
        )
        if pcap_out is not None:
            write_pcap(pcap_out, capture)
        # The paper's analysis period is the table-transfer extent MCT
        # finds (section II-A): one analyze_pcap run analyzes each router
        # connection of the first setup clipped to (0, extent.end_us),
        # and any other connection whole.  A crashed analysis is
        # contained like any other: its connection is missing from the
        # report.
        extents = _transfer_extents(setups[0], capture)
        report = analyze_pcap(
            capture,
            windows={key: (0, ext.end_us) for key, ext in extents.items()},
            strict=strict,
            health=health,
        )
        records = [
            _make_record(spec, report.get(key), extents.get(key))
            for key in map(_connection_key, handles)
            if key in report.analyses
        ]
        if peer_group and records:
            # The paper's Survivor.SendAppLimited ∩ Failed.Loss rule
            # (section IV-B).  The failed connection has no window: the
            # retransmissions into the void that prove the block come
            # after its own transfer extent ends.
            survivor = report.get(_connection_key(handles[0]))
            dead = report.analyses.get(_connection_key(failed))
            records[0].peer_group = (
                detect_peer_group_blocking(survivor.connection, dead.series)
                if dead is not None
                else PeerGroupBlockingReport(detected=False)
            )
        return records


def _connection_key(handle) -> tuple:
    return canonical_key(*handle.endpoint.flow_key)


def _transfer_extents(setup, records) -> dict[tuple, TableTransfer]:
    """MCT per router connection of ``setup``: archive-based for Quagga,
    pcap2bgp otherwise."""
    if setup.collector.archives_mrt:
        by_peer: dict[str, list] = {}
        for record in setup.collector.archive:
            if isinstance(record.message, UpdateMessage):
                by_peer.setdefault(record.peer_ip, []).append(
                    (record.timestamp_us, record.message)
                )
        updates = {
            _connection_key(handle): by_peer.get(handle.params.ip, [])
            for handle in setup.routers
        }
    else:
        updates = {
            key: [(m.timestamp_us, m.message) for m in stream.updates()]
            for key, stream in pcap_to_bgp(records).items()
        }
    extents: dict[tuple, TableTransfer] = {}
    for handle in setup.routers:
        key = _connection_key(handle)
        transfer = minimum_collection_time(updates.get(key, []), start_us=0)
        if transfer is not None:
            extents[key] = transfer
    return extents


def _make_record(
    spec: EpisodeSpec,
    analysis: ConnectionAnalysis,
    extent: TableTransfer | None,
) -> TransferRecord:
    profile = analysis.connection.profile
    duration = extent.duration_us if extent is not None else profile.duration_us
    pause = detect_long_keepalive_pauses(analysis.connection)
    return TransferRecord(
        campaign=spec.campaign,
        router=spec.router,
        episode=spec.episode,
        trigger=spec.trigger,
        pathology=spec.pathology,
        table_prefixes=len(spec.table),
        wire_bytes=profile.total_data_bytes,
        data_packets=profile.total_data_packets,
        rtt_us=profile.rtt_us,
        duration_us=max(duration, 1),
        mct_ended_by=extent.ended_by if extent is not None else "none",
        concurrency=spec.concurrency,
        true_timer_us=spec.timer_ms * 1000 if spec.timer_ms else None,
        factors=analysis.factors,
        timer=analysis.timer_gaps,
        consecutive=analysis.consecutive_losses,
        zero_bug=analysis.zero_ack_bug,
        keepalive_pause=pause,
    )


def _campaign_task(
    index: int
) -> tuple[list[TransferRecord], TraceHealth, bytes | None, ObsExport | None]:
    """Work-pool task: simulate + analyze the campaign's ``index``-th spec.

    The (config, specs, strict, want_pcap, want_obs) tuple rides in the
    pool context — the specs embed full RIB tables, so shipping them
    per-task instead would dominate the fan-out cost.  Returns the
    episode's records, its private health ledger for the parent to merge
    in order, (when the campaign journals checkpoints) the episode's
    capture as pcap bytes, and (when observability is on) the task's
    :class:`~repro.obs.ObsExport` for the parent to fold in task order.

    Observability is *task-local*: whether the task runs inline
    (serial) or in a worker, it installs its own fresh context for the
    duration, so the instruments it records are identical either way —
    the property behind the deterministic workers=1 vs workers=N
    metrics snapshot.

    Injected faults from ``config.fail_episodes`` are *transient*: they
    raise :class:`~repro.exec.pool.TransientTaskError` on the first
    attempt only, so a pool with retries recovers the episode while a
    pool without them contains the crash.
    """
    config, specs, strict, want_pcap, want_obs = task_context()
    spec = specs[index]
    episode_health = TraceHealth()
    pcap_out = io.BytesIO() if want_pcap else None
    task_obs = Observability.create() if want_obs else None
    with use_obs(task_obs) as obs:
        with obs.tracer.span(
            "campaign.episode", cat="campaign", args={"index": index},
        ):
            if spec.episode in config.fail_episodes and task_attempt() == 0:
                raise TransientTaskError(
                    f"injected transient fault in episode {spec.episode}"
                )
            records = run_episode(
                spec, strict=strict, health=episode_health, pcap_out=pcap_out,
            )
        if task_obs is not None:
            obs.metrics.counter("campaign.episodes").inc()
            obs.metrics.counter("campaign.records").inc(len(records))
    return (
        records,
        episode_health,
        pcap_out.getvalue() if pcap_out is not None else None,
        task_obs.export() if task_obs is not None else None,
    )


#: TaskError.kind -> health issue kind, for supervisor-classified
#: failures; anything else is a plain transfer crash.
_FAILURE_ISSUE_KINDS = {
    "SimBudgetExceeded": "sim-budget-exceeded",
    TIMEOUT_KIND: "task-timeout",
}


def run_campaign(
    config: CampaignConfig,
    pool: WorkPool | None = None,
    strict: bool = False,
    health: TraceHealth | None = None,
    checkpoint_dir: str | Path | None = None,
    resume: bool = False,
    shutdown: GracefulShutdown | None = None,
    on_episode=None,
) -> CampaignResult:
    """Run every episode of a campaign and collect the records.

    ``pool`` (default: a serial ``WorkPool()``) runs the episodes; a
    pool with workers fans them out across processes, and records come
    back in episode order, so the result is identical to a serial run.
    A transfer that crashes — in a worker or inline — is contained: it
    becomes a ``transfer-crashed`` issue in the result's
    :class:`TraceHealth` and the rest of the campaign completes; a
    simulation that outgrows its watchdog budget becomes
    ``sim-budget-exceeded``, a task killed by the pool's per-task
    timeout ``task-timeout``, and an episode that succeeded only after
    retries ``task-retried`` (benign).  ``strict=True`` applies
    fail-fast *analysis* inside each episode (damaged ingest aborts that
    transfer), which surfaces through the same containment path.

    ``checkpoint_dir`` journals every completed episode (records +
    health + pcap, fsync'd) under that directory as the campaign runs;
    while checkpointing, SIGINT/SIGTERM drain in-flight episodes,
    flush the journal, and raise
    :class:`~repro.workloads.checkpoint.CampaignInterrupted`.
    ``resume=True`` loads the journal in ``checkpoint_dir`` (written by
    an identical config, verified via the manifest hash; without a
    ``checkpoint_dir`` it raises ``ValueError``) and skips its completed
    episodes — the merged result is byte-identical to an uninterrupted
    run, save for one benign ``campaign-resumed`` issue recording the
    restore.
    ``on_episode(task, outcome)`` is invoked as each episode resolves
    (progress reporting); ``shutdown`` overrides the signal-driven
    drain trigger (embedding apps, tests).
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True needs a checkpoint_dir to resume from")
    specs, _tables = _draw_specs(config)
    if health is None:
        health = TraceHealth()
    result = CampaignResult(
        name=config.name,
        collector_kind=config.collector_kind,
        routers=config.routers,
        health=health,
    )
    if pool is None:
        pool = WorkPool()
    tasks = list(range(len(specs)))

    journal = None
    cached: dict[int, tuple[list, TraceHealth]] = {}
    if checkpoint_dir is not None:
        # Opening the journal scans it and salvages a torn tail (a
        # benign checkpoint-salvaged issue on ``health``); a journal
        # that cannot even be created (disk full) is typed the same as
        # a mid-run write failure: interrupted, resumable.
        try:
            journal = CampaignJournal(checkpoint_dir, config, health=health)
        except CheckpointWriteError as exc:
            raise CampaignInterrupted(
                config.name, completed=0, total=len(tasks),
                checkpoint_dir=checkpoint_dir,
                reason=f"checkpoint write failed: {exc}",
            ) from exc
        if resume:
            wanted = set(tasks)
            cached = {
                task: entry
                for task, entry in journal.load().items()
                if task in wanted
            }
            if cached:
                health.record(
                    STAGE_EXEC, "campaign-resumed",
                    detail=(
                        f"{config.name}: restored {len(cached)}/{len(tasks)} "
                        f"episode(s) from {checkpoint_dir}"
                    ),
                    benign=True,
                )
    obs = get_obs()
    todo = [task for task in tasks if task not in cached]
    context = (config, specs, strict, journal is not None, obs.enabled)

    fresh: dict[int, object] = {}

    def _episode_done(outcome) -> None:
        task = todo[outcome.index]
        # Journal before counting the episode as fresh: if the write
        # fails (CheckpointWriteError propagating out of pool.map), the
        # interrupted-progress count only covers episodes that are
        # actually on disk and will survive a resume.
        if journal is not None and outcome.ok:
            records, episode_health, pcap_bytes, _obs = outcome.value
            journal.write(task, records, episode_health, pcap_bytes)
        fresh[task] = outcome
        if on_episode is not None:
            on_episode(task, outcome)

    # Graceful shutdown is meaningful only when there is a journal to
    # resume from; without one, SIGINT stays a plain KeyboardInterrupt.
    if shutdown is None:
        shutdown = GracefulShutdown(install_signals=journal is not None)
    interrupted = False
    interrupt_reason = ""
    with shutdown:
        try:
            with obs.tracer.span(
                "campaign.map", cat="campaign",
                args={"name": config.name, "tasks": len(todo)},
            ):
                pool.map(
                    _campaign_task, todo, context=context,
                    should_stop=(
                        shutdown.requested if journal is not None else None
                    ),
                    on_outcome=_episode_done,
                )
        except PoolInterrupted:
            interrupted = True
        except CheckpointWriteError as exc:
            # The journal cannot make progress (disk full, EIO ...).
            # The pool's finally block already reaped every worker;
            # everything journaled before the failure resumes cleanly.
            interrupted = True
            interrupt_reason = f"checkpoint write failed: {exc}"
    if interrupted:
        raise CampaignInterrupted(
            config.name,
            completed=len(cached) + len(fresh),
            total=len(tasks),
            checkpoint_dir=checkpoint_dir,
            reason=interrupt_reason,
        )

    def _fold(records: list[TransferRecord], episode_health: TraceHealth):
        health.merge(episode_health)
        for record in records:
            result.records.append(record)
            result.total_packets += record.data_packets
            result.total_bytes += record.wire_bytes

    # Fold in *task* order (not completion order): counter/histogram
    # merges commute, but span append order and gauge last-values
    # follow the fold, so this is what keeps the merged snapshot
    # independent of worker count and scheduling.
    for task_number, task in enumerate(tasks, start=1):
        if task in cached:
            # Episodes restored from a checkpoint journal carry no
            # observability export: their metrics were recorded (and
            # discarded) by the run that originally produced them.
            records, episode_health = cached[task]
            _fold(records, episode_health)
            continue
        outcome = fresh[task]
        label = f"episode {specs[task].episode}"
        if not outcome.ok:
            issue_kind = _FAILURE_ISSUE_KINDS.get(
                outcome.error.kind, "transfer-crashed"
            )
            detail = f"{config.name} {label}: {outcome.error}"
            if outcome.attempts > 1:
                detail += f" (after {outcome.attempts} attempts)"
            health.record(STAGE_EXEC, issue_kind, detail=detail)
            continue
        if outcome.attempts > 1:
            last = outcome.retried[-1] if outcome.retried else None
            health.record(
                STAGE_EXEC, "task-retried",
                detail=(
                    f"{config.name} {label}: succeeded on attempt "
                    f"{outcome.attempts}"
                    + (f" after {last}" if last is not None else "")
                ),
                benign=True,
            )
        records, episode_health, _pcap, obs_export = outcome.value
        if obs_export is not None and obs.enabled:
            # One Perfetto track per episode: tid 0 stays the parent's.
            obs.absorb(obs_export, tid=task_number)
        _fold(records, episode_health)
    if obs.enabled:
        result.metrics = obs.metrics
    return result


# ---------------------------------------------------------------------- #
# Concurrency sweep                                                      #
# ---------------------------------------------------------------------- #
def _sweep_spec(
    table: Rib, concurrency: int, cpu_per_message_us: int
) -> EpisodeSpec:
    """One level of the concurrency sweep: ``concurrency`` clean
    transfers of ``table`` into one Quagga collector."""
    return EpisodeSpec(
        campaign="concurrency-sweep",
        collector_kind="quagga",
        episode=concurrency,
        router="c",
        subnet="10.77.0",
        pathology=LOADED_COLLECTOR,
        trigger="receiver",
        table=table,
        rtt_ms=9.1,
        cpu_per_message_us=cpu_per_message_us,
        concurrency=concurrency,
    )


def run_concurrency_sweep(
    concurrencies: tuple[int, ...] = (1, 2, 4, 8, 12, 16),
    seed: int = 55,
    table_size: int = 40_000,
    cpu_per_message_us: int = 40,
) -> dict[int, dict[str, float]]:
    """The paper's Figure 15: concurrent transfers vs receiver ratios.

    Returns, per concurrency level, the mean ``bgp_receiver_app`` and
    ``tcp_advertised_window`` delay ratios across the concurrent
    transfers.
    """
    table = generate_table(table_size, RandomStreams(seed).stream("table"))
    results: dict[int, dict[str, float]] = {}
    for k in concurrencies:
        records = run_episode(_sweep_spec(table, k, cpu_per_message_us))
        results[k] = {
            factor: sum(r.factors.ratios[factor] for r in records)
            / max(len(records), 1)
            for factor in ("bgp_receiver_app", "tcp_advertised_window")
        }
    return results
