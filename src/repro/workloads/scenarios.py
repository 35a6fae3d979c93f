"""Scenario building blocks: monitored BGP peerings with a sniffer.

:class:`MonitoringSetup` reproduces the paper's collection topology
(Figures 1 and 2): operational routers peer with a BGP collector, and a
sniffer box immediately in front of the collector captures both
directions.  Per-router link parameters, loss models, TCP configs and
BGP sender models make every pathology of section II injectable.

Topology per router::

    router --[upstream link]--> (tap) --[local link]--> collector
    router <--[upstream link]-- (tap) <--[local link]-- collector

The sniffer taps the egress of the data-direction *upstream* link and
of the ACK-direction *local* link, i.e. the physical point next to the
collector.  Losses configured on the data-direction local link (or its
small buffer) therefore happen downstream of the tap — the paper's
receiver-local losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bgp.collector import BaseCollector, CollectorCpu, QuaggaCollector
from repro.bgp.sender_models import SenderModel
from repro.bgp.speaker import BgpSession
from repro.bgp.table import Rib
from repro.capture.sniffer import SnifferTap
from repro.netsim.link import Link, LossModel
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.socket import TcpEndpoint

COLLECTOR_PORT = 179


@dataclass
class RouterParams:
    """Everything configurable about one monitored router."""

    name: str
    ip: str
    table: Rib | None = None
    sender_model: SenderModel | None = None
    tcp: TcpConfig | None = None
    bandwidth_bps: float = 100_000_000
    upstream_delay_us: int = 4_000
    local_delay_us: int = 500
    upstream_loss: LossModel | None = None
    downstream_loss: LossModel | None = None
    downstream_buffer_packets: int = 1000
    hold_time_s: int = 180
    local_as: int = 65001
    # Where the sniffer tap sits: "receiver" is the paper's collector-
    # side deployment; "sender" tapes the router's own egress, so drops
    # in the router's NIC queue become upstream/sender-local losses.
    tap_location: str = "receiver"
    # Loss and queue depth of the router's own output interface, only
    # distinguishable from path loss with a sender-side tap.
    nic_loss: LossModel | None = None
    nic_buffer_packets: int = 1000


@dataclass
class RouterHandle:
    """Live objects for one router added to a monitoring setup."""

    params: RouterParams
    host: Host
    endpoint: TcpEndpoint
    session: BgpSession
    collector_session: BgpSession
    nic_link: Link
    wan_link: Link
    upstream_link: Link
    local_link: Link
    ack_local_link: Link
    ack_upstream_link: Link


class MonitoringSetup:
    """A collector plus its sniffer, accepting monitored routers."""

    def __init__(
        self,
        sim: Simulator,
        collector_cls: type[BaseCollector] = QuaggaCollector,
        collector_ip: str = "10.255.0.1",
        collector_as: int = 65000,
        collector_tcp: TcpConfig | None = None,
        cpu: CollectorCpu | None = None,
        sniffer_drop_windows: list[tuple[int, int]] | None = None,
        hold_time_s: int = 180,
    ) -> None:
        self.sim = sim
        self.collector_host = Host("collector", collector_ip)
        self.collector_tcp = collector_tcp or TcpConfig()
        self.collector = collector_cls(
            sim,
            self.collector_host,
            local_as=collector_as,
            bgp_id=collector_ip,
            cpu=cpu,
            hold_time_s=hold_time_s,
        )
        self.sniffer = SnifferTap(sim, drop_windows=sniffer_drop_windows)
        self.routers: list[RouterHandle] = []
        self._next_port = 40000

    def add_router(
        self, params: RouterParams, host: Host | None = None
    ) -> RouterHandle:
        """Wire a router into the setup; ``connect()`` is deferred to
        :meth:`start` (or call ``handle.endpoint.connect()`` manually).

        Pass an existing ``host`` to let one router peer with several
        collectors (the paper's peer-group configuration).
        """
        if host is None:
            host = Host(params.name, params.ip)
        # Data direction:
        #   router -> nic (the router's own output queue) -> wan
        #   (upstream/path loss) -> upstream segment -> local
        #   (downstream/receiver-local loss) -> collector.
        # The tap sits on the ``upstream`` segment for a receiver-side
        # deployment (the paper's Figure 2) or right after the NIC for a
        # sender-side one; losses *before* the tapped link's egress are
        # invisible to the capture.
        local = Link(
            self.sim,
            f"{params.name}-local",
            params.bandwidth_bps,
            params.local_delay_us,
            deliver=self.collector_host.deliver,
            loss_model=params.downstream_loss,
            buffer_packets=params.downstream_buffer_packets,
        )
        upstream = Link(
            self.sim,
            f"{params.name}-up",
            params.bandwidth_bps,
            50,  # a short monitored segment next to the collector
            deliver=local.send,
        )
        wan = Link(
            self.sim,
            f"{params.name}-wan",
            params.bandwidth_bps,
            params.upstream_delay_us,
            deliver=upstream.send,
            loss_model=params.upstream_loss,
        )
        nic = Link(
            self.sim,
            f"{params.name}-nic",
            params.bandwidth_bps,
            50,
            deliver=wan.send,
            loss_model=params.nic_loss,
            buffer_packets=params.nic_buffer_packets,
        )
        # ACK direction: collector -> ack_local -> ack_upstream ->
        # ack_nic -> router; a receiver-side tap sees ACKs leaving the
        # collector (ack_local), a sender-side one sees them arriving
        # at the router (ack_nic).
        ack_nic = Link(
            self.sim,
            f"{params.name}-ack-nic",
            params.bandwidth_bps,
            50,
            deliver=host.deliver,
        )
        ack_upstream = Link(
            self.sim,
            f"{params.name}-ack-up",
            params.bandwidth_bps,
            params.upstream_delay_us,
            deliver=ack_nic.send,
        )
        ack_local = Link(
            self.sim,
            f"{params.name}-ack-local",
            params.bandwidth_bps,
            params.local_delay_us,
            deliver=ack_upstream.send,
        )
        host.add_route(self.collector_host.ip, nic.send)
        self.collector_host.add_route(params.ip, ack_local.send)
        if params.tap_location == "receiver":
            self.sniffer.attach(upstream, ack_local)
        elif params.tap_location == "sender":
            # Data tapped entering the WAN (just past the router's NIC)
            # and ACKs tapped on their final hop into the router.
            self.sniffer.attach(wan, ack_nic)
        else:
            raise ValueError(f"unknown tap_location {params.tap_location!r}")

        port = self._next_port
        self._next_port += 1
        collector_endpoint = TcpEndpoint(
            self.sim,
            self.collector_host,
            COLLECTOR_PORT,
            params.ip,
            port,
            config=self.collector_tcp,
        )
        collector_endpoint.listen()
        router_endpoint = TcpEndpoint(
            self.sim,
            host,
            port,
            self.collector_host.ip,
            COLLECTOR_PORT,
            config=params.tcp,
        )
        collector_session = self.collector.add_session(
            collector_endpoint, peer_as=params.local_as, peer_ip=params.ip
        )
        session = BgpSession(
            self.sim,
            router_endpoint,
            local_as=params.local_as,
            bgp_id=params.ip,
            hold_time_s=params.hold_time_s,
            rib=params.table,
            sender_model=params.sender_model,
            on_established=(
                (lambda s: s.announce_table())
                if params.table is not None
                else None
            ),
        )
        handle = RouterHandle(
            params=params,
            host=host,
            endpoint=router_endpoint,
            session=session,
            collector_session=collector_session,
            nic_link=nic,
            wan_link=wan,
            upstream_link=upstream,
            local_link=local,
            ack_local_link=ack_local,
            ack_upstream_link=ack_upstream,
        )
        self.routers.append(handle)
        return handle

    def start(self) -> None:
        """Open every router's TCP connection."""
        for handle in self.routers:
            handle.endpoint.connect()
