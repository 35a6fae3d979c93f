"""Shared topology builder, endpoint pair and loss model for TCP tests."""

from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.tcp.options import TcpConfig
from repro.tcp.socket import TcpEndpoint


class Net:
    """Two hosts joined by a duplex pair of links."""

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: float = 80_000_000,
        delay_us: int = 5_000,
        loss_up=None,
        loss_down=None,
        buffer_packets: int = 1000,
    ) -> None:
        self.sim = sim
        self.a = Host("a", "10.0.0.1")
        self.b = Host("b", "10.0.0.2")
        self.link_ab = Link(
            sim, "a->b", bandwidth_bps, delay_us,
            deliver=self.b.deliver, loss_model=loss_up,
            buffer_packets=buffer_packets,
        )
        self.link_ba = Link(
            sim, "b->a", bandwidth_bps, delay_us,
            deliver=self.a.deliver, loss_model=loss_down,
            buffer_packets=buffer_packets,
        )
        self.a.add_route("10.0.0.2", self.link_ab.send)
        self.b.add_route("10.0.0.1", self.link_ba.send)


class CountedLoss:
    """Drop the next ``count`` packets once armed (then pass everything)."""

    def __init__(self, count: int) -> None:
        self.remaining = count

    def arm(self, count: int) -> None:
        """Re-arm the model to drop the next ``count`` packets."""
        self.remaining = count

    def should_drop(self, packet, now_us: int) -> bool:
        if self.remaining > 0:
            self.remaining -= 1
            return True
        return False


def collect_all(endpoint, sink: bytearray):
    """An on_data callback that drains everything into ``sink``."""

    def _on_data(ep):
        sink.extend(ep.read())

    endpoint.on_data = _on_data
    return _on_data


def connect_pair(
    sim: Simulator,
    client_host: Host,
    server_host: Host,
    client_port: int,
    server_port: int,
    client_config: TcpConfig | None = None,
    server_config: TcpConfig | None = None,
    **callbacks,
) -> tuple[TcpEndpoint, TcpEndpoint]:
    """Create an active/passive endpoint pair ready to handshake.

    The caller wires hosts to links beforehand; ``client.connect()`` is
    invoked here, so running the simulator completes the handshake.
    Callbacks suffixed ``_client`` / ``_server`` are routed accordingly.
    """
    server = TcpEndpoint(
        sim,
        server_host,
        server_port,
        client_host.ip,
        client_port,
        config=server_config,
        on_established=callbacks.get("on_established_server"),
        on_data=callbacks.get("on_data_server"),
        on_close=callbacks.get("on_close_server"),
    )
    server.listen()
    client = TcpEndpoint(
        sim,
        client_host,
        client_port,
        server_host.ip,
        server_port,
        config=client_config,
        on_established=callbacks.get("on_established_client"),
        on_data=callbacks.get("on_data_client"),
        on_close=callbacks.get("on_close_client"),
    )
    client.connect()
    return client, server
