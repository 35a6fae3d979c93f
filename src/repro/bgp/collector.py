"""BGP collectors: the paper's *Receiver* boxes.

Two kinds mirror the measurement setup (paper section II-A):

* :class:`QuaggaCollector` — a PC-based monitor that archives every
  received update as an MRT record.
* :class:`VendorCollector` — a looking-glass router that keeps only the
  current RIB (no archive).

Both read their TCP sockets through a shared :class:`CollectorCpu`
whose service rate models the receiving BGP process.  When many routers
transfer tables concurrently, the run queue grows, sockets drain
slowly, advertised windows close, and the receiver becomes the
bottleneck — the effect the paper quantifies in Figure 15.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.bgp.messages import UpdateMessage
from repro.bgp.mrt import MrtRecord, write_mrt
from repro.bgp.speaker import BgpSession
from repro.bgp.table import Rib
from repro.netsim.node import Host
from repro.netsim.simulator import Simulator
from repro.tcp.socket import TcpEndpoint


class CollectorCpu:
    """A single service queue shared by all of a collector's sessions.

    Each scheduling quantum reads up to ``read_chunk_bytes`` from one
    session's socket and charges ``per_message_us`` for every decoded
    message plus ``per_byte_us`` per byte parsed.
    """

    def __init__(
        self,
        sim: Simulator,
        per_message_us: int = 150,
        per_byte_us: float = 0.02,
        read_chunk_bytes: int = 4096,
        stall_every_us: int = 0,
        stall_duration_us: int = 0,
    ) -> None:
        """``stall_every_us``/``stall_duration_us`` model periodic
        periods where the BGP process does other work (table scans,
        the paper's loaded collectors) and reads nothing at all."""
        self.sim = sim
        self.per_message_us = per_message_us
        self.per_byte_us = per_byte_us
        self.read_chunk_bytes = read_chunk_bytes
        self.stall_every_us = stall_every_us
        self.stall_duration_us = stall_duration_us
        self._runnable: deque[BgpSession] = deque()
        self._queued: set[int] = set()
        self._busy = False
        self.total_busy_us = 0
        self.quanta = 0

    def _stall_remaining(self, now_us: int) -> int:
        """Microseconds left of an active stall window, else 0."""
        if self.stall_every_us <= 0 or self.stall_duration_us <= 0:
            return 0
        phase = now_us % self.stall_every_us
        if phase < self.stall_duration_us:
            return self.stall_duration_us - phase
        return 0

    def notify_readable(self, session: BgpSession) -> None:
        """A session's socket has data; enqueue it for service."""
        if id(session) not in self._queued:
            self._runnable.append(session)
            self._queued.add(id(session))
        if not self._busy:
            self._busy = True
            self.sim.schedule(0, self._serve)

    def _serve(self) -> None:
        if not self._runnable:
            self._busy = False
            return
        stall = self._stall_remaining(self.sim.now)
        if stall > 0:
            self.sim.schedule(stall, self._serve)
            return
        session = self._runnable.popleft()
        self._queued.discard(id(session))
        data_before = session.endpoint.readable_bytes
        messages = session.process_input(self.read_chunk_bytes)
        consumed = min(data_before, self.read_chunk_bytes)
        service_us = max(
            1,
            round(
                len(messages) * self.per_message_us
                + consumed * self.per_byte_us
            ),
        )
        self.total_busy_us += service_us
        self.quanta += 1
        if session.endpoint.readable_bytes > 0 and id(session) not in self._queued:
            self._runnable.append(session)
            self._queued.add(id(session))
        self.sim.schedule(service_us, self._serve)


class BaseCollector:
    """Common machinery of Quagga- and vendor-style collectors."""

    archives_mrt = False

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        local_as: int,
        bgp_id: str,
        cpu: CollectorCpu | None = None,
        hold_time_s: int = 180,
    ) -> None:
        self.sim = sim
        self.host = host
        self.local_as = local_as
        self.bgp_id = bgp_id
        self.cpu = cpu or CollectorCpu(sim)
        self.hold_time_s = hold_time_s
        self.sessions: list[BgpSession] = []
        self.archive: list[MrtRecord] = []
        self.rib = Rib()
        self.updates_archived = 0
        self.on_update: Callable[[BgpSession, UpdateMessage, int], None] | None = None

    def add_session(
        self, endpoint: TcpEndpoint, peer_as: int, peer_ip: str
    ) -> BgpSession:
        """Bind a collector-side BGP session to an accepted endpoint."""
        session = BgpSession(
            self.sim,
            endpoint,
            local_as=self.local_as,
            bgp_id=self.bgp_id,
            hold_time_s=self.hold_time_s,
            on_update=self._session_update,
            auto_read=False,
        )
        session.peer_as = peer_as
        session.peer_ip = peer_ip
        session.on_readable = self.cpu.notify_readable
        self.sessions.append(session)
        return session

    def _session_update(
        self, session: BgpSession, update: UpdateMessage, timestamp_us: int
    ) -> None:
        self.rib.apply(update)
        if self.archives_mrt:
            self.archive.append(
                MrtRecord(
                    timestamp_us=timestamp_us,
                    peer_as=getattr(session, "peer_as", 0),
                    local_as=self.local_as,
                    peer_ip=getattr(session, "peer_ip", "0.0.0.0"),
                    local_ip=self.host.ip,
                    message=update,
                )
            )
            self.updates_archived += 1
        if self.on_update is not None:
            self.on_update(session, update, timestamp_us)

    def kill(self) -> None:
        """The collector box fails: every socket goes silent.

        This is the paper's Figure 9 trigger — routers keep
        retransmitting into the dead box until their hold timers fire.
        """
        for session in self.sessions:
            session.endpoint.kill(silent=True)
            session._hold_timer.stop()
            session._keepalive_timer.stop()


class QuaggaCollector(BaseCollector):
    """A Quagga-style monitor that archives updates in MRT format."""

    archives_mrt = True

    def write_archive(self, path) -> int:
        """Dump the MRT archive to ``path``; returns the record count."""
        write_mrt(path, self.archive)
        return len(self.archive)

    def write_rib_snapshot(self, path, peer_as: int = 0,
                           peer_ip: str = "0.0.0.0") -> int:
        """Dump the current RIB as a TABLE_DUMP_V2 snapshot.

        Real Quagga collectors write periodic RIB dumps alongside the
        update archive; returns the number of RIB entries written.
        """
        from repro.bgp.mrt import RibSnapshot

        snapshot = RibSnapshot(
            timestamp_us=self.sim.now,
            collector_id=self.bgp_id,
            peer_as=peer_as,
            peer_ip=peer_ip,
            entries=tuple(
                (route.prefix, route.attributes) for route in self.rib
            ),
        )
        data = snapshot.encode()
        if isinstance(path, (str, bytes)) or hasattr(path, "__fspath__"):
            with open(path, "wb") as stream:
                stream.write(data)
        else:
            path.write(data)
        return len(snapshot.entries)


class VendorCollector(BaseCollector):
    """A vendor looking-glass: current RIB only, no archive."""

    archives_mrt = False
