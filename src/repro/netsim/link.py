"""Links: serialization, propagation, drop-tail buffering and loss.

A :class:`Link` is unidirectional.  Packets queue in a finite drop-tail
buffer, serialize one at a time at the link bandwidth, then propagate.
Loss models drop packets either at enqueue (buffer pressure is modelled
separately by the finite queue) or on the wire.

Taps observe packets at the moment serialization completes — exactly
where a passive sniffer port-mirror would see them — which lets us place
the paper's *Sniffer* between two links so that drops on the second link
happen *after* capture (the paper's downstream / receiver-local losses,
section II-B2).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Protocol

from repro.core.units import US_PER_SECOND
from repro.netsim.packet import Packet
from repro.netsim.simulator import Simulator


class LossModel(Protocol):
    """Decides whether a packet entering the wire is dropped."""

    def should_drop(self, packet: Packet, now_us: int) -> bool:
        """Return True to drop ``packet`` at time ``now_us``."""
        ...  # pragma: no cover - protocol definition


class NoLoss:
    """The default lossless wire."""

    def should_drop(self, packet: Packet, now_us: int) -> bool:
        return False


class BernoulliLoss:
    """Independent random drops with a fixed probability."""

    def __init__(self, rate: float, rng) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate {rate} outside [0, 1]")
        self.rate = rate
        self._rng = rng

    def should_drop(self, packet: Packet, now_us: int) -> bool:
        return self._rng.random() < self.rate


class WindowLoss:
    """Drop every packet whose wire entry falls in given time windows.

    Reproduces the paper's consecutive-loss episodes: an interface or
    path blackout drops a whole flight (or several successive
    retransmissions of it).
    """

    def __init__(self, windows: list[tuple[int, int]]) -> None:
        self.windows = sorted(windows)

    def should_drop(self, packet: Packet, now_us: int) -> bool:
        return any(start <= now_us < end for start, end in self.windows)


class CountedLoss:
    """Drop the next ``count`` packets once armed (then pass everything)."""

    def __init__(self, count: int) -> None:
        self.remaining = count

    def arm(self, count: int) -> None:
        """Re-arm the model to drop the next ``count`` packets."""
        self.remaining = count

    def should_drop(self, packet: Packet, now_us: int) -> bool:
        if self.remaining > 0:
            self.remaining -= 1
            return True
        return False


class GilbertElliottLoss:
    """Two-state bursty loss (good/bad channel) — models congestion bursts."""

    def __init__(
        self,
        rng,
        p_good_to_bad: float = 0.001,
        p_bad_to_good: float = 0.2,
        loss_in_bad: float = 0.8,
        loss_in_good: float = 0.0,
    ) -> None:
        self._rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.loss_in_bad = loss_in_bad
        self.loss_in_good = loss_in_good
        self._bad = False

    def should_drop(self, packet: Packet, now_us: int) -> bool:
        if self._bad:
            if self._rng.random() < self.p_bad_to_good:
                self._bad = False
        else:
            if self._rng.random() < self.p_good_to_bad:
                self._bad = True
        rate = self.loss_in_bad if self._bad else self.loss_in_good
        return rate > 0 and self._rng.random() < rate


class LinkStats:
    """Counters a link accumulates over its lifetime."""

    def __init__(self) -> None:
        self.enqueued = 0
        self.delivered = 0
        self.dropped_buffer = 0
        self.dropped_loss = 0
        self.bytes_delivered = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkStats(enq={self.enqueued} del={self.delivered} "
            f"buf_drop={self.dropped_buffer} loss_drop={self.dropped_loss})"
        )


class Link:
    """A unidirectional link with finite drop-tail buffering.

    ``deliver`` is the downstream consumer (a host's ``deliver`` method
    or the entry point of another link in a path).  ``taps`` observe
    packets as serialization completes.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bandwidth_bps: float,
        propagation_delay_us: int,
        deliver: Callable[[Packet], None],
        buffer_packets: int = 1000,
        loss_model: LossModel | None = None,
        jitter_us: int = 0,
        jitter_rng=None,
    ) -> None:
        """``jitter_us`` adds a uniform random extra delay in
        [0, jitter_us] per packet (seed it via ``jitter_rng``).  Jitter
        never reorders: a packet is held back until its predecessor's
        delivery time."""
        if bandwidth_bps <= 0:
            raise ValueError(f"non-positive bandwidth {bandwidth_bps}")
        if propagation_delay_us < 0:
            raise ValueError(f"negative delay {propagation_delay_us}")
        if buffer_packets < 1:
            raise ValueError(f"buffer must hold at least one packet")
        if jitter_us < 0:
            raise ValueError(f"negative jitter {jitter_us}")
        if jitter_us and jitter_rng is None:
            raise ValueError("jitter requires a seeded jitter_rng")
        self.sim = sim
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.propagation_delay_us = propagation_delay_us
        self.deliver = deliver
        self.buffer_packets = buffer_packets
        self.loss_model: LossModel = loss_model or NoLoss()
        self.jitter_us = jitter_us
        self._jitter_rng = jitter_rng
        self._last_arrival_us = 0
        self.taps: list[Callable[[Packet, int], None]] = []
        self.stats = LinkStats()
        self._queue: deque[Packet] = deque()
        self._busy = False

    def add_tap(self, tap: Callable[[Packet, int], None]) -> None:
        """Register a passive observer called as ``tap(packet, time_us)``."""
        self.taps.append(tap)

    def serialization_delay_us(self, packet: Packet) -> int:
        """Microseconds to clock ``packet`` onto the wire."""
        return max(1, round(packet.wire_length * 8 * US_PER_SECOND / self.bandwidth_bps))

    def send(self, packet: Packet) -> bool:
        """Enqueue ``packet``; returns False if the buffer dropped it."""
        self.stats.enqueued += 1
        if len(self._queue) >= self.buffer_packets:
            self.stats.dropped_buffer += 1
            return False
        self._queue.append(packet)
        if not self._busy:
            self._start_next()
        return True

    @property
    def queue_depth(self) -> int:
        """Number of packets waiting or in serialization."""
        return len(self._queue)

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        packet = self._queue[0]
        self.sim.schedule(
            self.serialization_delay_us(packet), self._serialized, packet
        )

    def _serialized(self, packet: Packet) -> None:
        self._queue.popleft()
        now = self.sim.now
        for tap in self.taps:
            tap(packet, now)
        if self.loss_model.should_drop(packet, now):
            self.stats.dropped_loss += 1
        else:
            delay = self.propagation_delay_us
            if self.jitter_us:
                delay += self._jitter_rng.randint(0, self.jitter_us)
            # FIFO guarantee: jitter delays, it never reorders.
            arrival = max(now + delay, self._last_arrival_us)
            self._last_arrival_us = arrival
            self.sim.schedule(arrival - now, self._arrive, packet)
        self._start_next()

    def _arrive(self, packet: Packet) -> None:
        self.stats.delivered += 1
        self.stats.bytes_delivered += packet.wire_length
        self.deliver(packet)


class PathSegmentChain:
    """Several links in series forming one direction of a path.

    The paper's collection setup is ``Sender --upstream--> Sniffer
    --downstream--> Receiver``; a chain of two links with a tap on the
    first link's egress models it exactly.
    """

    def __init__(self, links: list[Link]) -> None:
        if not links:
            raise ValueError("a path needs at least one link")
        self.links = links
        for upstream, downstream in zip(links, links[1:]):
            upstream.deliver = downstream.send

    @property
    def entry(self) -> Link:
        """The first link; feed packets into ``entry.send``."""
        return self.links[0]

    @property
    def exit(self) -> Link:
        """The last link; its ``deliver`` reaches the destination host."""
        return self.links[-1]

    def send(self, packet: Packet) -> bool:
        """Inject a packet at the head of the chain."""
        return self.entry.send(packet)
