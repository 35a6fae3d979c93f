"""BGP sender behaviour models.

How a router hands its table to TCP determines the sender-side delay
factors T-DAT measures:

* :class:`ImmediateSender` — everything enters the socket at once; the
  transfer is never application-limited (TCP windows dominate).
* :class:`TimerBatchSender` — the undocumented timer-driven behaviour
  of Houidi et al. [15] that the paper confirms (section II-B1): a
  fixed number of messages per timer tick (80/100/200/400 ms observed),
  leaving periodic gaps on the wire.
* :class:`RateLimitedSender` — a token-bucket style pacing model for
  routers with an outbound update rate limit.

Models receive *encoded* messages (byte strings) so they are agnostic
to BGP message structure.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable

from repro.core.units import US_PER_SECOND
from repro.netsim.simulator import PeriodicTimer, Simulator


class SenderModel:
    """Base: feeds encoded messages into a TCP write callback."""

    def __init__(self) -> None:
        self._queue: deque[bytes] = deque()
        self._write: Callable[[bytes], None] | None = None
        self.on_drained: Callable[[], None] | None = None
        self.total_messages = 0

    def attach(self, write: Callable[[bytes], None]) -> None:
        """Bind the TCP write callback (done by the BGP session)."""
        self._write = write

    def enqueue(self, messages: Iterable[bytes]) -> None:
        """Queue encoded messages for transmission."""
        self._queue.extend(messages)
        self._kick()

    def _emit(self, count: int | None = None) -> None:
        assert self._write is not None, "sender model not attached"
        sent = 0
        while self._queue and (count is None or sent < count):
            self._write(self._queue.popleft())
            self.total_messages += 1
            sent += 1
        if not self._queue and sent and self.on_drained is not None:
            self.on_drained()

    def _kick(self) -> None:
        raise NotImplementedError

    def stop(self) -> None:
        """Cancel any internal timers (session torn down)."""


class ImmediateSender(SenderModel):
    """Write every queued message to TCP as soon as it is enqueued."""

    def _kick(self) -> None:
        self._emit()


class TimerBatchSender(SenderModel):
    """Send ``messages_per_tick`` messages every ``interval_us``.

    Reproduces the timer-driven implementation behind the paper's "gaps
    in table transfers": each expiration releases a burst, then the
    connection idles until the next tick.
    """

    def __init__(
        self,
        sim: Simulator,
        interval_us: int,
        messages_per_tick: int,
    ) -> None:
        super().__init__()
        if messages_per_tick <= 0:
            raise ValueError(f"non-positive batch {messages_per_tick}")
        self.sim = sim
        self.interval_us = interval_us
        self.messages_per_tick = messages_per_tick
        self._timer = PeriodicTimer(sim, interval_us, self._tick, name="bgp-batch")

    def _kick(self) -> None:
        if not self._timer.running and self._queue:
            self._timer.start(initial_delay_us=0)

    def _tick(self) -> None:
        self._emit(self.messages_per_tick)
        if not self._queue:
            self._timer.stop()

    def stop(self) -> None:
        self._timer.stop()


class RateLimitedSender(SenderModel):
    """Pace messages so the byte rate approximates ``bytes_per_second``."""

    def __init__(self, sim: Simulator, bytes_per_second: float) -> None:
        super().__init__()
        if bytes_per_second <= 0:
            raise ValueError(f"non-positive rate {bytes_per_second}")
        self.sim = sim
        self.bytes_per_second = bytes_per_second
        self._scheduled = False

    def _kick(self) -> None:
        if not self._scheduled and self._queue:
            self._scheduled = True
            self.sim.schedule(0, self._send_next)

    def _send_next(self) -> None:
        self._scheduled = False
        if not self._queue:
            return
        message = self._queue[0]
        delay = max(1, round(len(message) * US_PER_SECOND / self.bytes_per_second))
        self._emit(1)
        if self._queue:
            self._scheduled = True
            self.sim.schedule(delay, self._send_next)
        # on_drained fires inside _emit when the queue empties.
