"""Deterministic discrete-event simulator.

The paper analyzed a year of traces from operational routers; we stand
in for that testbed with a discrete-event simulation whose clock runs in
integer microseconds (the same resolution tcpdump records).  The
simulator is strictly deterministic: events firing at the same instant
execute in scheduling order, so a seeded run always produces the same
pcap byte-for-byte.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from typing import Any

from repro.obs import CLOCK_SIM, get_obs


class SimBudgetExceeded(RuntimeError):
    """A simulation run hit its ``max_events`` watchdog limit.

    A pathological scenario (e.g. a zero-window probe loop that never
    drains) keeps generating events forever; inside a worker process
    that hangs the whole campaign pool.  The limit turns the hang into
    this error, which the campaign converts into a
    ``sim-budget-exceeded`` health issue.  Event counts are
    deterministic (same seed, same count), so an overrun is a property
    of the scenario, not of the machine, and is never retried.
    """

    def __init__(self, events: int, now_us: int) -> None:
        self.events = events
        self.now_us = now_us
        super().__init__(
            f"simulation exceeded its event budget after {events} "
            f"event(s) (sim time {now_us}us)"
        )


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped.
    """

    __slots__ = ("time", "callback", "args", "cancelled")

    def __init__(
        self, time: int, callback: Callable[..., Any], args: tuple
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        self.cancelled = True


class Simulator:
    """An event-heap simulator with an integer microsecond clock.

    Heap entries are ``(time, seq, event)`` tuples: ``seq`` is unique,
    so entries order by time, then by scheduling order, and the heap
    compares them in C without ever reaching the event.
    """

    def __init__(self) -> None:
        self._now = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = itertools.count()

    @property
    def now(self) -> int:
        """The current simulation time in microseconds."""
        return self._now

    def schedule(
        self, delay_us: int, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Run ``callback(*args)`` after ``delay_us`` microseconds."""
        if delay_us < 0:
            raise ValueError(f"negative delay {delay_us}")
        time_us = self._now + delay_us
        event = Event(time_us, callback, args)
        heapq.heappush(self._heap, (time_us, next(self._seq), event))
        return event

    def run(
        self, until_us: int | None = None, max_events: int | None = None
    ) -> int:
        """Process events until the heap drains or ``until_us`` passes.

        Returns the number of events executed.  ``until_us`` is an
        inclusive time bound.  ``max_events`` is the watchdog: when that
        many events have run and another is due (before ``until_us``),
        the run raises :class:`SimBudgetExceeded` instead of spinning
        on; a run that finishes within the limit never notices it.
        """
        executed = 0
        # Observability is aggregated per *run*, never per event: the
        # totals flush once into the ambient registry when the run
        # ends, so the hot loop's per-event cost is unchanged whether
        # observability is on or off.
        obs = get_obs()
        start_time_us = self._now
        queue_peak = len(self._heap)
        try:
            while self._heap:
                if until_us is not None and self._heap[0][0] > until_us:
                    self._now = until_us
                    break
                if max_events is not None and executed >= max_events:
                    raise SimBudgetExceeded(executed, self._now)
                time_us, _, event = heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = time_us
                event.callback(*event.args)
                executed += 1
                # Deterministic queue-depth sampling: the sampling
                # points are event counts, so the observed peak is a
                # property of the scenario, not of the host.
                if obs.enabled and not executed % 4096:
                    depth = len(self._heap)
                    if depth > queue_peak:
                        queue_peak = depth
        finally:
            if obs.enabled:
                metrics = obs.metrics
                metrics.counter("sim.events").inc(executed)
                metrics.counter("sim.runs").inc()
                depth = len(self._heap)
                metrics.gauge("sim.queue_depth").set(max(queue_peak, depth))
                if max_events:
                    metrics.gauge("sim.budget_consumed").set(
                        executed / max_events
                    )
                obs.tracer.add_span(
                    "sim.run",
                    start_us=start_time_us,
                    dur_us=self._now - start_time_us,
                    clock=CLOCK_SIM,
                    args={"events": executed},
                )
        return executed

    def pending(self) -> int:
        """Count of not-yet-cancelled events still queued."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)


class Timer:
    """A restartable one-shot timer bound to a simulator.

    This is the idiom BGP hold/keepalive timers and TCP's RTO need:
    ``restart`` reschedules, ``stop`` cancels, and a fired timer can be
    restarted again.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], Any],
        name: str = "timer",
    ) -> None:
        self._sim = sim
        self._callback = callback
        self.name = name
        self._event: Event | None = None

    @property
    def armed(self) -> bool:
        """True while the timer is scheduled and not yet fired."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay_us: int) -> None:
        """Arm the timer; restarts it if already armed."""
        self.stop()
        self._event = self._sim.schedule(delay_us, self._fire)

    restart = start

    def stop(self) -> None:
        """Disarm the timer if armed."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()


class PeriodicTimer:
    """A repeating timer (e.g. BGP keepalives, batching ticks)."""

    def __init__(
        self,
        sim: Simulator,
        interval_us: int,
        callback: Callable[[], Any],
        name: str = "periodic",
    ) -> None:
        if interval_us <= 0:
            raise ValueError(f"non-positive interval {interval_us}")
        self._sim = sim
        self.interval_us = interval_us
        self._callback = callback
        self.name = name
        self._event: Event | None = None

    @property
    def running(self) -> bool:
        """True while ticks are being scheduled."""
        return self._event is not None

    def start(self, initial_delay_us: int | None = None) -> None:
        """Begin ticking; first tick after ``initial_delay_us`` (default: one interval)."""
        self.stop()
        delay = self.interval_us if initial_delay_us is None else initial_delay_us
        self._event = self._sim.schedule(delay, self._tick)

    def stop(self) -> None:
        """Stop ticking."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> None:
        self._event = self._sim.schedule(self.interval_us, self._tick)
        self._callback()
