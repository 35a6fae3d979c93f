"""Unit tests for the discrete-event simulator and timers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.simulator import (
    PeriodicTimer,
    SimBudgetExceeded,
    Simulator,
    Timer,
)


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(30, log.append, "c")
        sim.schedule(10, log.append, "a")
        sim.schedule(20, log.append, "b")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 30

    def test_ties_run_in_schedule_order(self):
        sim = Simulator()
        log = []
        for label in "abc":
            sim.schedule(10, log.append, label)
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(10, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_run_until_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 1)
        sim.schedule(100, fired.append, 2)
        sim.run(until_us=50)
        assert fired == [1]
        assert sim.now == 50
        sim.run()
        assert fired == [1, 2]

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        log = []

        def chain(n):
            log.append((sim.now, n))
            if n < 3:
                sim.schedule(5, chain, n + 1)

        sim.schedule(0, chain, 0)
        sim.run()
        assert log == [(0, 0), (5, 1), (10, 2), (15, 3)]

    def test_pending_counts_uncancelled(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        event = sim.schedule(20, lambda: None)
        event.cancel()
        assert sim.pending() == 1


class TestEventOrder:
    """Heap entries order by (time, scheduling order), never by event."""

    def test_ties_across_scheduling_times_run_in_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(10, log.append, "first")
        sim.schedule(5, lambda: sim.schedule(5, log.append, "third"))
        sim.schedule(10, log.append, "second")
        sim.run()
        assert log == ["first", "second", "third"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
    def test_events_run_by_time_then_schedule_order(self, delays):
        sim = Simulator()
        log = []
        for index, delay in enumerate(delays):
            sim.schedule(delay, log.append, (delay, index))
        assert sim.run() == len(delays)
        assert log == sorted(log)

    def test_cancelled_events_are_skipped_wherever_they_sit(self):
        sim = Simulator()
        log = []
        head = sim.schedule(10, log.append, "head")
        sim.schedule(10, log.append, "kept")
        later = sim.schedule(20, log.append, "later")
        sim.schedule(10, later.cancel)  # cancelled while the run is on
        head.cancel()
        assert sim.run() == 2
        assert log == ["kept"]
        assert sim.now == 10

    def test_pending_counts_only_live_events(self):
        sim = Simulator()
        events = [sim.schedule(t, lambda: None) for t in (10, 10, 20, 30)]
        events[1].cancel()
        assert sim.pending() == 3
        sim.run(until_us=15)
        assert sim.pending() == 2
        events[3].cancel()
        events[3].cancel()
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0


class TestTimer:
    def test_fires_once(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.run()
        assert fired == [100]
        assert not timer.armed

    def test_restart_resets_deadline(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        sim.schedule(50, timer.restart, 100)
        sim.run()
        assert fired == [150]

    def test_stop(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(100)
        timer.stop()
        sim.run()
        assert fired == []

    def test_restarts_leave_one_live_event(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for _ in range(5):
            timer.restart(100)
        assert sim.pending() == 1
        sim.schedule(60, timer.restart, 10)
        sim.run()
        assert fired == [70]
        assert sim.pending() == 0 and not timer.armed

    def test_restart_after_fire(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(10)
        sim.run()
        timer.start(10)
        sim.run()
        assert fired == [10, 20]


class TestPeriodicTimer:
    def test_ticks_at_interval(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 100, lambda: ticks.append(sim.now))
        timer.start()
        sim.run(until_us=350)
        timer.stop()
        assert ticks == [100, 200, 300]

    def test_initial_delay(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 100, lambda: ticks.append(sim.now))
        timer.start(initial_delay_us=0)
        sim.run(until_us=250)
        timer.stop()
        assert ticks == [0, 100, 200]

    def test_stop_halts_ticks(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 10, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(35, timer.stop)
        sim.run(until_us=100)
        assert ticks == [10, 20, 30]

    def test_restart_resets_the_phase(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 100, lambda: ticks.append(sim.now))
        timer.start()
        sim.schedule(150, timer.start)
        sim.run(until_us=400)
        timer.stop()
        assert ticks == [100, 250, 350]
        assert sim.pending() == 0

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0, lambda: None)


class TestSimBudget:
    @staticmethod
    def _endless(sim, fired):
        """A self-rescheduling event: the shape of a pathological loop."""
        def tick():
            fired.append(sim.now)
            sim.schedule(1, tick)
        sim.schedule(1, tick)

    def test_event_budget_raises(self):
        sim = Simulator()
        fired = []
        self._endless(sim, fired)
        with pytest.raises(SimBudgetExceeded) as err:
            sim.run(max_events=100)
        # Exactly N events ran; the (N+1)-th due event raised.
        assert err.value.events == 100
        assert len(fired) == 100
        assert err.value.now_us == sim.now == 100

    def test_budget_not_hit_is_invisible(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(i, fired.append, i)
        # Exactly at the limit, and a limit whose next event lies past
        # until_us: neither raises.
        assert sim.run(max_events=10) == 10
        assert fired == list(range(10))
        sim.schedule(5, fired.append, 10)
        sim.schedule(50, fired.append, 11)
        assert sim.run(until_us=20, max_events=1) == 1
        assert fired == list(range(11))
