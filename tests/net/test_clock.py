"""Tests for the discrete-event loop."""

import pytest

from repro.net.clock import FIRED_TOTAL, EventLoop, RepeatingHandle
from repro.util.errors import ConfigurationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired = []
        loop.schedule(2.0, fired.append, "late")
        loop.schedule(1.0, fired.append, "early")
        loop.run_all()
        assert fired == ["early", "late"]

    def test_ties_fire_in_scheduling_order(self):
        loop = EventLoop()
        fired = []
        for i in range(5):
            loop.schedule(1.0, fired.append, i)
        loop.run_all()
        assert fired == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run_all()
        with pytest.raises(ConfigurationError):
            loop.schedule_at(0.5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, fired.append, "x")
        handle.cancel()
        loop.run_all()
        assert fired == []


class TestRunUntil:
    def test_run_until_advances_now_even_without_events(self):
        loop = EventLoop()
        loop.run_until(5.0)
        assert loop.now == 5.0

    def test_run_until_fires_only_due_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, fired.append, "a")
        loop.schedule(3.0, fired.append, "b")
        loop.run_until(2.0)
        assert fired == ["a"]
        assert loop.now == 2.0

    def test_run_is_relative(self):
        loop = EventLoop()
        loop.run(1.0)
        loop.run(1.0)
        assert loop.now == 2.0

    def test_events_scheduled_during_run_fire_in_same_window(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: loop.schedule(0.5, fired.append, "nested"))
        loop.run_until(2.0)
        assert fired == ["nested"]


class TestCallEvery:
    def test_repeats_until_cancelled(self):
        loop = EventLoop()
        ticks = []
        loop.call_every(1.0, lambda: ticks.append(loop.now))
        loop.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]

    def test_invalid_interval(self):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.call_every(0, lambda: None)

    def test_returns_repeating_handle_tracking_next_occurrence(self):
        loop = EventLoop()
        handle = loop.call_every(1.0, lambda: None)
        assert isinstance(handle, RepeatingHandle)
        assert handle.when == 1.0
        loop.run_until(2.5)
        assert handle.when == 3.0  # advanced past each fired tick

    def test_cancel_stops_the_chain(self):
        loop = EventLoop()
        ticks = []
        handle = loop.call_every(1.0, lambda: ticks.append(loop.now))
        loop.run_until(2.5)
        handle.cancel()
        loop.run_until(10.0)
        assert ticks == [1.0, 2.0]
        assert loop.pending == 0

    def test_callback_may_cancel_its_own_chain(self):
        loop = EventLoop()
        ticks = []

        def tick():
            ticks.append(loop.now)
            if len(ticks) == 2:
                handle.cancel()

        handle = loop.call_every(1.0, tick)
        loop.run_until(10.0)
        assert ticks == [1.0, 2.0]
        assert loop.pending == 0

    def test_pending_counts_one_entry_per_repeating_timer(self):
        loop = EventLoop()
        loop.call_every(1.0, lambda: None)
        assert loop.pending == 1
        loop.run_until(4.5)  # four ticks later, still a single heap entry
        assert loop.pending == 1

    def test_until_bounds_the_chain(self):
        loop = EventLoop()
        ticks = []
        loop.call_every(1.0, lambda: ticks.append(loop.now), until=2.5)
        loop.run_until(10.0)
        assert ticks == [1.0, 2.0]
        assert loop.pending == 0

    def test_runaway_guard(self):
        loop = EventLoop()

        def reschedule():
            loop.schedule(0.0, reschedule)

        loop.schedule(0.0, reschedule)
        with pytest.raises(RuntimeError):
            loop.run_all(max_events=100)


class TestObservation:
    def test_fired_total_sums_every_loop(self):
        before = FIRED_TOTAL[0]
        loops = [EventLoop(), EventLoop()]
        for n, loop in enumerate(loops, start=2):
            for i in range(n):
                loop.schedule_at(float(i), lambda: None)
            loop.run_until(10.0)
        assert [loop.events_fired for loop in loops] == [2, 3]
        assert FIRED_TOTAL[0] - before == 5

    def test_drains_rebind_no_class_attribute(self):
        # Rebinding a class attribute resets the interpreter's attribute
        # caches for every EventLoop, so drains count into FIRED_TOTAL's
        # cell and leave the class alone.
        before = dict(vars(EventLoop))
        loop = EventLoop()
        loop.schedule_at(1.0, lambda: None)
        loop.run_until(2.0)
        assert loop.events_fired == 1
        assert dict(vars(EventLoop)) == before

    def test_observer_runs_before_the_callback(self):
        loop = EventLoop()
        order = []

        def observe(observed, entry):
            order.append(("observed", observed.now))

        loop.schedule_at(1.0, lambda: order.append(("fired", loop.now)))
        loop.call_every(2.0, lambda: order.append(("tick", loop.now)), until=4.0)
        EventLoop.add_observer(observe)
        try:
            loop.run_until(5.0)
        finally:
            EventLoop.remove_observer(observe)
        assert order == [
            ("observed", 1.0), ("fired", 1.0),
            ("observed", 2.0), ("tick", 2.0),
            ("observed", 4.0), ("tick", 4.0),
        ]
        assert EventLoop._observers == ()

    def test_raising_callback_is_observed_but_not_counted(self):
        loop = EventLoop()
        seen = []

        def boom():
            raise ValueError("boom")

        def observe(observed, entry):
            seen.append(observed.now)

        loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, boom)
        before = FIRED_TOTAL[0]
        EventLoop.add_observer(observe)
        try:
            with pytest.raises(ValueError):
                loop.run_all()
        finally:
            EventLoop.remove_observer(observe)
        assert seen == [1.0, 2.0]
        assert loop.events_fired == 1
        assert FIRED_TOTAL[0] - before == 1
