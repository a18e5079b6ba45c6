"""EventLoop edge cases the fault layer leans on.

Fault callbacks cancel timers belonging to *other* subsystems (a churn
eviction cancels a pending P2P timeout; a heal cancels a retry), and
heal events are frequently scheduled at the exact current instant, so
cancellation-from-inside-a-callback and at-now ordering must be exact.
"""

import pytest

from repro.net.clock import EventLoop
from repro.net.network import Network
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom

from tests.chaos.gen import pad_past_depth_gate


class TestCancelFromCallback:
    def test_fault_callback_cancels_repeating_handle(self):
        """Cancelling someone else's RepeatingHandle from inside a
        callback stops the chain even when its next tick is already due."""
        loop = EventLoop()
        ticks = []
        repeating = loop.call_every(1.0, lambda: ticks.append(loop.now))
        # The "fault" fires at the same instant as the 3rd tick but was
        # scheduled earlier, so it runs first and must suppress that tick.
        loop.schedule(3.0, repeating.cancel)
        loop.run(10.0)
        assert ticks == [1.0, 2.0]
        assert loop.pending == 0

    def test_repeating_handle_cancels_its_own_chain(self):
        loop = EventLoop()
        ticks = []

        def tick():
            ticks.append(loop.now)
            if len(ticks) == 2:
                handle.cancel()

        handle = loop.call_every(1.0, tick)
        loop.run(10.0)
        assert ticks == [1.0, 2.0]

    def test_cancelling_plain_timer_from_sibling_callback(self):
        loop = EventLoop()
        fired = []
        victim = loop.schedule(5.0, lambda: fired.append("victim"))
        loop.schedule(1.0, victim.cancel)
        loop.run(10.0)
        assert fired == []
        assert loop.pending == 0

    def test_cancel_after_fire_is_harmless(self):
        loop = EventLoop()
        fired = []
        handle = loop.schedule(1.0, lambda: fired.append(1))
        loop.run(2.0)
        handle.cancel()  # already fired; must not blow up
        assert fired == [1]


class TestAtNowOrdering:
    def test_zero_delay_events_fire_in_scheduling_order(self):
        """Heals scheduled at the current instant (duration=0 faults)
        run after already-queued same-time events, FIFO by sequence."""
        loop = EventLoop()
        order = []

        def first():
            order.append("first")
            # Scheduled mid-callback at delay 0: runs after 'second',
            # which was queued earlier at the same timestamp.
            loop.schedule(0.0, lambda: order.append("third"))

        loop.schedule(1.0, first)
        loop.schedule(1.0, lambda: order.append("second"))
        loop.run(1.0)
        assert order == ["first", "second", "third"]

    def test_schedule_at_now_is_allowed(self):
        loop = EventLoop()
        loop.run(5.0)
        fired = []
        loop.schedule_at(loop.now, lambda: fired.append(loop.now))
        loop.run(0.0)
        assert fired == [5.0]

    def test_schedule_in_the_past_raises(self):
        loop = EventLoop()
        loop.run(5.0)
        with pytest.raises(ConfigurationError, match="cannot schedule"):
            loop.schedule_at(4.9, lambda: None)
        with pytest.raises(ConfigurationError, match="cannot schedule"):
            loop.schedule(-0.1, lambda: None)

    def test_now_never_goes_backwards_across_zero_delay_cascade(self):
        loop = EventLoop()
        seen = []

        def cascade(depth):
            seen.append(loop.now)
            if depth:
                loop.schedule(0.0, cascade, depth - 1)

        loop.schedule(2.0, cascade, 5)
        loop.run(3.0)
        assert seen == [2.0] * 6
        assert loop.now == 3.0


class TestRunAllExactBound:
    def test_bound_is_exact_not_off_by_one(self):
        """run_all(max_events=N) with a livelock fires exactly N events —
        never the N+1-th — before raising (the seed fired N+1)."""
        loop = EventLoop()
        fired = []

        def rescheduling():
            fired.append(loop.now)
            loop.schedule(0.0, rescheduling)

        loop.schedule(0.0, rescheduling)
        with pytest.raises(RuntimeError, match="exceeded 10 events"):
            loop.run_all(max_events=10)
        assert len(fired) == 10

    def test_draining_exactly_max_events_does_not_raise(self):
        """A queue of exactly max_events drains cleanly: the bound only
        trips when live events remain past it."""
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(float(i), fired.append, i)
        loop.run_all(max_events=10)
        assert fired == list(range(10))
        assert loop.pending == 0

    def test_bound_counts_fast_events_too(self):
        """Anonymous heap entries (a shallow loop's datagram deliveries)
        count against the bound like handle-based timers."""
        net = Network(rand=DeterministicRandom("bound"))
        a = net.add_host("a")
        b = net.add_host("b")

        def echo(payload, src, sock):
            sock.send(src, payload)

        a_sock = a.bind_udp(500, handler=echo)
        b.bind_udp(500, handler=echo).send(a_sock.endpoint, b"ping")
        with pytest.raises(RuntimeError, match="exceeded 5 events"):
            net.loop.run_all(max_events=5)
        assert net.datagrams_delivered == 5


class TestPendingCounter:
    """pending is an O(1) live counter; every transition must keep it exact."""

    def test_cancel_decrements_exactly_once(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        assert loop.pending == 1
        handle.cancel()
        assert loop.pending == 0
        handle.cancel()  # double-cancel must not decrement again
        assert loop.pending == 0
        loop.run_all()
        assert loop.pending == 0

    def test_cancel_after_fire_does_not_decrement(self):
        loop = EventLoop()
        handle = loop.schedule(1.0, lambda: None)
        other = loop.schedule(2.0, lambda: None)
        loop.run(1.5)
        assert loop.pending == 1  # only `other` remains
        handle.cancel()
        assert loop.pending == 1
        assert other is not None

    def test_repeating_handle_counts_as_one_pending(self):
        loop = EventLoop()
        repeating = loop.call_every(1.0, lambda: None)
        loop.schedule(0.5, lambda: None)
        assert loop.pending == 2
        loop.run(3.2)
        assert loop.pending == 1  # the repeating chain's next tick
        repeating.cancel()
        assert loop.pending == 0

    def test_pending_matches_queue_scan_across_mixed_churn(self):
        """Counter == brute-force scan (heap + wheel buckets + cursor)
        after a seeded mix of schedule, schedule_at, cancel, dispatch on
        a loop padded past the wheel's depth gate."""
        from repro.net.clock import TimerHandle

        loop = EventLoop()
        pad_past_depth_gate(loop)
        rand = DeterministicRandom("pending-churn")
        handles = []
        for _ in range(500):
            roll = rand.random()
            if roll < 0.4:
                handles.append(loop.schedule(rand.uniform(0, 5), lambda: None))
            elif roll < 0.6:
                loop.schedule_at(loop.now + rand.uniform(0, 5), lambda: None)
            elif roll < 0.8 and handles:
                handles.pop(rand.randint(0, len(handles) - 1)).cancel()
            else:
                loop.run(rand.uniform(0, 0.5))
        live_queued = sum(
            1 for entry in loop._iter_queued()
            if len(entry) == 4 or not entry[2].cancelled
        )
        assert loop.pending == live_queued
        loop.run_all()
        assert loop.pending == 0
        assert isinstance(handles[0], TimerHandle)


class TestScheduleAt:
    def test_fires_in_when_seq_order_with_plain_timers(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, order.append, "plain")
        loop.schedule_at(1.0, order.append, "absolute-second")
        loop.schedule_at(0.5, order.append, "absolute-first")
        loop.run_all()
        assert order == ["absolute-first", "plain", "absolute-second"]
        assert loop.now == 1.0

    def test_absolute_events_drive_the_clock(self):
        loop = EventLoop()
        seen = []
        loop.schedule_at(2.5, lambda: seen.append(loop.now))
        loop.run_all()
        assert seen == [2.5]
        assert loop.events_fired == 1
