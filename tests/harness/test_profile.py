"""Tests for event-loop instrumentation sinks."""

from repro.harness.profile import (
    EventCounter,
    SiteProfiler,
    TraceSink,
    callsite_of,
    capture_events,
)
from repro.net.clock import EventLoop


def _tick() -> None:
    """A no-op callback with a stable module/qualname for site tests."""


class TestCallsite:
    def test_function_label(self):
        assert callsite_of(_tick) == f"{__name__}._tick"

    def test_object_without_metadata(self):
        class Calls:
            def __call__(self):
                pass

        label = callsite_of(Calls())
        assert isinstance(label, str) and label


class TestEventCounter:
    def test_counts_fired_events(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule_at(float(i), _tick)
        with capture_events(EventCounter()) as counter:
            loop.run_until(10.0)
        assert counter.total == 5
        assert counter.total == loop.events_fired

    def test_sink_removed_after_context(self):
        loop = EventLoop()
        with capture_events(EventCounter()) as counter:
            loop.schedule_at(0.0, _tick)
            loop.run_until(1.0)
        loop.schedule_at(2.0, _tick)
        loop.run_until(3.0)
        assert counter.total == 1

    def test_observes_every_loop_instance(self):
        with capture_events(EventCounter()) as counter:
            for _ in range(2):
                loop = EventLoop()
                loop.schedule_at(0.0, _tick)
                loop.run_until(1.0)
        assert counter.total == 2


class TestSiteProfiler:
    def run_profiled(self) -> SiteProfiler:
        loop = EventLoop()
        loop.schedule_at(0.0, _tick)
        loop.call_every(1.0, _tick)  # fires at 1, 2, 3; next pending at 4
        with capture_events(SiteProfiler()) as profiler:
            loop.run_until(3.0)
        return profiler

    def test_attributes_by_site(self):
        profiler = self.run_profiled()
        assert profiler.total == 4
        assert profiler.sites == {f"{__name__}._tick": 4}

    def test_top_and_render(self):
        profiler = self.run_profiled()
        assert profiler.top(1) == [(f"{__name__}._tick", 4)]
        rendered = profiler.render()
        assert "_tick" in rendered and "100.0%" in rendered

    def test_to_dict_shape(self):
        data = self.run_profiled().to_dict()
        assert data == {
            "total_events": 4,
            "sites": {f"{__name__}._tick": 4},
            # Timers never touch the wheel, and there is no datagram
            # plane here, so every wheel counter stays zero.
            "wheel": {
                "overflow": 0,
                "batched": 0,
                "batch_drains": 0,
                "max_occupancy": 0,
            },
        }

    def test_render_wheel_summary_includes_batching_when_present(self):
        from repro.harness.profile import render_wheel_summary

        quiet = render_wheel_summary(
            {"overflow": 0, "batched": 0, "batch_drains": 0, "max_occupancy": 0}
        )
        assert "batched delivery" not in quiet
        busy = render_wheel_summary(
            {"overflow": 0, "batched": 9, "batch_drains": 3, "max_occupancy": 4}
        )
        assert "9 datagrams over 3 drains (3.0/drain)" in busy


class TestTraceSink:
    def test_records_when_and_site(self):
        loop = EventLoop()
        loop.schedule_at(1.5, _tick)
        with capture_events(TraceSink()) as trace:
            loop.run_until(2.0)
        assert trace.events == [(1.5, f"{__name__}._tick")]
        assert trace.dropped == 0

    def test_bounded(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule_at(float(i), _tick)
        with capture_events(TraceSink(limit=3)) as trace:
            loop.run_until(10.0)
        assert len(trace.events) == 3
        assert trace.dropped == 2
