"""Tests for the event-loop observers behind ``--profile``."""

from repro.harness.profile import (
    SiteProfiler,
    callback_of,
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


class TestCaptureEvents:
    def test_observes_every_loop_instance(self):
        seen = []
        loops = [EventLoop(), EventLoop()]
        with capture_events(lambda observed, entry: seen.append((observed, observed.now, callback_of(entry)))):
            for i, loop in enumerate(loops):
                loop.schedule_at(float(i), _tick)
                loop.run_until(5.0)
        assert seen == [(loops[0], 0.0, _tick), (loops[1], 1.0, _tick)]

    def test_observer_removed_after_the_block(self):
        loop = EventLoop()
        seen = []
        with capture_events(lambda observed, entry: seen.append(observed.now)):
            loop.schedule_at(0.0, _tick)
            loop.run_until(1.0)
        loop.schedule_at(2.0, _tick)
        loop.run_until(3.0)
        assert seen == [0.0]
        assert EventLoop._observers == ()


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
