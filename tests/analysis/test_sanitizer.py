"""DetSan: guard trips, clean restore, and dispatch-trace divergence.

The guard tests fabricate "simulation" callers by exec-ing functions
under a controlled ``__name__`` — DetSan keys on the caller frame's
module, so that is the only thing the fixture needs to fake — and
assert the violation names the exact file/line/function of the read.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.analysis.sanitizer import (
    DetSanViolation,
    DispatchTrace,
    _Guards,
    first_divergence,
    sanitized_run,
)
from repro.net.clock import EventLoop
from repro.util.rand import DeterministicRandom


def make_caller(module_name: str, body: str, filename: str = "<sim-fixture>"):
    """Compile ``def probe(): return <body>`` under a fake module name."""
    namespace = {"__name__": module_name, "time": time, "random": random}
    code = compile(f"def probe():\n    return {body}\n", filename, "exec")
    exec(code, namespace)
    return namespace["probe"]


@pytest.fixture
def guards():
    g = _Guards()
    g.install()
    yield g
    g.uninstall()


class TestGuards:
    def test_wall_clock_read_from_sim_module_raises(self, guards):
        probe = make_caller("repro.experiments.fake", "time.time()")
        with pytest.raises(DetSanViolation) as exc:
            probe()
        message = str(exc.value)
        assert "`time.time`" in message
        assert "<sim-fixture>:2 in probe" in message  # the offending stack
        assert "repro.experiments.fake" in message

    def test_global_rng_draw_from_sim_module_raises(self, guards):
        probe = make_caller("repro.net.fake", "random.random()")
        with pytest.raises(DetSanViolation, match="`random.random`"):
            probe()

    def test_non_project_callers_pass_through(self, guards):
        # This test module is not repro.*; the host clock must work.
        assert time.time() > 0
        assert 0.0 <= random.random() < 1.0

    @pytest.mark.parametrize(
        "module", ["repro.util.perf", "repro.analysis.engine", "repro.harness.runner"]
    )
    def test_sanctioned_prefixes_pass_through(self, guards, module):
        probe = make_caller(module, "time.monotonic()")
        assert probe() > 0

    def test_deterministic_random_unaffected(self, guards):
        # DeterministicRandom binds instance methods at construction;
        # the module-level patch must not reach it even when drawn from
        # simulation code.
        rand = DeterministicRandom(2024)
        probe = make_caller("repro.experiments.fake", "rand.uniform(0.0, 1.0)")
        probe.__globals__["rand"] = rand
        assert 0.0 <= probe() <= 1.0

    def test_install_is_idempotent_and_restores_exactly(self):
        original_time, original_random = time.time, random.random
        outer, inner = _Guards(), _Guards()
        outer.install()
        inner.install()  # must not re-wrap the already-guarded functions
        assert not hasattr(getattr(time.time, "__detsan_original__"), "__detsan_original__")
        inner.uninstall()
        assert hasattr(time.time, "__detsan_original__")  # outer still armed
        outer.uninstall()
        assert time.time is original_time
        assert random.random is original_random


def run_loop(schedule, stride: int = 4):
    """Run ``[(when, callback), ...]`` under a trace; return the snapshot."""
    with sanitized_run(stride=stride) as detsan:
        loop = EventLoop()
        for when, callback in schedule:
            loop.schedule_at(when, callback)
        loop.run_all()
    return detsan.snapshot()


def cb_a():
    pass


def cb_b():
    pass


def cb_c():
    pass


class TestDispatchTrace:
    def test_identical_runs_have_identical_fingerprints(self):
        schedule = [(1.0, cb_a), (2.0, cb_b), (3.0, cb_c)]
        first, second = run_loop(schedule), run_loop(schedule)
        assert first.count == 3
        assert first.fingerprint == second.fingerprint
        assert first_divergence(first, second) is None

    def test_order_divergence_names_the_event(self):
        base = [(1.0, cb_a), (2.0, cb_b), (3.0, cb_c)]
        swapped = [(1.0, cb_a), (2.0, cb_c), (3.0, cb_b)]
        divergence = first_divergence(run_loop(base), run_loop(swapped))
        assert divergence is not None
        assert divergence.index == 1  # first event both runs agree on is #0
        assert "cb_b" in divergence.detail and "cb_c" in divergence.detail
        assert "t=2.000000" in divergence.detail
        assert divergence.render().startswith("first divergent event #1:")

    def test_timing_divergence_names_the_event(self):
        base = [(1.0, cb_a), (2.0, cb_b)]
        late = [(1.0, cb_a), (2.5, cb_b)]
        divergence = first_divergence(run_loop(base), run_loop(late))
        assert divergence is not None
        assert divergence.index == 1
        assert "t=2.000000" in divergence.detail and "t=2.500000" in divergence.detail

    def test_extra_event_reported_as_length_divergence(self):
        base = [(1.0, cb_a), (2.0, cb_b)]
        extra = [(1.0, cb_a), (2.0, cb_b), (3.0, cb_c)]
        divergence = first_divergence(run_loop(base), run_loop(extra))
        assert divergence is not None
        assert divergence.index == 2
        assert "run lengths differ (2 vs 3 events)" in divergence.detail
        assert "cb_c" in divergence.detail  # the first extra event is named

    def test_checkpoints_bound_old_divergence(self):
        # Divergence at event #0 with a tail window that has long since
        # slid past it: the checkpoint stream must still bound it.
        import repro.analysis.sanitizer as sanitizer_mod

        many = [(float(i), cb_a) for i in range(1, 40)]
        base = [(0.5, cb_b)] + many
        other = [(0.5, cb_c)] + many
        original_window = sanitizer_mod.TRACE_WINDOW
        sanitizer_mod.TRACE_WINDOW = 8
        try:
            divergence = first_divergence(
                run_loop(base, stride=16), run_loop(other, stride=16)
            )
        finally:
            sanitizer_mod.TRACE_WINDOW = original_window
        assert divergence is not None
        assert divergence.index == 0
        assert "between events #0 and #16" in divergence.detail

    def test_trace_seam_cleared_after_context(self):
        run_loop([(1.0, cb_a)])
        assert EventLoop._observers == ()

    def test_snapshot_is_plain_data(self):
        import pickle

        snapshot = run_loop([(1.0, cb_a), (2.0, cb_b)])
        clone = pickle.loads(pickle.dumps(snapshot))
        assert first_divergence(snapshot, clone) is None


class TestSanitizedRunEndToEnd:
    def test_injected_wall_clock_read_caught_mid_run(self):
        # The canonical seeded violation: an event callback that reads
        # the host clock. The run must die at that callback with the
        # injection site in the message.
        leak = make_caller("repro.experiments.fake", "time.perf_counter()")
        with pytest.raises(DetSanViolation, match="time.perf_counter"):
            with sanitized_run():
                loop = EventLoop()
                loop.schedule_at(1.0, cb_a)
                loop.schedule_at(2.0, leak)
                loop.run_all()
        # Guards must be gone even though the run raised.
        assert not hasattr(time.perf_counter, "__detsan_original__")
        assert EventLoop._observers == ()

    def test_trace_disabled_when_not_wanted(self):
        with sanitized_run(trace=False) as detsan:
            loop = EventLoop()
            loop.schedule_at(1.0, cb_a)
            loop.run_all()
        assert detsan.snapshot() is None
