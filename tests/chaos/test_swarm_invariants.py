"""Whole-swarm invariants under chaos, seed-driven.

These run the registered ``chaos`` experiment (small scale) across
generated seeds and every preset, asserting the properties that must
hold no matter what the plan did: datagram conservation, every player
accounted for (finished or stalled with CDN fallback available), no
event ever scheduled in the past, pollution never surviving integrity
checking, and byte-identical replay at the same seed.
"""

import hashlib

import pytest

from repro.experiments.chaos_faults import run as chaos_run
from repro.net.clock import EventLoop
from repro.net.faults import PLAN_PRESETS

from tests.chaos.gen import chaos_seeds

QUICK = dict(viewers=3, segments=5, segment_seconds=3.0, segment_bytes=30_000,
             join_stagger=1.5)


class _MonotonicNow:
    """EventLoop observer asserting simulated time never runs backwards."""

    def __init__(self):
        self.last = 0.0
        self.events = 0

    def __call__(self, loop, entry):
        assert loop.now >= self.last, f"time ran backwards: {loop.now} < {self.last}"
        # Observed before it fires, every event is exactly due: a
        # delivery's (when, seq, callback, args) entry, or a timer's
        # handle, repeating ones included.
        due = entry[0] if isinstance(entry, tuple) else entry.when
        assert due == loop.now
        self.last = loop.now
        self.events += 1


class TestChaosRunInvariants:
    @pytest.mark.parametrize("seed", chaos_seeds(3, "swarm"))
    def test_conservation_and_player_accounting(self, seed):
        result = chaos_run(seed=seed, faults="chaos-mix", **QUICK)
        assert result.conservation_ok
        assert sum(result.drops_by_reason.values()) == result.datagrams_dropped
        assert result.players_finished + result.players_stalled == result.viewers
        # A stalled-out player must have had the CDN fallback machinery
        # engaged (fallbacks or skips), not be silently wedged.
        if result.players_stalled:
            assert result.p2p_fallbacks + result.segments_skipped + result.stalls > 0

    @pytest.mark.parametrize("preset", sorted(PLAN_PRESETS))
    def test_every_preset_completes_with_conservation(self, preset):
        result = chaos_run(seed=chaos_seeds(1, f"preset:{preset}")[0],
                           faults=preset, **QUICK)
        assert result.conservation_ok
        assert result.plan_name == preset
        if preset == "calm":
            assert result.fault_events_applied == 0
            assert result.players_finished == result.viewers

    @pytest.mark.parametrize("seed", chaos_seeds(2, "replay"))
    def test_same_seed_same_digest(self, seed):
        first = chaos_run(seed=seed, faults="chaos-mix", **QUICK)
        second = chaos_run(seed=seed, faults="chaos-mix", **QUICK)
        assert first.content_digest() == second.content_digest()
        assert first.plan_digest == second.plan_digest

    def test_different_seeds_give_different_plans(self):
        seeds = chaos_seeds(3, "plan-spread")
        digests = {chaos_run(seed=s, faults="churn", **QUICK).plan_digest
                   for s in seeds}
        assert len(digests) > 1

    def test_no_event_fires_before_its_time(self):
        observer = _MonotonicNow()
        EventLoop.add_observer(observer)
        try:
            result = chaos_run(seed=chaos_seeds(1, "monotonic")[0],
                               faults="chaos-mix", **QUICK)
        finally:
            EventLoop.remove_observer(observer)
        assert result.conservation_ok
        assert observer.events > 0


class TestPollutionUnderChaos:
    def test_pollution_never_survives_integrity_checking(self):
        """Even with churn + flaky links, an integrity-checking swarm
        plays zero polluted segments (the §V-B defense holds under
        chaos — confusion never becomes a bypass)."""
        from repro.attacks.pollution import VideoSegmentPollutionTest
        from repro.core.analyzer import PdnAnalyzer
        from repro.core.testbed import build_test_bed
        from repro.defenses.integrity import ClientIntegrity, IntegrityCoordinator
        from repro.environment import Environment
        from repro.net.faults import RandomFaultPlanner
        from repro.pdn.provider import PEER5

        env = Environment(seed=chaos_seeds(1, "pollution")[0])
        bed = build_test_bed(env, PEER5, video_segments=6)
        coordinator = IntegrityCoordinator(
            env.loop, env.rand.fork("im"), bed.provider, env.urlspace, quorum=2
        ).install()
        integrity = ClientIntegrity(env.loop, coordinator)

        # Flaky links between the peers the security test is about to
        # create (hosts are matched by name at fault-apply time).
        planner = RandomFaultPlanner(env.rand.fork("fault-plan"))
        plan = planner.flaky(["malicious-peer", "victim-peer"], horizon=60.0)
        env.inject_faults(plan)

        analyzer = PdnAnalyzer(env)
        original_create = analyzer.create_peer

        def create_with_integrity(*args, **kwargs):
            kwargs.setdefault("integrity", integrity)
            return original_create(*args, **kwargs)

        analyzer.create_peer = create_with_integrity
        report = analyzer.run_test(VideoSegmentPollutionTest(bed))
        verdict = report.verdicts[0]
        assert not verdict.triggered  # zero polluted segments played
        assert verdict.details["polluted_played"] == 0
        analyzer.teardown()

    def test_polluted_bytes_always_detected_by_digest(self):
        """The detection primitive itself: altering any byte changes the
        digest the player records, under every generated mutation."""
        from repro.proxy.fake_cdn import pollute_bytes

        rand_bytes = chaos_seeds(5, "digest-mutations")
        for seed in rand_bytes:
            data = hashlib.sha256(str(seed).encode()).digest() * 100
            polluted = pollute_bytes(data, b"MARK")
            assert polluted != data
            assert hashlib.sha256(polluted).hexdigest() != hashlib.sha256(data).hexdigest()
