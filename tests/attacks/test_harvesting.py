"""Tests for IP harvesting and the controlled leak test (§IV-D)."""

from repro.attacks.harvesting import GhostViewer, HarvestingPeer, IpLeakTest
from repro.core.analyzer import PdnAnalyzer
from repro.core.testbed import build_test_bed
from repro.environment import Environment
from repro.net.clock import EventLoop
from repro.pdn.policy import ClientPolicy
from repro.pdn.provider import PEER5, PdnProvider
from repro.privacy.viewers import ViewerDescriptor


def make_provider_world(seed=101):
    env = Environment(seed=seed)
    provider = PdnProvider(env.loop, env.rand, PEER5)
    provider.install(env.urlspace)
    key = provider.signup_customer("site.com", None, ClientPolicy())
    return env, provider, key


def descriptor(ip, n=1, session=600.0):
    return ViewerDescriptor(n, ip, "US", session, False)


class TestGhostViewer:
    def test_joins_and_leaves(self):
        env, provider, key = make_provider_world()
        ghost = GhostViewer(env, provider, key.key, "https://cdn/v.m3u8",
                            descriptor("9.9.9.9", session=60.0), "https://site.com")
        assert ghost.joined
        assert provider.signaling.swarm_size("site.com|https://cdn/v.m3u8") == 1
        env.run(120.0)
        assert provider.signaling.swarm_size("site.com|https://cdn/v.m3u8") == 0

    def test_rejected_join_handled(self):
        env, provider, key = make_provider_world()
        ghost = GhostViewer(env, provider, "bad-key", "https://cdn/v.m3u8",
                            descriptor("9.9.9.9"), "https://site.com")
        assert not ghost.joined


class TestHarvestingPeer:
    def test_collects_swarm_ips(self):
        env, provider, key = make_provider_world()
        for i in range(12):
            GhostViewer(env, provider, key.key, "https://cdn/v.m3u8",
                        descriptor(f"9.9.9.{i}", i), "https://site.com")
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com", poll_interval=5.0)
        assert harvester.start()
        env.run(60.0)
        harvester.stop()
        collected = harvester.unique_ips()
        assert len(collected) >= 10  # repeated polls cover the swarm

    def test_windows_limit_collection(self):
        env, provider, key = make_provider_world()
        provider.signaling.session_ttl = 1e9  # ghosts don't keepalive
        for i in range(5):
            GhostViewer(env, provider, key.key, "https://cdn/v.m3u8",
                        descriptor(f"9.9.9.{i}", i, session=10_000.0), "https://site.com")
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com", poll_interval=5.0,
                                   windows=[(1000.0, 1100.0)])
        harvester.start()
        env.run(500.0)  # before the window
        assert harvester.unique_ips() == set()
        env.run(700.0)  # inside the window now
        assert harvester.unique_ips()

    def test_empty_swarm_yields_nothing(self):
        env, provider, key = make_provider_world()
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com")
        harvester.start()
        env.run(60.0)
        assert harvester.unique_ips() == set()


class _FireTimes:
    """Loop observer recording the instant of every fired event."""

    def __init__(self):
        self.times = []

    def __call__(self, loop, entry):
        self.times.append(loop.now)


def windowed_world(n_ghosts=3):
    """A swarm of long-lived ghosts whose tracker never reaps."""
    env, provider, key = make_provider_world()
    provider.signaling.reaper.cancel()  # ghosts don't keepalive
    for i in range(n_ghosts):
        GhostViewer(env, provider, key.key, "https://cdn/v.m3u8",
                    descriptor(f"9.9.9.{i}", i, session=1e6), "https://site.com")
    return env, provider, key


class TestHarvestWindows:
    #: Both ends inclusive: 1003, 1098, 2013 and 2503 lie on the 3 + 5k
    #: grid, and the last window holds a single grid instant.
    WINDOWS = [(1003.0, 1098.0), (2000.5, 2013.0), (2500.0, 2503.0)]

    def test_no_event_fires_outside_the_windows(self, monkeypatch):
        env, provider, key = windowed_world()
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com", poll_interval=5.0,
                                   windows=self.WINDOWS)
        fire_times = _FireTimes()
        monkeypatch.setattr(EventLoop, "_observers", (fire_times,))
        harvester.start()
        env.run(3000.0)
        assert fire_times.times
        assert all(any(t0 <= t <= t1 for t0, t1 in self.WINDOWS) for t in fire_times.times)

    def test_polls_stay_on_the_start_grid(self):
        env, provider, key = windowed_world()
        env.run(3.0)  # the grid starts at the join, not at zero
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com", poll_interval=5.0,
                                   windows=self.WINDOWS)
        harvester.start()
        env.run(3000.0)
        grid = [3.0 + 5.0 * k for k in range(600)]
        expected = [t for t in grid if any(t0 <= t <= t1 for t0, t1 in self.WINDOWS)]
        assert expected[0] == 1003.0 and {1098.0, 2013.0} <= set(expected)
        assert expected[-1] == 2503.0
        assert sorted({r.at for r in harvester.records}) == expected

    def test_window_open_at_start_polls_at_once(self):
        env, provider, key = windowed_world()
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com", windows=[(0.0, 50.0)])
        harvester.start()
        assert {r.at for r in harvester.records} == {0.0}

    def test_stop_before_a_window_disarms_everything(self):
        env, provider, key = windowed_world()
        pending = env.loop.pending
        harvester = HarvestingPeer(env, provider, key.key, "https://cdn/v.m3u8",
                                   origin="https://site.com", poll_interval=5.0,
                                   windows=self.WINDOWS)
        harvester.start()
        harvester.stop()
        assert env.loop.pending == pending
        env.run(3000.0)
        assert harvester.records == []


class TestIpLeakTest:
    def test_cross_continent_leak(self):
        env = Environment(seed=102)
        bed = build_test_bed(env, PEER5, video_segments=6, segment_seconds=3.0)
        analyzer = PdnAnalyzer(env)
        report = analyzer.run_test(IpLeakTest(bed, watch=30.0))
        verdict = report.verdicts[0]
        assert verdict.triggered
        assert verdict.details["us_collected_cn_ip"]
        assert verdict.details["cn_collected_us_ip"]
        analyzer.teardown()
