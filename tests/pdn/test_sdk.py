"""Integration tests for the PDN client SDK (hybrid loader)."""

import hashlib

import pytest

from repro.environment import Environment
from repro.pdn.policy import CellularPolicy, ClientPolicy
from repro.pdn.provider import PEER5, PdnProvider
from repro.pdn.sdk import NeighborLink, PdnClient
from repro.streaming.cdn import CdnEdge, OriginServer, vod_playlist_url
from repro.streaming.player import VideoPlayer
from repro.streaming.video import make_video


class World:
    def __init__(self, seed=13, segments=10, segment_seconds=4.0, segment_bytes=50_000):
        self.env = Environment(seed=seed)
        self.origin = OriginServer(self.env.loop)
        self.cdn = CdnEdge(self.origin)
        self.env.urlspace.register(self.origin.hostname, self.origin)
        self.env.urlspace.register(self.cdn.hostname, self.cdn)
        self.video = make_video("movie", segments, segment_seconds, segment_bytes)
        self.origin.add_vod(self.video)
        self.video_url = vod_playlist_url(self.cdn.hostname, "movie")
        self.provider = PdnProvider(self.env.loop, self.env.rand, PEER5)
        self.provider.install(self.env.urlspace)
        self.key = self.provider.signup_customer("site.com", None)

    def viewer(self, name, policy=None, connection="wifi", credential=None, start=True):
        host = self.env.add_viewer_host(name, "US")
        sdk = PdnClient(
            loop=self.env.loop,
            rand=self.env.rand,
            host=host,
            http=self.env.http_client(host),
            provider=self.provider,
            credential=credential or self.key.key,
            page_origin="https://site.com",
            video_url=self.video_url,
            rtc_config=self.env.rtc_config(),
            policy=policy,
            connection_type=connection,
            name=name,
        )
        player = None
        if start:
            assert sdk.start()
            player = VideoPlayer(self.env.loop, sdk, self.video_url, name=name)
            player.start()
        return sdk, player

    def run(self, seconds):
        self.env.run(seconds)


class TestHybridDelivery:
    def test_second_viewer_offloads_to_p2p(self):
        world = World()
        sdk_a, player_a = world.viewer("alice")
        world.run(6.0)
        sdk_b, player_b = world.viewer("bob")
        world.run(120.0)
        assert player_a.finished and player_b.finished
        assert player_b.stats.bytes_from_p2p > 0
        assert sdk_a.stats.bytes_p2p_up == player_b.stats.bytes_from_p2p
        assert player_b.stats.played_digests() == [s.digest for s in world.video.segments]

    def test_slow_start_always_cdn(self):
        world = World()
        world.viewer("alice")
        world.run(6.0)
        sdk_b, player_b = world.viewer("bob")
        world.run(120.0)
        first_sources = [p.source for p in player_b.stats.played[: sdk_b.slow_start]]
        assert all(source == "cdn" for source in first_sources)

    def test_join_failure_reported(self):
        world = World()
        sdk, _ = world.viewer("rejected", credential="bad-key", start=False)
        assert not sdk.start()
        assert sdk.join_error

    def test_cache_purges(self):
        world = World(segments=4)
        sdk, player = world.viewer("alice")
        world.run(60.0)
        assert sdk.cache_bytes() > 0
        world.run(200.0)  # past the cache TTL
        assert sdk.cache_bytes() == 0

    def test_p2p_timeout_falls_back_to_cdn(self):
        world = World()
        sdk_a, player_a = world.viewer("alice")
        world.run(6.0)
        sdk_b, player_b = world.viewer("bob")
        world.run(10.0)  # bob connected, alice has segments

        # Kill alice silently: bob's requests to her will time out.
        for link in sdk_a.neighbors.values():
            link.pc.close()
        sdk_a.stop()
        world.run(120.0)
        assert player_b.finished
        assert player_b.stats.played_digests() == [s.digest for s in world.video.segments]
        assert sdk_b.stats.p2p_fallbacks >= 0  # fallback path exercised or all-CDN

    def test_stats_reported_for_billing(self):
        world = World()
        world.viewer("alice")
        world.run(6.0)
        world.viewer("bob")
        world.run(120.0)
        assert world.provider.billing.account("site.com").p2p_bytes > 0


class TestUploadPolicies:
    def test_cellular_leech_never_uploads(self):
        world = World()
        sdk_a, _ = world.viewer(
            "cell", policy=ClientPolicy(cellular=CellularPolicy.LEECH), connection="cellular"
        )
        world.run(6.0)
        sdk_b, player_b = world.viewer("wifi-bob")
        world.run(120.0)
        assert sdk_a.stats.bytes_p2p_up == 0
        assert sdk_a.stats.p2p_requests_failed >= 0
        assert player_b.finished  # bob still fine via CDN fallback

    def test_cellular_full_uploads(self):
        world = World()
        sdk_a, _ = world.viewer(
            "cell-full", policy=ClientPolicy(cellular=CellularPolicy.FULL), connection="cellular"
        )
        world.run(6.0)
        world.viewer("bob")
        world.run(120.0)
        assert sdk_a.stats.bytes_p2p_up > 0

    def test_upload_cap_limits_serving(self):
        world = World(segment_bytes=100_000)
        capped = ClientPolicy(max_upload_bytes_per_sec=50_000)  # below one segment
        sdk_a, _ = world.viewer("capped", policy=capped)
        world.run(6.0)
        sdk_b, player_b = world.viewer("bob")
        world.run(160.0)
        assert sdk_a.stats.bytes_p2p_up <= 100_000  # at most one uncapped miss-window
        assert player_b.finished

    def test_upload_window_keeps_only_the_last_second(self):
        world = World()
        capped = ClientPolicy(max_upload_bytes_per_sec=400_000)  # eight segments
        sdk_a, _ = world.viewer("capped", policy=capped)
        served_at = []
        serve = sdk_a._serve_request

        def recording_serve(link, key):
            served_at.append(world.env.loop.now)
            serve(link, key)

        sdk_a._serve_request = recording_serve
        world.run(6.0)
        world.viewer("bob")
        world.run(120.0)
        assert sdk_a.stats.p2p_requests_served >= 2
        assert max(served_at) - min(served_at) > 1.0
        window = list(sdk_a._upload_window)
        assert window
        assert all(t >= window[-1][0] - 1.0 for t, _ in window)
        assert len(window) < sdk_a.stats.p2p_requests_served


class TestCacheAnnouncements:
    def test_late_neighbor_hears_exactly_the_cached_segments(self):
        world = World(segments=40)  # 160 s of video outlives the 120 s cache TTL
        sdk_a, _ = world.viewer("alice")
        world.run(150.0)
        base = world.video_url.rsplit("/", 1)[0] + "/"
        assert (base, 0) not in sdk_a._cache and sdk_a._cache
        sent = []
        sdk_a._send_control = lambda link, message: sent.append(message)
        sdk_a.neighbors["late"] = NeighborLink("late", pc=None, initiated=False)
        sdk_a._on_neighbor_connected("late")
        assert [(m["r"], m["index"]) for m in sent] == list(sdk_a._cache)
        assert [m["digest"] for m in sent] == [
            hashlib.sha256(data).hexdigest() for data in sdk_a._cache.values()
        ]


class TestTopology:
    def test_mesh_respects_max_neighbors(self):
        world = World(segments=4)
        policy = ClientPolicy(max_neighbors=2)
        sdks = []
        for i in range(5):
            sdk, _ = world.viewer(f"peer{i}", policy=policy)
            world.run(2.0)
            sdks.append(sdk)
        world.run(30.0)
        for sdk in sdks:
            active = [l for l in sdk.neighbors.values() if l.connected]
            # initiated links obey the cap; inbound offers may add a few
            assert len(active) <= 4

    def test_harvested_ips_includes_candidates(self):
        world = World()
        sdk_a, _ = world.viewer("alice")
        world.run(6.0)
        sdk_b, _ = world.viewer("bob")
        world.run(30.0)
        harvested_by_b = {ip for _, ip in sdk_b.harvested_ips()}
        assert sdk_a.host.public_ip in harvested_by_b
