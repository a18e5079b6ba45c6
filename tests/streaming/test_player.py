"""Tests for the buffered HLS player."""

import hashlib

import pytest

from repro.net.clock import EventLoop
from repro.streaming.cdn import CdnEdge, OriginServer, live_playlist_url, vod_playlist_url
from repro.streaming.http import HttpClient, UrlSpace
from repro.streaming.player import CdnLoader, VideoPlayer
from repro.streaming.video import make_video
from repro.util.errors import ConfigurationError


def make_world():
    loop = EventLoop()
    urls = UrlSpace()
    origin = OriginServer(loop)
    cdn = CdnEdge(origin)
    urls.register(origin.hostname, origin)
    urls.register(cdn.hostname, cdn)
    return loop, urls, origin, cdn


class TestVodPlayback:
    def test_plays_all_segments_in_order(self):
        loop, urls, origin, cdn = make_world()
        video = make_video("clip", 5, segment_duration=2.0, segment_size=100)
        origin.add_vod(video)
        player = VideoPlayer(loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"))
        player.start()
        loop.run(60.0)
        assert player.finished
        assert [p.index for p in player.stats.played] == [0, 1, 2, 3, 4]
        assert player.stats.played_digests() == [s.digest for s in video.segments]
        assert player.stats.stalls == 0

    def test_on_finished_callback(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 2, segment_duration=1.0, segment_size=10))
        player = VideoPlayer(loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"))
        done = []
        player.on_finished = lambda: done.append(loop.now)
        player.start()
        loop.run(30.0)
        assert done

    def test_max_segments_stops_early(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 10, segment_duration=1.0, segment_size=10))
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"),
            max_segments=4,
        )
        player.start()
        loop.run(60.0)
        assert player.finished
        assert len(player.stats.played) == 4

    def test_missing_playlist_never_starts(self):
        loop, urls, origin, cdn = make_world()
        player = VideoPlayer(loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "ghost"))
        player.start()
        loop.run(10.0)
        assert not player.finished
        assert player.stats.played == []

    def test_bad_config_rejected(self):
        loop, urls, origin, cdn = make_world()
        with pytest.raises(ConfigurationError):
            VideoPlayer(loop, CdnLoader(HttpClient(urls)), "no-slash", buffer_target=1)
        with pytest.raises(ConfigurationError):
            VideoPlayer(
                loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "x"),
                buffer_target=0,
            )

    def test_stop_halts_playback(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 10, segment_duration=2.0, segment_size=10))
        player = VideoPlayer(loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"))
        player.start()
        loop.run(3.0)
        player.stop()
        played = len(player.stats.played)
        loop.run(60.0)
        assert len(player.stats.played) == played


class TestSeeking:
    def test_seek_skips_segments_and_counts(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 10, segment_duration=2.0, segment_size=100))
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip")
        )
        player.start()
        loop.run(1.0)  # a couple of segments played
        before = player._play_index
        player.seek(3)
        assert player._play_index == before + 3
        loop.run(60.0)
        assert player.finished
        played = [p.index for p in player.stats.played]
        assert player.stats.seeks == 1
        # the jumped-over indices never play, everything after does
        assert played == sorted(played)
        assert set(range(before + 3, 10)) <= set(played)
        assert not set(range(before, before + 3)) & set(played[played.index(before + 3):])

    def test_seek_drops_stale_buffer_entries(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 12, segment_duration=2.0, segment_size=100))
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"),
            buffer_target=5,
        )
        player.start()
        loop.run(2.0)
        player.seek(4)
        assert all(i >= player._play_index for i in player._buffer)
        loop.run(60.0)
        assert player.finished

    def test_seek_clamps_to_end(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 5, segment_duration=1.0, segment_size=50))
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip")
        )
        player.start()
        loop.run(0.5)
        player.seek(100)
        # clamps to the exclusive end: playback finishes on the next tick
        assert player._play_index == 5
        loop.run(30.0)
        assert player.finished
        assert all(p.index < 5 for p in player.stats.played)

    def test_seek_noop_when_stopped_or_backward(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 5, segment_duration=1.0, segment_size=50))
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip")
        )
        player.start()
        loop.run(0.5)
        player.seek(0)
        player.seek(-3)
        assert player.stats.seeks == 0
        player.stop()
        player.seek(2)
        assert player.stats.seeks == 0

    def test_stale_inflight_fetch_counted_but_not_buffered(self):
        loop, urls, origin, cdn = make_world()
        origin.add_vod(make_video("clip", 10, segment_duration=2.0, segment_size=100))
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"),
            buffer_target=2,
        )
        player.start()
        loop.run(1.0)
        # A fetch completing for an index behind the (post-seek) playhead
        # must keep its byte accounting but never enter the buffer.
        stale = player._play_index
        player.seek(5)  # may synchronously fetch ahead; snapshot after it
        bytes_before = player.stats.bytes_from_cdn
        player._inflight.add(stale)
        payload = b"x" * 77
        player._on_segment(stale, payload, "cdn", hashlib.sha256(payload).hexdigest())
        assert player.stats.bytes_from_cdn == bytes_before + 77
        assert stale not in player._buffer
        loop.run(60.0)
        assert player.finished


class TestLivePlayback:
    def test_follows_live_window(self):
        loop, urls, origin, cdn = make_world()
        video = make_video("live", 12, segment_duration=2.0, segment_size=50)
        origin.add_live("ch", video, window=3)
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), live_playlist_url(cdn.hostname, "ch"),
            max_segments=6,
        )
        player.start()
        loop.run(120.0)
        assert player.finished
        assert len(player.stats.played) == 6
        assert player.live

    def test_joining_late_starts_at_window_edge(self):
        loop, urls, origin, cdn = make_world()
        video = make_video("live", 12, segment_duration=2.0, segment_size=50)
        origin.add_live("ch", video, window=3)
        loop.run(20.0)  # channel has been live a while
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), live_playlist_url(cdn.hostname, "ch"),
            max_segments=3,
        )
        player.start()
        loop.run(60.0)
        assert player.stats.played
        assert player.stats.played[0].index >= 7  # not from the beginning


class TestLoaderAccounting:
    def test_source_attribution(self):
        loop, urls, origin, cdn = make_world()
        video = make_video("clip", 3, segment_duration=1.0, segment_size=100)
        origin.add_vod(video)
        player = VideoPlayer(loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip"))
        player.start()
        loop.run(30.0)
        assert player.stats.bytes_from_cdn == 300
        assert player.stats.bytes_from_p2p == 0
        assert player.stats.p2p_ratio == 0.0
        assert all(p.source == "cdn" for p in player.stats.played)


class TestFaultTolerance:
    def test_transient_cdn_failures_retried(self):
        """A brief edge outage delays but does not corrupt playback."""
        loop, urls, origin, cdn = make_world()
        video = make_video("clip", 5, segment_duration=2.0, segment_size=100)
        origin.add_vod(video)
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip")
        )
        player.start()
        loop.run(3.0)
        cdn.inject_failures(2)  # the next two requests 503
        loop.run(60.0)
        assert player.finished
        assert player.stats.played_digests() == [s.digest for s in video.segments]
        assert player.stats.segments_skipped == 0

    def test_permanent_failure_skips_segment(self):
        """A segment that never delivers is skipped, not stalled on
        forever — playback continues with the rest."""
        loop, urls, origin, cdn = make_world()
        video = make_video("clip", 6, segment_duration=2.0, segment_size=100)
        origin.add_vod(video)

        class FlakyCdn:
            def handle_request(self, request):
                if "seg-3.ts" in request.path:
                    from repro.streaming.http import HttpResponse

                    return HttpResponse(503, b"permanently broken")
                return cdn.handle_request(request)

        urls.register(cdn.hostname, FlakyCdn())
        player = VideoPlayer(
            loop, CdnLoader(HttpClient(urls)), vod_playlist_url(cdn.hostname, "clip")
        )
        player.start()
        loop.run(120.0)
        assert player.finished
        assert player.stats.segments_skipped == 1
        played_indices = [p.index for p in player.stats.played]
        assert 3 not in played_indices
        assert played_indices == [0, 1, 2, 4, 5]
