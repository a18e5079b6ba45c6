"""Tests for the analyzer test bed."""

from repro.core.testbed import build_test_bed
from repro.environment import Environment
from repro.pdn.provider import PEER5, VIBLAST
from repro.streaming.http import HttpClient
from repro.web.browser import Browser


class TestBuildTestBed:
    def test_full_chain_works(self):
        env = Environment(seed=71)
        bed = build_test_bed(env, PEER5, video_segments=4, segment_seconds=2.0, segment_bytes=10_000)
        session = Browser(env, "v").open(f"https://{bed.site.domain}/")
        assert session.pdn_loaded
        env.run(30.0)
        assert session.player.finished
        assert session.player.stats.played_digests() == [s.digest for s in bed.video.segments]

    def test_cdn_serves_video(self):
        env = Environment(seed=72)
        bed = build_test_bed(env, PEER5)
        response = HttpClient(env.urlspace).get(bed.video_url)
        assert response.ok and b"#EXTM3U" in response.body

    def test_allowlist_passthrough(self):
        env = Environment(seed=73)
        bed = build_test_bed(env, PEER5, allowed_domains={"www.test.com"})
        key = bed.provider.authenticator.lookup(bed.api_key)
        assert key.has_allowlist

    def test_viblast_always_allowlisted(self):
        env = Environment(seed=74)
        bed = build_test_bed(env, VIBLAST)
        assert bed.provider.authenticator.lookup(bed.api_key).has_allowlist

    def test_live_mode(self):
        env = Environment(seed=75)
        bed = build_test_bed(env, PEER5, live=True)
        assert bed.live_channel is not None
        assert "/live/" in bed.video_url

    def test_two_beds_can_share_provider(self):
        env = Environment(seed=76)
        bed_a = build_test_bed(env, PEER5, domain="a.test.com")
        bed_b = build_test_bed(env, PEER5, domain="b.test.com", provider=bed_a.provider)
        assert bed_a.provider is bed_b.provider
        assert bed_a.api_key != bed_b.api_key


class TestAnalyzer:
    def test_peer_container_lifecycle(self):
        from repro.core.analyzer import PdnAnalyzer

        env = Environment(seed=77)
        bed = build_test_bed(env, PEER5, video_segments=4, segment_seconds=2.0, segment_bytes=10_000)
        analyzer = PdnAnalyzer(env)
        peer = analyzer.create_peer(name="probe")
        session = peer.watch_test_stream(bed)
        analyzer.run(20.0)
        assert session.pdn_loaded
        assert peer.monitor.samples  # monitoring ran
        assert peer.played_digests()
        analyzer.teardown()
        assert analyzer.peers == []

    def test_reports_archived(self):
        from repro.core.analyzer import PdnAnalyzer
        from repro.attacks.harvesting import IpLeakTest

        env = Environment(seed=79)
        bed = build_test_bed(env, PEER5, video_segments=4)
        analyzer = PdnAnalyzer(env)
        report = analyzer.run_test(IpLeakTest(bed, watch=20.0))
        assert analyzer.reports == [report]
        assert report.finished_at >= report.started_at
