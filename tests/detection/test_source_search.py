"""Tests for the source-code search engine."""

from repro.detection.signatures import GENERIC_WEBRTC_SIGNATURES, provider_signatures
from repro.detection.source_search import SourceSearchEngine
from repro.environment import Environment
from repro.pdn.provider import PEER5, PdnProvider
from repro.web.page import PdnEmbed, WebPage, Website


def make_world():
    env = Environment(seed=71)
    provider = PdnProvider(env.loop, env.rand, PEER5)
    provider.install(env.urlspace)
    key = provider.signup_customer("pdn-site.com")
    pdn_site = Website("pdn-site.com", category="general")  # mis-categorised!
    pdn_site.add_page(
        WebPage("/", has_video=True, embed=PdnEmbed(provider, key.key, "u"))
    )
    env.urlspace.register("pdn-site.com", pdn_site)
    plain = Website("plain.com")
    plain.add_page(WebPage("/", title="nothing here"))
    env.urlspace.register("plain.com", plain)
    return env, pdn_site, plain


class TestIndexAndSearch:
    def test_signature_search_finds_pdn_site(self):
        env, pdn_site, plain = make_world()
        engine = SourceSearchEngine()
        engine.index_site(env.urlspace, pdn_site)
        engine.index_site(env.urlspace, plain)
        hits = engine.search_all(provider_signatures())
        assert hits == {"pdn-site.com"}

    def test_string_query(self):
        env, pdn_site, plain = make_world()
        engine = SourceSearchEngine()
        engine.index_site(env.urlspace, pdn_site)
        assert engine.search("api.peer5.com") == ["pdn-site.com"]
        assert engine.search("no-such-string") == []

    def test_subpages_indexed(self):
        env, pdn_site, plain = make_world()
        pdn_site.add_page(WebPage("/deep", extra_html="<script>new RTCPeerConnection()</script>"))
        pdn_site.pages["/"].links.append("/deep")
        engine = SourceSearchEngine()
        engine.index_site(env.urlspace, pdn_site)
        assert engine.search_all(GENERIC_WEBRTC_SIGNATURES) == {"pdn-site.com"}

    def test_unreachable_site_skipped(self):
        env, pdn_site, plain = make_world()
        ghost = Website("ghost.com")  # never registered in the urlspace
        engine = SourceSearchEngine()
        engine.index_site(env.urlspace, ghost)
        assert engine.search("anything") == []


class TestPipelineIntegration:
    def test_miscategorised_customer_rescued(self, monkeypatch):
        """A PDN customer whose category filter fails must still reach
        the scanner via source search (the paper's 44 rescued sites)."""
        from repro.detection.streaming import StreamingDetectionPipeline
        from repro.web.corpus import CorpusBuilder, CorpusConfig

        # Sabotage categories for one confirmed customer as it
        # materialises: general sites never pass the video filter.
        materialize_site = CorpusBuilder.materialize_site

        def miscategorise(self, spec, keep=True):
            site = materialize_site(self, spec, keep=keep)
            if site.domain == "clarin.com":
                site.category = "general"
            return site

        monkeypatch.setattr(CorpusBuilder, "materialize_site", miscategorise)
        config = CorpusConfig(noise_video_sites=5, noise_nonvideo_sites=2, noise_apps=2)
        pipeline = StreamingDetectionPipeline(72, config, shards=1, scan_jobs=1, confirm=False)
        report = pipeline.run().report
        assert "clarin.com" in report.source_search_hits
        assert "clarin.com" in report.potential_sites("peer5")
