"""End-to-end detection pipeline tests against the seeded corpus.

These assert the Table I–IV counts the paper reports — the pipeline must
*discover* them from the corpus, not read the ground truth.
"""

import pytest

from repro.detection.streaming import StreamingDetectionPipeline
from repro.web.corpus import CorpusConfig

SMALL = CorpusConfig(noise_video_sites=10, noise_nonvideo_sites=5, noise_apps=5)


@pytest.fixture(scope="module")
def report_and_corpus():
    pipeline = StreamingDetectionPipeline(
        seed=2024, config=SMALL, shards=1, scan_jobs=1, watch_seconds=30.0
    )
    outcome = pipeline.run()
    return outcome.report, outcome.corpus


class TestTable1Counts:
    @pytest.mark.parametrize(
        "provider,sites,apps,apks",
        [
            ("peer5", (16, 60), (15, 31), (199, 548)),
            ("streamroot", (1, 53), (3, 6), (53, 68)),
            ("viblast", (0, 21), (0, 1), (0, 11)),
        ],
    )
    def test_counts_match_paper(self, report_and_corpus, provider, sites, apps, apks):
        report, _ = report_and_corpus
        counts = report.provider_counts(provider)
        assert (counts.confirmed_sites, counts.potential_sites) == sites
        assert (counts.confirmed_apps, counts.potential_apps) == apps
        assert (counts.confirmed_apks, counts.potential_apks) == apks


class TestConfirmations:
    def test_confirmed_sites_match_ground_truth(self, report_and_corpus):
        report, corpus = report_and_corpus
        assert set(report.confirmed_sites()) == corpus.expected_confirmed("website")

    def test_confirmed_apps_match_ground_truth(self, report_and_corpus):
        report, corpus = report_and_corpus
        assert set(report.confirmed_apps()) == corpus.expected_confirmed("app")

    def test_private_services_confirmed(self, report_and_corpus):
        report, corpus = report_and_corpus
        assert set(report.confirmed_private()) == corpus.expected_confirmed("private")

    def test_adult_relay_sites_flagged(self, report_and_corpus):
        report, _ = report_and_corpus
        assert set(report.relay_sites) == {"xhamsterlive.com", "stripchat.com"}

    def test_tracking_sites_not_confirmed(self, report_and_corpus):
        report, _ = report_and_corpus
        for domain in ("tracker-cdn.example-ads.com", "fingerprintjs.example.net"):
            result = report.private_confirmations.get(domain)
            assert result is not None and not result.confirmed

    def test_no_noise_false_positives(self, report_and_corpus):
        report, _ = report_and_corpus
        for domain in report.confirmed_sites():
            assert "noise" not in domain

    def test_failure_hints_explain_unconfirmed(self, report_and_corpus):
        report, corpus = report_and_corpus
        unconfirmed = set(report.potential_sites()) - set(report.confirmed_sites())
        with_hints = [
            d for d in unconfirmed if report.site_confirmations[d].failure_hints
        ]
        assert len(with_hints) > len(unconfirmed) * 0.8


class TestKeyExtraction:
    def test_exactly_44_keys(self, report_and_corpus):
        report, _ = report_and_corpus
        assert len(report.extracted_keys) == 44
