"""Content pollution attacks (§IV-C, Fig. 3).

The attacker needs only (a) a proxy between their own peer and the CDN
and (b) the original video and manifest files. The proxy redirects the
malicious peer's CDN fetches to a fake CDN that alters segments; the
malicious peer's unmodified SDK then caches and serves the altered
bytes to benign peers over perfectly authenticated DTLS channels.

Two variants, matching the paper's two tests:

- **direct content pollution** — every segment is altered. Defeated by
  slow start: victims fetch their first segments from the real CDN, the
  attacker's announcements disagree with those authentic copies, and
  the attacker gets dropped.
- **video segment pollution** — the first ``slow_start`` segments pass
  through untouched. Nothing the victim ever cross-checks disagrees, so
  the polluted later segments reach playback on every public provider.
"""

from __future__ import annotations

import hashlib

from repro.core.report import TestReport
from repro.core.security_test import SecurityTest
from repro.core.testbed import TestBed
from repro.proxy.fake_cdn import FakeCdn, pollute_after_slow_start, pollute_all, pollute_bytes
from repro.proxy.mitm import MitmProxy


class _PollutionTestBase(SecurityTest):
    def __init__(self, bed: TestBed, watch: float = 90.0):
        self.bed = bed
        self.watch = watch

    def _predicate(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _risk_name(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def run(self, analyzer) -> TestReport:
        """Run the attack through the analyzer and report verdicts."""
        report = TestReport(self._risk_name(), self.bed.provider.profile.name)
        fake = FakeCdn(
            analyzer.env.urlspace,
            real_cdn_host=self.bed.cdn.hostname,
            should_pollute=self._predicate(),
            hostname=f"fake-{self.bed.cdn.hostname}",
        )
        fake.install()
        attacker_proxy = MitmProxy("pollution")
        attacker_proxy.redirect_host(self.bed.cdn.hostname, fake.hostname)

        malicious = analyzer.create_peer(name="malicious-peer", proxy=attacker_proxy)
        mal_session = malicious.watch_test_stream(self.bed)
        if mal_session.sdk is not None:
            self._prefetch_all(mal_session.sdk)
        analyzer.run(5.0)

        victim = analyzer.create_peer(name="victim-peer")
        victim_session = victim.watch_test_stream(self.bed)
        analyzer.run(self.watch)

        authentic = [s.digest for s in self.bed.video.segments]
        polluted = [
            hashlib.sha256(pollute_bytes(s.data, fake.marker)).hexdigest()
            for s in self.bed.video.segments
        ]
        played = victim.played_digests()
        polluted_played = sum(1 for d in played if d in polluted)
        authentic_played = sum(1 for d in played if d in authentic)
        p2p_from_attacker = (
            victim_session.sdk.stats.bytes_p2p_down if victim_session.sdk else 0
        )
        attacker_banned = (
            victim_session.sdk.stats.neighbors_banned > 0 if victim_session.sdk else False
        )
        report.add_verdict(
            self._risk_name(),
            triggered=polluted_played > 0,
            segments_played=len(played),
            polluted_played=polluted_played,
            authentic_played=authentic_played,
            victim_p2p_bytes=p2p_from_attacker,
            attacker_detected_and_banned=attacker_banned,
            fake_cdn_polluted=fake.segments_polluted,
        )
        report.artifacts["played_digests"] = played
        malicious.close()
        victim.close()
        return report

    def _prefetch_all(self, sdk) -> None:
        """The attacker eagerly pulls the whole (altered) video into cache."""
        base = self.bed.video_url.rsplit("/", 1)[0] + "/"
        for segment in self.bed.video.segments:
            sdk.fetch_segment(base, segment.filename, segment.index, lambda data, source, digest: None)


class DirectContentPollutionTest(_PollutionTestBase):
    """Pollute everything, including the victim's slow-start window."""

    name = "pollution:direct"

    def _predicate(self):
        return pollute_all

    def _risk_name(self) -> str:
        return "direct_content_pollution"


class VideoSegmentPollutionTest(_PollutionTestBase):
    """Leave the slow-start window authentic; pollute the rest."""

    name = "pollution:video-segment"

    def _predicate(self):
        return pollute_after_slow_start(self.bed.provider.profile.slow_start_segments)

    def _risk_name(self) -> str:
        return "video_segment_pollution"
