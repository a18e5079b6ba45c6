"""Dynamic PDN-traffic confirmation.

For each potential customer the paper "randomly selected 3 video links
and watched them for 15 minutes" while capturing traffic. The confirmer
does the same with probe browsers: it opens up to three of the target's
video pages with two probes (so a swarm can form), captures the probes'
traffic, and runs the STUN→DTLS classifier. Confirmation can fail for
the same reasons the paper reports — geolocation restrictions,
subscription requirements, deep pages the crawler missed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.traffic import PdnTrafficReport, classify_capture
from repro.environment import Environment
from repro.net.capture import TrafficCapture
from repro.web.apk import AndroidApp
from repro.web.browser import Browser
from repro.web.page import Website


@dataclass
class ConfirmationResult:
    """Dynamic analysis outcome for one target."""

    target: str
    confirmed: bool
    report: PdnTrafficReport
    relay_suspected: bool = False  # traffic confirmed but no probe IP visible
    pages_tested: int = 0
    failure_hints: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Canonical JSON form (traffic compacted via the report's)."""
        return {
            "target": self.target,
            "confirmed": self.confirmed,
            "relay_suspected": self.relay_suspected,
            "pages_tested": self.pages_tested,
            "failure_hints": list(self.failure_hints),
            "traffic": self.report.to_dict(),
        }


class DynamicConfirmer:
    """Runs potential customers with probe viewers and classifies traffic."""

    def __init__(
        self,
        env: Environment,
        watch_seconds: float = 40.0,
        probe_country: str = "US",
        max_links: int = 3,
    ) -> None:
        self.env = env
        self.watch_seconds = watch_seconds
        self.probe_country = probe_country
        self.max_links = max_links

    def _infrastructure_ips(self) -> set[str]:
        ips = {self.env.stun.host.public_ip}
        if self.env._turn is not None:
            ips.add(self.env._turn.host.public_ip)
        return ips

    def confirm_site(self, site: Website) -> ConfirmationResult:
        """Open up to ``max_links`` video pages with two probe viewers."""
        video_pages = [p for p in site.pages.values() if p.has_video]
        video_pages = video_pages[: self.max_links]
        probe_a = Browser(self.env, country=self.probe_country)
        probe_b = Browser(self.env, country=self.probe_country)
        capture = TrafficCapture(
            f"dyn:{site.domain}", interface_ips=[probe_a.host.public_ip, probe_b.host.public_ip]
        )
        self.env.network.add_capture(capture)
        hints = []
        for page in video_pages:
            url = f"https://{site.domain}{page.path}"
            session_a = probe_a.open(url)
            session_b = probe_b.open(url)
            self.env.run(self.watch_seconds)
            for session in (session_a, session_b):
                if session.skip_reason:
                    hints.append(session.skip_reason)
                session.close()
        capture.stop()  # deregisters from the network's tap list
        result = self._classify(site.domain, capture, {probe_a.host.public_ip, probe_b.host.public_ip})
        result.pages_tested = len(video_pages)
        result.failure_hints = sorted(set(hints))
        probe_a.close()
        probe_b.close()
        return result

    def confirm_app(self, app: AndroidApp) -> ConfirmationResult:
        """Run the app's latest APK in two probe devices."""
        probe_a = Browser(self.env, country=self.probe_country)
        probe_b = Browser(self.env, country=self.probe_country)
        capture = TrafficCapture(
            f"dyn:{app.package_name}",
            interface_ips=[probe_a.host.public_ip, probe_b.host.public_ip],
        )
        self.env.network.add_capture(capture)
        session_a = probe_a.run_app(app)
        session_b = probe_b.run_app(app)
        self.env.run(self.watch_seconds)
        hints = [s.skip_reason for s in (session_a, session_b) if s.skip_reason]
        session_a.close()
        session_b.close()
        capture.stop()  # deregisters from the network's tap list
        result = self._classify(
            app.package_name, capture, {probe_a.host.public_ip, probe_b.host.public_ip}
        )
        result.failure_hints = sorted(set(hints))
        probe_a.close()
        probe_b.close()
        return result

    def _classify(
        self, target: str, capture: TrafficCapture, probe_ips: set[str]
    ) -> ConfirmationResult:
        report = classify_capture(capture, infrastructure_ips=self._infrastructure_ips())
        confirmed = report.pdn_confirmed
        relay_suspected = (not confirmed and report.turn_activity) or (
            confirmed and not (report.observed_peer_ips & probe_ips)
        )
        return ConfirmationResult(
            target=target,
            confirmed=confirmed,
            report=report,
            relay_suspected=relay_suspected,
        )
