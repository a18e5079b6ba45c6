"""The analyzer itself: peer containers and the control panel.

Each peer runs as a "container": a browser (web driver) wired through a
per-peer proxy client, with a per-second resource monitor — the Fig. 2
architecture. The control panel (:class:`PdnAnalyzer`) creates peers,
runs security tests, and collects their artifacts. A peer holds no
traffic capture: nothing reads one, and a capture keeps every payload
it records for the whole run. A test that classifies traffic registers
its own scoped :class:`~repro.net.capture.TrafficCapture`, as the
§III-C dynamic confirmer does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.report import TestReport
from repro.core.security_test import SecurityTest
from repro.core.testbed import TestBed
from repro.environment import Environment
from repro.net.nat import NatType
from repro.privacy.resources import ResourceModel, ResourceMonitor
from repro.proxy.mitm import MitmProxy
from repro.web.browser import Browser, PageSession


@dataclass
class PeerContainer:
    """One analyzer peer: browser + proxy client + resource monitor."""

    name: str
    browser: Browser
    proxy: MitmProxy | None
    monitor: ResourceMonitor
    session: PageSession | None = None

    def open(self, url: str, **kwargs) -> PageSession:
        """Open a page in this container's browser."""
        self.session = self.browser.open(url, **kwargs)
        return self.session

    def watch_test_stream(self, bed: TestBed, **kwargs) -> PageSession:
        """Open the test bed's streaming page."""
        return self.open(f"https://{bed.site.domain}/", **kwargs)

    def close(self) -> None:
        """Close and release resources."""
        self.monitor.stop()
        self.browser.close()

    # -- convenience views over artifacts ---------------------------------

    def played_digests(self) -> list[str]:
        """SHA-256 digests of every segment this peer played."""
        if self.session is None or self.session.player is None:
            return []
        return self.session.player.stats.played_digests()

    def harvested_ips(self) -> set[str]:
        """Every remote address this peer observed."""
        if self.session is None or self.session.sdk is None:
            return set()
        return {ip for _, ip in self.session.sdk.harvested_ips()}


class PdnAnalyzer:
    """The control panel: creates peers, runs tests, gathers artifacts."""

    def __init__(self, env: Environment, resource_model: ResourceModel | None = None) -> None:
        self.env = env
        self.resource_model = resource_model or ResourceModel()
        self.peers: list[PeerContainer] = []
        self.reports: list[TestReport] = []

    def create_peer(
        self,
        name: str | None = None,
        country: str = "US",
        nat_type: NatType = NatType.FULL_CONE,
        proxy: MitmProxy | None = None,
        connection_type: str = "wifi",
        relay_only: bool = False,
        integrity=None,
        monitor_interval: float = 1.0,
        uplink_bytes_per_sec: float | None = None,
        external_ip: str | None = None,
    ) -> PeerContainer:
        """Launch one peer container."""
        name = name or self.env.ids.next("analyzer-peer")
        host = self.env.add_viewer_host(
            name,
            country,
            nat_type,
            uplink_bytes_per_sec=uplink_bytes_per_sec,
            external_ip=external_ip,
        )
        browser = Browser(
            self.env,
            name=name,
            country=country,
            nat_type=nat_type,
            proxy=proxy,
            connection_type=connection_type,
            integrity=integrity,
            relay_only=relay_only,
            host=host,
        )
        monitor = ResourceMonitor(
            self.env.loop, browser, model=self.resource_model,
            interval=monitor_interval, name=name,
        )
        monitor.start()
        peer = PeerContainer(name, browser, proxy, monitor)
        self.peers.append(peer)
        return peer

    def run_test(self, test: SecurityTest) -> TestReport:
        """Execute one security test and archive its report."""
        report = test.run(self)
        report.started_at = report.started_at or self.env.loop.now
        report.finished_at = self.env.loop.now
        self.reports.append(report)
        return report

    def run(self, seconds: float) -> None:
        """Advance the simulated clock by ``seconds``."""
        self.env.run(seconds)

    def teardown(self) -> None:
        """Tear down every peer container created by this analyzer."""
        for peer in self.peers:
            peer.close()
        self.peers = []
