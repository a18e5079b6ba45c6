"""Peer IP harvesting (§IV-D).

Joining a swarm is enough to collect other viewers' transport
addresses: the signaling server discloses candidates, and subsequent
STUN checks arrive straight from peers' addresses. The paper's
controlled test verifies the leak between two analyzer peers on
different continents; the in-the-wild experiment parks a collecting
peer in a live channel for a week and gathers 7,740 unique addresses.

:class:`GhostViewer` is a lightweight stand-in for an organic viewer in
the wild-scale experiment: it joins and leaves the swarm over signaling
(which is where addresses are disclosed) without paying for a full
WebRTC stack per viewer — the leak mechanics are identical, the cost is
thousands of times lower.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.core.report import TestReport
from repro.core.security_test import SecurityTest
from repro.core.testbed import TestBed
from repro.environment import Environment
from repro.pdn.provider import PdnProvider
from repro.privacy.viewers import ViewerDescriptor
from repro.streaming.http import HttpClient


class GhostViewer:
    """A signaling-level viewer occupying a swarm slot."""

    def __init__(
        self,
        env: Environment,
        provider: PdnProvider,
        credential: str,
        video_url: str,
        descriptor: ViewerDescriptor,
        origin: str,
    ) -> None:
        self.env = env
        self.provider = provider
        self.descriptor = descriptor
        self.http = HttpClient(env.urlspace, client_ip=descriptor.observed_ip)
        self.session_id: str | None = None
        response = self.http.post(
            f"https://{provider.profile.signaling_host}/v2/join",
            json.dumps({"credential": credential, "video_url": video_url}).encode(),
            headers={"Origin": origin},
        )
        if response.ok:
            self.session_id = json.loads(response.body.decode())["session_id"]
            env.loop.schedule(descriptor.session_length, self.leave)

    @property
    def joined(self) -> bool:
        """True while the viewer holds a live signaling session."""
        return self.session_id is not None

    def leave(self) -> None:
        """Leave the swarm (settles viewer-time billing)."""
        if self.session_id is None:
            return
        self.http.post(
            f"https://{self.provider.profile.signaling_host}/v2/leave",
            json.dumps({"session_id": self.session_id}).encode(),
        )
        self.session_id = None


@dataclass
class HarvestRecord:
    """One disclosed candidate address and the instant it was polled."""
    at: float
    ip: str


class HarvestingPeer:
    """The attacker's collecting peer: polls candidates, logs addresses."""

    def __init__(
        self,
        env: Environment,
        provider: PdnProvider,
        credential: str,
        video_url: str,
        origin: str,
        observer_ip: str = "198.51.100.99",
        poll_interval: float = 20.0,
        windows: list[tuple[float, float]] | None = None,
    ) -> None:
        self.env = env
        self.provider = provider
        self.video_url = video_url
        self.poll_interval = poll_interval
        self.windows = windows  # None = always harvesting
        self.http = HttpClient(env.urlspace, client_ip=observer_ip)
        self.observer_ip = observer_ip
        self.records: list[HarvestRecord] = []
        self.session_id: str | None = None
        self._origin = origin
        self._credential = credential
        self._grid_start = 0.0
        self._windows: list[tuple[float, float]] = []
        self._timer = None

    def start(self) -> bool:
        """Join the swarm and start polling for candidates.

        Polls fall on the grid ``start + k * poll_interval``. Only the
        grid instants inside a window are scheduled, one chain at a
        time, so the loop carries no harvester events between windows;
        without windows, one window spans the whole run.
        """
        response = self.http.post(
            f"https://{self.provider.profile.signaling_host}/v2/join",
            json.dumps({"credential": self._credential, "video_url": self.video_url}).encode(),
            headers={"Origin": self._origin},
        )
        if not response.ok:
            return False
        self.session_id = json.loads(response.body.decode())["session_id"]
        loop = self.env.loop
        self._grid_start = loop.now
        always = [(loop.now, math.inf)]
        self._windows = sorted(always if self.windows is None else self.windows)
        self._arm_window(loop.now)
        return True

    def _arm_window(self, after: float) -> None:
        """Arm the first grid instant at or after ``after`` that lies in
        a window, or nothing once no window has one left."""
        loop = self.env.loop
        step = self.poll_interval
        for t0, t1 in self._windows:
            k = math.ceil((max(t0, after) - self._grid_start) / step)
            first = self._grid_start + k * step
            if first > t1:
                continue
            if first <= loop.now:  # open at start(): poll at once
                self._open_window(t1)
            else:
                self._timer = loop.schedule_at(first, self._open_window, t1)
            return

    def _open_window(self, t1: float) -> None:
        self._timer = self.env.loop.call_every(self.poll_interval, self._poll_window, t1)
        self._poll_window(t1)

    def _poll_window(self, t1: float) -> None:
        self._poll()
        after = self.env.loop.now + self.poll_interval
        if after > t1:  # the window's last grid instant: hand over
            self._timer.cancel()
            self._arm_window(after)

    def _poll(self) -> None:
        response = self.http.post(
            f"https://{self.provider.profile.signaling_host}/v2/candidates",
            json.dumps({"session_id": self.session_id}).encode(),
        )
        if not response.ok:
            return
        for peer in json.loads(response.body.decode()).get("peers", []):
            self.records.append(HarvestRecord(self.env.loop.now, peer["ip"]))

    def stop(self) -> None:
        """Cancel whichever poll chain or window opener is armed."""
        if self._timer is not None:
            self._timer.cancel()

    def unique_ips(self) -> set[str]:
        """The set of distinct addresses harvested so far."""
        return {r.ip for r in self.records}


class IpLeakTest(SecurityTest):
    """Controlled §IV-D test: two remote peers, one in the US, one in China,
    watching the same stream — does each learn the other's real IP?"""

    name = "privacy:ip-leak"

    def __init__(self, bed: TestBed, watch: float = 30.0):
        self.bed = bed
        self.watch = watch

    def run(self, analyzer) -> TestReport:
        """Run the attack through the analyzer and report verdicts."""
        report = TestReport(self.name, self.bed.provider.profile.name)
        peer_us = analyzer.create_peer(name="peer-us", country="US")
        peer_cn = analyzer.create_peer(name="peer-cn", country="CN")
        session_us = peer_us.watch_test_stream(self.bed)
        session_cn = peer_cn.watch_test_stream(self.bed)
        analyzer.run(self.watch)
        us_ip = peer_us.browser.host.public_ip
        cn_ip = peer_cn.browser.host.public_ip
        us_saw_cn = cn_ip in peer_us.harvested_ips()
        cn_saw_us = us_ip in peer_cn.harvested_ips()
        report.add_verdict(
            "ip_leak",
            triggered=us_saw_cn and cn_saw_us,
            us_peer_ip=us_ip,
            cn_peer_ip=cn_ip,
            us_collected_cn_ip=us_saw_cn,
            cn_collected_us_ip=cn_saw_us,
            pdn_joined=session_us.pdn_loaded and session_cn.pdn_loaded,
        )
        peer_us.close()
        peer_cn.close()
        return report
