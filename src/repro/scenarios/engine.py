"""Driving a materialised :class:`~repro.scenarios.timeline.Timeline` live.

The :class:`ScenarioEngine` replays a timeline on an event loop: joins
create viewers through a factory callback, leaves (and effective zaps)
close them, seeks are forwarded mid-session. The engine itself knows
nothing about browsers or SDKs — :class:`SwarmViewerFactory` supplies
that binding for the analyzer stack — so the property suite can drive
the engine with stub factories and check the lifecycle invariant
(every created session is closed exactly once) without a network.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

from repro.core.analyzer import PdnAnalyzer, PeerContainer
from repro.core.testbed import TestBed
from repro.net.addresses import IpClass
from repro.net.clock import EventLoop
from repro.net.faults import FaultInjector, bind_viewer
from repro.net.nat import NatType
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.timeline import PlannedSession, SessionAction, Timeline
from repro.util.errors import ConfigurationError
from repro.web.browser import PageSession


class ScenarioEngine:
    """Replay a timeline: create on join, act mid-session, close on leave.

    ``create(planned)`` returns an opaque handle, or ``None`` when the
    viewer does not enter the measured swarm (background audience —
    e.g. a VoD viewer on a tail title). ``close(handle, planned,
    reason)`` releases it; ``on_action(handle, planned, action)``
    receives seeks. After :meth:`close_all`, ``joins == leaves`` always
    holds — the invariant the property suite pins.
    """

    def __init__(
        self,
        loop: EventLoop,
        timeline: Timeline,
        create: Callable[[PlannedSession], Any],
        close: Callable[[Any, PlannedSession, str], None],
        on_action: Callable[[Any, PlannedSession, SessionAction], None] | None = None,
        max_peers: int | None = None,
    ) -> None:
        if max_peers is not None and max_peers < 0:
            raise ConfigurationError("max_peers must be >= 0")
        self.loop = loop
        self.timeline = timeline
        self.create = create
        self.close = close
        self.on_action = on_action
        self.max_peers = max_peers
        self.active: dict[int, Any] = {}
        self.joins = 0
        self.leaves = 0
        self.background = 0
        self.overflow = 0
        self.events: list[tuple[float, str, int, str]] = []
        self._started = False

    def start(self) -> "ScenarioEngine":
        """Schedule every planned join/action/leave relative to now."""
        if self._started:
            return self
        self._started = True
        origin = self.loop.now
        for planned in self.timeline.sessions:
            self.loop.schedule(origin + planned.join_at - self.loop.now, self._join, planned)
            for action in planned.actions:
                if action.kind == "seek":
                    self.loop.schedule(
                        origin + action.at - self.loop.now, self._act, planned, action
                    )
            self.loop.schedule(origin + planned.leave_at - self.loop.now, self._leave, planned)
        return self

    def _log(self, kind: str, viewer_id: int, detail: str) -> None:
        """Append one lifecycle event to the engine's event log."""
        self.events.append((self.loop.now, kind, viewer_id, detail))

    def _join(self, planned: PlannedSession) -> None:
        """Fire one planned join through the factory."""
        if self.max_peers is not None and len(self.active) >= self.max_peers:
            self.overflow += 1
            self._log("overflow", planned.viewer_id, planned.country)
            return
        handle = self.create(planned)
        if handle is None:
            self.background += 1
            self._log("background", planned.viewer_id, f"title={planned.title}")
            return
        self.active[planned.viewer_id] = handle
        self.joins += 1
        self._log("join", planned.viewer_id, f"{planned.country}/{planned.nat}")

    def _act(self, planned: PlannedSession, action: SessionAction) -> None:
        """Forward one mid-session action to the factory, if still active."""
        handle = self.active.get(planned.viewer_id)
        if handle is None or self.on_action is None:
            return
        self.on_action(handle, planned, action)
        self._log(action.kind, planned.viewer_id, str(action.arg))

    def _leave(self, planned: PlannedSession) -> None:
        """Fire one planned leave; a no-op if the session never joined."""
        handle = self.active.pop(planned.viewer_id, None)
        if handle is None:
            return
        self.close(handle, planned, planned.leave_reason)
        self.leaves += 1
        self._log("leave", planned.viewer_id, planned.leave_reason)

    def close_all(self, reason: str = "shutdown") -> None:
        """Close every still-active session (end-of-run drain)."""
        for viewer_id in sorted(self.active):
            handle = self.active.pop(viewer_id)
            self.close(handle, self._planned_by_id(viewer_id), reason)
            self.leaves += 1
            self._log("leave", viewer_id, reason)

    def _planned_by_id(self, viewer_id: int) -> PlannedSession:
        """Look up the planned session for an active viewer id."""
        for planned in self.timeline.sessions:
            if planned.viewer_id == viewer_id:
                return planned
        raise ConfigurationError(f"unknown viewer id {viewer_id}")


#: Map from spec-layer NAT kinds to simulator NAT behaviour. CGNAT
#: behaves like a symmetric NAT; its distinguishing mark is the
#: RFC 6598 external address assigned at creation time.
_NAT_BY_KIND = {
    "full_cone": NatType.FULL_CONE,
    "restricted_cone": NatType.RESTRICTED_CONE,
    "port_restricted_cone": NatType.PORT_RESTRICTED_CONE,
    "symmetric": NatType.SYMMETRIC,
    "cgnat": NatType.SYMMETRIC,
}


class SwarmViewerFactory:
    """Bind planned sessions to real analyzer peers watching the test bed.

    Viewers on ``watch_title`` get a full peer container (browser, SDK,
    player, resource monitor); viewers on other titles return ``None`` and are
    counted as background audience by the engine — the VoD long tail
    dilutes the measured swarm without paying for idle containers.
    """

    def __init__(
        self,
        analyzer: PdnAnalyzer,
        bed: TestBed,
        spec: ScenarioSpec,
        watch_title: int = 0,
        integrity=None,
        injector: FaultInjector | None = None,
        name_prefix: str = "sc",
    ) -> None:
        self.analyzer = analyzer
        self.bed = bed
        self.spec = spec
        self.watch_title = watch_title
        self.integrity = integrity
        self.injector = injector
        self.name_prefix = name_prefix
        #: (planned, peer, session) for every swarm viewer ever created,
        #: retained after close so end-of-run metrics see everyone.
        self.created: list[tuple[PlannedSession, PeerContainer, PageSession]] = []

    def _cgnat_ip(self, name: str) -> str:
        """Draw a collision-free RFC 6598 shared-space external address."""
        env = self.analyzer.env
        rand = env.rand.fork(f"cgnat:{name}")
        ip = env.geo.random_bogon(rand, IpClass.SHARED_NAT)
        attempts = 0
        while ip in env.network.hosts or env.network.is_routable(ip):
            ip = env.geo.random_bogon(env.rand.fork(f"cgnat:{name}:{attempts}"), IpClass.SHARED_NAT)
            attempts += 1
        return ip

    def create(self, planned: PlannedSession):
        """Create one swarm viewer, or ``None`` for background audience."""
        if planned.title != self.watch_title:
            return None
        name = f"{self.name_prefix}{planned.viewer_id}"
        external_ip = self._cgnat_ip(name) if planned.nat == "cgnat" else None
        peer = self.analyzer.create_peer(
            name=name,
            country=planned.country,
            nat_type=_NAT_BY_KIND[planned.nat],
            connection_type="cellular" if planned.cellular else "wifi",
            integrity=self.integrity,
            external_ip=external_ip,
        )
        session = peer.watch_test_stream(
            self.bed, buffer_target=self.spec.session.buffer_target
        )
        if session.player is not None:
            session.player.abr_upgrade_after = self.spec.session.abr_upgrade_after
        if planned.leech and session.sdk is not None:
            session.sdk.policy = dataclasses.replace(
                session.sdk.policy, max_upload_bytes_per_sec=0.0
            )
        if self.injector is not None:
            bind_viewer(self.injector, peer.browser.host, sdk=session.sdk, player=session.player)
        self.created.append((planned, peer, session))
        return (peer, session)

    def on_action(self, handle, planned: PlannedSession, action: SessionAction) -> None:
        """Apply one mid-session action to a live viewer (seeks only)."""
        _peer, session = handle
        if action.kind == "seek" and session.player is not None:
            session.player.seek(action.arg)

    def close(self, handle, planned: PlannedSession, reason: str) -> None:
        """Close a viewer's page session and release its container."""
        _peer, session = handle
        session.close()
        _peer.close()
        if _peer in self.analyzer.peers:
            self.analyzer.peers.remove(_peer)
