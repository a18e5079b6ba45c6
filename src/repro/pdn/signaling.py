"""The PDN signaling/tracker server.

This is the trusted third party that distinguishes PDNs from classic
P2P-CDNs (§III-A): it authenticates joining peers, groups them into
swarms keyed by (customer, video), disclosed candidate peers' transport
addresses, and relays SDP offers/answers.

The *join* step rides over HTTP so that an intercepting proxy sees — and
can rewrite — the ``Origin``/``Referer`` headers, which is precisely the
paper's domain-spoofing attack surface. After a successful join the SDK
attaches a push callback (the websocket analog) for server-initiated
messages.

Wire endpoints (all JSON bodies)::

    POST /v2/join        {credential, video_url}        -> {session_id, peer_id}
    POST /v2/candidates  {session_id, limit?}           -> {peers: [{peer_id, ip, country}]}
    POST /v2/relay       {session_id, to, kind, payload} -> {ok}
    POST /v2/stats       {session_id, p2p_up, p2p_down} -> {ok}
    POST /v2/im_report   {session_id, index, digest}    -> {ok}       (defense)
    POST /v2/sim         {session_id, index}            -> {digest, sig} | 404 (defense)
    POST /v2/leave       {session_id}                   -> {ok}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from repro.net.clock import EventLoop
from repro.pdn.scheduler import PeerRecord
from repro.streaming.http import HttpRequest, HttpResponse
from repro.util.rand import DeterministicRandom

PushCallback = Callable[[dict], None]


@dataclass
class DisclosureEvent:
    """One candidate-IP disclosure: whose address was shown to whom."""

    at: float
    to_peer: str
    about_peer: str
    ip: str


class SignalingSession:
    """Server-side state for one connected peer."""

    def __init__(
        self,
        server: "PdnSignalingServer",
        session_id: str,
        peer_id: str,
        customer_id: str,
        swarm_id: str,
        record: PeerRecord,
        video_url: str,
    ) -> None:
        self.server = server
        self.session_id = session_id
        self.peer_id = peer_id
        self.customer_id = customer_id
        self.swarm_id = swarm_id
        self.record = record
        self.video_url = video_url
        self.joined_at = server.loop.now
        self.last_seen = server.loop.now
        self.left = False
        self.push: PushCallback | None = None
        self.p2p_up_reported = 0
        self.p2p_down_reported = 0

    def deliver(self, message: dict) -> None:
        """Push a message to the attached client, if any."""
        if self.push is not None and not self.left:
            self.push(message)


class PdnSignalingServer:
    """The provider's signaling host (an HTTP server in the URL space)."""

    def __init__(self, loop: EventLoop, rand: DeterministicRandom, provider) -> None:
        self.loop = loop
        self.rand = rand
        self.provider = provider
        self._sessions: dict[str, SignalingSession] = {}
        self._swarms: dict[str, dict[str, SignalingSession]] = {}
        self.blacklist: set[str] = set()  # peer ids banned by the defense layer
        self.disclosures: list[DisclosureEvent] = []
        self.integrity = None  # IntegrityCoordinator, installed by the defense
        self.geo_resolver: Callable[[str], tuple[str, str]] = lambda ip: ("unknown", "unknown")
        self._peer_counter = 0
        self.joins_accepted = 0
        self.joins_rejected = 0
        self.sessions_reaped = 0
        # Trackers expire silent peers: the SDK's periodic stats report
        # doubles as its keepalive. A run whose stand-in peers send no
        # keepalives cancels ``reaper``.
        self.session_ttl = 60.0
        self.reaper = loop.call_every(self.session_ttl / 2, self._reap_idle_sessions)

    # -- HTTP interface -------------------------------------------------------

    def handle_request(self, request: HttpRequest) -> HttpResponse:
        """Serve one HTTP request."""
        try:
            body = json.loads(request.body.decode() or "{}")
        except ValueError:
            return _json_response(400, {"error": "bad json"})
        path = request.path
        if path == "/v2/join":
            return self._handle_join(request, body)
        session = self._sessions.get(body.get("session_id", ""))
        if session is None:
            return _json_response(403, {"error": "unknown session"})
        if session.peer_id in self.blacklist:
            return _json_response(403, {"error": "peer blacklisted"})
        session.last_seen = self.loop.now
        if path == "/v2/candidates":
            return self._handle_candidates(session, body)
        if path == "/v2/relay":
            return self._handle_relay(session, body)
        if path == "/v2/stats":
            return self._handle_stats(session, body)
        if path == "/v2/im_report":
            return self._handle_im_report(session, body)
        if path == "/v2/sim":
            return self._handle_sim(session, body)
        if path == "/v2/leave":
            self._leave(session)
            return _json_response(200, {"ok": True})
        return _json_response(404, {"error": "no such endpoint"})

    # -- join ----------------------------------------------------------------

    def _handle_join(self, request: HttpRequest, body: dict) -> HttpResponse:
        credential = body.get("credential", "")
        video_url = body.get("video_url", "")
        origin = request.header("Origin") or request.header("Referer") or ""
        if self.provider.token_defense is not None:
            outcome = self.provider.token_defense.validate(credential, video_url)
            if not outcome.accepted:
                self.joins_rejected += 1
                return _json_response(403, {"error": outcome.reason})
            customer_id = outcome.customer_id or "unknown"
        else:
            decision = self.provider.authenticator.authenticate(
                credential, origin=origin, video_url=video_url
            )
            if not decision.accepted:
                self.joins_rejected += 1
                return _json_response(403, {"error": decision.reason})
            customer_id = decision.customer_id or "unknown"
        self.joins_accepted += 1
        self._peer_counter += 1
        peer_id = f"peer-{self._peer_counter}"
        session_id = self.rand.bytes(8).hex()
        country, isp = self.geo_resolver(request.client_ip)
        record = PeerRecord(
            peer_id=peer_id,
            ip=request.client_ip,
            country=country,
            isp=isp,
            joined_at=self.loop.now,
            hidden=bool(body.get("relay_only", False)),
        )
        swarm_id = f"{customer_id}|{video_url}"
        session = SignalingSession(
            self, session_id, peer_id, customer_id, swarm_id, record, video_url
        )
        record.session = session
        self._sessions[session_id] = session
        self._swarms.setdefault(swarm_id, {})[peer_id] = session
        account = self.provider.billing.account(customer_id)
        account.record_session()
        return _json_response(200, {"session_id": session_id, "peer_id": peer_id})

    def attach(self, session_id: str, push: PushCallback) -> SignalingSession | None:
        """Open the push channel (websocket analog) for a joined session."""
        session = self._sessions.get(session_id)
        if session is not None:
            session.push = push
        return session

    # -- swarm operations --------------------------------------------------------

    def _handle_candidates(self, session: SignalingSession, body: dict) -> HttpResponse:
        swarm = [
            s.record
            for s in self._swarms.get(session.swarm_id, {}).values()
            if not s.left and s.peer_id not in self.blacklist
        ]
        limit = body.get("limit")
        chosen = self.provider.scheduler.candidates_for(swarm, session.record, limit)
        peers = []
        for record in chosen:
            if not record.hidden:
                self.disclosures.append(
                    DisclosureEvent(self.loop.now, session.peer_id, record.peer_id, record.ip)
                )
            peers.append(
                {
                    "peer_id": record.peer_id,
                    "ip": "" if record.hidden else record.ip,
                    "country": record.country,
                }
            )
        return _json_response(200, {"peers": peers})

    def _handle_relay(self, session: SignalingSession, body: dict) -> HttpResponse:
        target_id = body.get("to", "")
        swarm = self._swarms.get(session.swarm_id, {})
        target = swarm.get(target_id)
        if target is None or target.left or target_id in self.blacklist:
            return _json_response(200, {"ok": False})
        target.deliver(
            {"type": body.get("kind", "message"), "from": session.peer_id, "payload": body.get("payload")}
        )
        return _json_response(200, {"ok": True})

    def _handle_stats(self, session: SignalingSession, body: dict) -> HttpResponse:
        up = int(body.get("p2p_up", 0))
        down = int(body.get("p2p_down", 0))
        session.p2p_up_reported += up
        session.p2p_down_reported += down
        # Upload bytes are the billable quantity (each transferred byte
        # is billed once, on the sender side).
        self.provider.billing.account(session.customer_id).record_p2p_bytes(up)
        return _json_response(200, {"ok": True})

    def _handle_im_report(self, session: SignalingSession, body: dict) -> HttpResponse:
        if self.integrity is None:
            return _json_response(200, {"ok": False})
        self.integrity.receive_report(
            session.peer_id,
            session.video_url,
            int(body["index"]),
            body["digest"],
            base=str(body.get("r", "")),
        )
        return _json_response(200, {"ok": True})

    def _handle_sim(self, session: SignalingSession, body: dict) -> HttpResponse:
        if self.integrity is None:
            return _json_response(404, {"error": "integrity checking not enabled"})
        sim = self.integrity.get_sim(
            session.video_url, int(body["index"]), base=str(body.get("r", ""))
        )
        if sim is None:
            return _json_response(404, {"error": "sim not available"})
        return _json_response(200, {"digest": sim.digest, "sig": sim.signature})

    def _leave(self, session: SignalingSession) -> None:
        if session.left:
            return
        session.left = True
        # Only live sessions stay indexed; the dict keeps join order, so
        # the reaper and settle_all walk the survivors in join order.
        self._sessions.pop(session.session_id, None)
        self._swarms.get(session.swarm_id, {}).pop(session.peer_id, None)
        account = self.provider.billing.account(session.customer_id)
        account.record_viewer_time(self.loop.now - session.joined_at)

    # -- administration ------------------------------------------------------

    def ban_peer(self, peer_id: str) -> None:
        """Blacklist a peer (the defense layer's response to fake IMs)."""
        self.blacklist.add(peer_id)
        for swarm in self._swarms.values():
            swarm.pop(peer_id, None)

    def _reap_idle_sessions(self) -> None:
        """Expire peers that stopped reporting (crashed tabs, killed
        containers): their addresses must not keep being disclosed."""
        deadline = self.loop.now - self.session_ttl
        for session in list(self._sessions.values()):
            if session.last_seen < deadline:
                self.sessions_reaped += 1
                self._leave(session)

    def restart(self) -> None:
        """Simulate a signaling-server crash/redeploy: all in-memory
        session and swarm state is lost. (Durable state — customer keys,
        billing — lives in the provider and survives.)"""
        self._sessions.clear()
        self._swarms.clear()

    def settle_all(self) -> None:
        """Flush viewer-time billing for still-connected sessions."""
        for session in list(self._sessions.values()):
            self._leave(session)

    def swarm_size(self, swarm_id: str) -> int:
        """Number of live peers in a swarm."""
        return len(self._swarms.get(swarm_id, {}))

    def swarm_ids(self) -> list[str]:
        """All swarm identifiers currently known."""
        return list(self._swarms)


def _json_response(status: int, payload: dict) -> HttpResponse:
    return HttpResponse(status, json.dumps(payload).encode(), {"content-type": "application/json"})
