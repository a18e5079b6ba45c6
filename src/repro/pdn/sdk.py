"""The PDN client SDK — the JavaScript library's in-browser behaviour.

The SDK is a :class:`~repro.streaming.player.SegmentLoader` that mixes
CDN and P2P delivery, reproducing the mechanisms the paper reverse-
engineered:

- **slow start** (§IV-C): the first ``slow_start_segments`` segments are
  always fetched from the CDN, which is what defeats *direct* content
  pollution — a victim's authentic CDN copies expose a neighbor whose
  announcements disagree, and that neighbor is dropped;
- **mesh swarming**: the SDK joins the provider's signaling server,
  receives candidate peers, and maintains up to ``max_neighbors``
  WebRTC links, announcing which segments it holds;
- **in-memory cache** with a purge timer (the browser-cache behaviour
  that blocks classic storage-based pollution attacks);
- **no integrity verification of P2P payloads** — the root cause of the
  video segment pollution attack. The optional ``integrity`` hook is the
  paper's §V-B defense and is off by default, as in the wild;
- **resource squatting**: uploads proceed whenever the customer policy
  allows, with no user consent; cellular behaviour follows
  :class:`~repro.pdn.policy.ClientPolicy`.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, ClassVar

from repro.net.clock import EventLoop
from repro.net.network import Host
from repro.pdn.policy import ClientPolicy
from repro.streaming.http import HttpClient
from repro.streaming.player import SegmentCallback
from repro.util.errors import SdpError
from repro.util.rand import DeterministicRandom
from repro.webrtc.peer_connection import PeerConnection, RtcConfig, SessionDescription
from repro.webrtc.sdp import parse_sdp, render_sdp

CONTROL_CHANNEL = 1
DATA_CHANNEL = 2


def _data_frame(key: tuple[str, int], data: bytes) -> bytes:
    """Wire format of a segment delivery: index, rendition tag, payload."""
    rendition, index = key
    tag = rendition.encode()
    return struct.pack("!IH", index, len(tag)) + tag + data
_P2P_TIMEOUT = 3.0
_CACHE_TTL = 120.0
_STATS_INTERVAL = 5.0
_TOPOLOGY_INTERVAL = 10.0


#: Cap on the latency sample reservoir a client keeps for percentile
#: estimates. Long swarm runs record millions of P2P deliveries; the
#: streaming count/sum/min/max summary is exact, and p50/p95 come from
#: this bounded, seeded reservoir instead of an ever-growing list.
LATENCY_RESERVOIR_CAP = 256


@dataclass
class SdkStats:
    """Cumulative counters the resource monitor samples.

    P2P delivery latencies are summarised streamingly: exact
    ``count/sum/min/max`` plus a bounded sample reservoir
    (:attr:`p2p_latencies`, Algorithm R over the SDK's seeded stream)
    from which ``to_dict`` derives deterministic p50/p95 digests.
    """

    bytes_cdn: int = 0
    bytes_p2p_down: int = 0
    bytes_p2p_up: int = 0
    hash_bytes: int = 0  # bytes run through IM hashing (defense only)
    p2p_requests_served: int = 0
    p2p_requests_failed: int = 0
    p2p_fetches: int = 0
    p2p_fallbacks: int = 0
    neighbors_banned: int = 0
    peer_churn_evictions: int = 0  # neighbors dropped because their host churned
    p2p_latencies: list = field(default_factory=list)  # bounded sample reservoir
    p2p_latency_count: int = 0
    p2p_latency_sum: float = 0.0
    p2p_latency_min: float = 0.0
    p2p_latency_max: float = 0.0

    #: Class-level so it is not a dataclass field (and not serialised).
    RESERVOIR_CAP: ClassVar[int] = LATENCY_RESERVOIR_CAP

    def __post_init__(self) -> None:
        # Seeded stream for reservoir eviction, attached by the SDK via
        # attach_rand(); bare stats objects fall back to keep-first.
        self._latency_rand: DeterministicRandom | None = None
        if self.p2p_latencies and self.p2p_latency_count == 0:
            # Directly-constructed with raw samples (tests, old dicts):
            # derive the streaming summary from the list.
            samples = [float(x) for x in self.p2p_latencies]
            self.p2p_latencies = samples
            self.p2p_latency_count = len(samples)
            self.p2p_latency_sum = sum(samples)
            self.p2p_latency_min = min(samples)
            self.p2p_latency_max = max(samples)

    def attach_rand(self, rand: DeterministicRandom) -> None:
        """Wire the seeded stream the latency reservoir evicts with."""
        self._latency_rand = rand

    def record_latency(self, seconds: float) -> None:
        """Fold one request→delivery latency into the bounded summary."""
        count = self.p2p_latency_count = self.p2p_latency_count + 1
        self.p2p_latency_sum += seconds
        if count == 1:
            self.p2p_latency_min = self.p2p_latency_max = seconds
        else:
            if seconds < self.p2p_latency_min:
                self.p2p_latency_min = seconds
            if seconds > self.p2p_latency_max:
                self.p2p_latency_max = seconds
        reservoir = self.p2p_latencies
        if len(reservoir) < self.RESERVOIR_CAP:
            reservoir.append(seconds)
        elif self._latency_rand is not None:
            # Algorithm R: sample i survives with probability cap/i.
            slot = self._latency_rand.randint(0, count - 1)
            if slot < self.RESERVOIR_CAP:
                reservoir[slot] = seconds

    def _latency_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile over the reservoir (0.0 when empty)."""
        if not self.p2p_latencies:
            return 0.0
        ordered = sorted(self.p2p_latencies)
        rank = int(fraction * (len(ordered) - 1) + 0.5)
        return ordered[min(rank, len(ordered) - 1)]

    @property
    def p2p_total(self) -> int:
        """Total P2P bytes moved in either direction."""
        return self.bytes_p2p_down + self.bytes_p2p_up

    def to_dict(self) -> dict:
        """Every counter as plain JSON types, for chaos-run digests."""
        return {
            "bytes_cdn": self.bytes_cdn,
            "bytes_p2p_down": self.bytes_p2p_down,
            "bytes_p2p_up": self.bytes_p2p_up,
            "bytes_p2p_total": self.p2p_total,
            "hash_bytes": self.hash_bytes,
            "p2p_requests_served": self.p2p_requests_served,
            "p2p_requests_failed": self.p2p_requests_failed,
            "p2p_fetches": self.p2p_fetches,
            "p2p_fallbacks": self.p2p_fallbacks,
            "neighbors_banned": self.neighbors_banned,
            "peer_churn_evictions": self.peer_churn_evictions,
            "p2p_latencies": [round(lat, 9) for lat in self.p2p_latencies],
            "p2p_latency_count": self.p2p_latency_count,
            "p2p_latency_sum": round(self.p2p_latency_sum, 9),
            "p2p_latency_min": round(self.p2p_latency_min, 9),
            "p2p_latency_max": round(self.p2p_latency_max, 9),
            "p2p_latency_p50": round(self._latency_percentile(0.50), 9),
            "p2p_latency_p95": round(self._latency_percentile(0.95), 9),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SdkStats":
        """Rebuild from :meth:`to_dict` output (JSON round-trip).

        Latencies are coerced to ``float`` on load so that
        ``to_dict → from_dict → to_dict`` is a fixed point even when the
        JSON layer hands back ints (e.g. a rounded ``0``).
        """
        return cls(
            bytes_cdn=int(data.get("bytes_cdn", 0)),
            bytes_p2p_down=int(data.get("bytes_p2p_down", 0)),
            bytes_p2p_up=int(data.get("bytes_p2p_up", 0)),
            hash_bytes=int(data.get("hash_bytes", 0)),
            p2p_requests_served=int(data.get("p2p_requests_served", 0)),
            p2p_requests_failed=int(data.get("p2p_requests_failed", 0)),
            p2p_fetches=int(data.get("p2p_fetches", 0)),
            p2p_fallbacks=int(data.get("p2p_fallbacks", 0)),
            neighbors_banned=int(data.get("neighbors_banned", 0)),
            peer_churn_evictions=int(data.get("peer_churn_evictions", 0)),
            p2p_latencies=[float(x) for x in data.get("p2p_latencies", [])],
            p2p_latency_count=int(data.get("p2p_latency_count", 0)),
            p2p_latency_sum=float(data.get("p2p_latency_sum", 0.0)),
            p2p_latency_min=float(data.get("p2p_latency_min", 0.0)),
            p2p_latency_max=float(data.get("p2p_latency_max", 0.0)),
        )


class NeighborLink:
    """One WebRTC association with a swarm neighbor."""

    def __init__(self, peer_id: str, pc: PeerConnection, initiated: bool) -> None:
        self.peer_id = peer_id
        self.pc = pc
        self.initiated = initiated
        self.haves: dict[tuple[str, int], str] = {}  # (rendition, index) -> digest
        self.banned = False
        self.bytes_up = 0
        self.bytes_down = 0

    @property
    def connected(self) -> bool:
        """True once the link is established and not banned."""
        return self.pc.connected and not self.banned


@dataclass
class _PendingFetch:
    index: int
    base_url: str  # doubles as the rendition/content tag on the wire
    uri: str
    neighbor_id: str
    on_done: SegmentCallback
    requested_at: float = 0.0
    timer: object = None

    @property
    def key(self) -> tuple[str, int]:
        """The (rendition, index) content key."""
        return (self.base_url, self.index)


class PdnClient:
    """One viewer's PDN SDK instance (implements ``SegmentLoader``)."""

    def __init__(
        self,
        *,
        loop: EventLoop,
        rand: DeterministicRandom,
        host: Host,
        http: HttpClient,
        provider,
        credential: str,
        page_origin: str,
        video_url: str,
        rtc_config: RtcConfig | None = None,
        policy: ClientPolicy | None = None,
        connection_type: str = "wifi",
        name: str = "viewer",
        integrity=None,
        slow_start: int | None = None,
    ) -> None:
        self.loop = loop
        self.rand = rand.fork(f"sdk:{name}")
        self.host = host
        self.http = http
        self.provider = provider
        self.credential = credential
        self.page_origin = page_origin
        self.video_url = video_url
        self.rtc_config = rtc_config or RtcConfig()
        self.policy = policy or ClientPolicy()
        self.connection_type = connection_type
        self.name = name
        self.integrity = integrity
        self.slow_start = (
            slow_start if slow_start is not None else provider.profile.slow_start_segments
        )

        self.stats = SdkStats()
        self.stats.attach_rand(self.rand.fork("latency-reservoir"))
        self.session_id: str | None = None
        self.peer_id: str | None = None
        self.rejoins = 0
        self.started = False
        self.stopped = False
        self.join_error: str | None = None
        self.neighbors: dict[str, NeighborLink] = {}
        self.candidate_ips_seen: list[tuple[float, str, str]] = []  # (t, peer_id, ip)
        # Content is keyed by (rendition base URL, index): multi-bitrate
        # streams must never cross-serve between renditions.
        self._cache: dict[tuple[str, int], bytes] = {}
        # SHA-256 hex digest of each cached payload, computed once where
        # the bytes arrived; written and purged with ``_cache`` so the two
        # share key order.
        self._digests: dict[tuple[str, int], str] = {}
        # CDN-verified digests of the slow-start window only: this is the
        # reference set the SDK cross-checks neighbor announcements
        # against (the mechanism that defeats *direct* pollution but not
        # segment pollution, §IV-C).
        self._slow_start_digests: dict[tuple[str, int], str] = {}
        self._pending: dict[tuple[str, int], _PendingFetch] = {}
        self._fetch_count = 0
        self._reported_up = 0
        # (time, bytes) of uploads served within the last second.
        self._upload_window: deque[tuple[float, int]] = deque()
        self._timers = []

    # -- lifecycle -----------------------------------------------------------

    @property
    def signaling_base(self) -> str:
        """HTTPS origin of the provider's signaling server (join, relay, stats)."""
        return f"https://{self.provider.profile.signaling_host}"

    def _signaling_headers(self) -> dict[str, str]:
        return {"Origin": self.page_origin, "Referer": self.page_origin + "/"}

    def start(self) -> bool:
        """Join the PDN. Returns False (and records why) if auth fails."""
        if self.started:
            return True
        if not self._join():
            return False
        self.started = True
        self._refresh_topology()
        self._timers.append(self.loop.call_every(_TOPOLOGY_INTERVAL, self._refresh_topology))
        self._timers.append(self.loop.call_every(_STATS_INTERVAL, self._report_stats))
        return True

    def _join(self) -> bool:
        response = self.http.post(
            self.signaling_base + "/v2/join",
            json.dumps(
                {
                    "credential": self.credential,
                    "video_url": self.video_url,
                    "relay_only": self.rtc_config.relay_only,
                }
            ).encode(),
            headers=self._signaling_headers(),
        )
        payload = _json_body(response)
        if not response.ok:
            self.join_error = payload.get("error", f"http {response.status}")
            return False
        self.session_id = payload["session_id"]
        self.peer_id = payload["peer_id"]
        self.provider.signaling.attach(self.session_id, self._on_push)
        return True

    def _rejoin(self) -> None:
        """The signaling server forgot us (restart): join again.

        Established WebRTC links keep working — the data plane does not
        depend on the tracker — but a fresh session is needed to learn
        new candidates and report stats."""
        if self.stopped or not self.started:
            return
        if self._join():
            self.rejoins += 1

    def stop(self) -> None:
        """Stop this component."""
        if self.stopped:
            return
        self.stopped = True
        for timer in self._timers:
            timer.cancel()
        self._report_stats()
        if self.session_id is not None:
            self._post("/v2/leave", {})
        for link in self.neighbors.values():
            link.pc.close()

    def _post(self, path: str, body: dict) -> dict:
        body = dict(body)
        body["session_id"] = self.session_id
        response = self.http.post(
            self.signaling_base + path,
            json.dumps(body).encode(),
            headers=self._signaling_headers(),
        )
        payload = _json_body(response)
        if response.status == 403 and payload.get("error") == "unknown session":
            # The tracker lost our session (restart): recover.
            self._rejoin()
        return payload

    # -- fault/churn notifications -------------------------------------------

    def attach_faults(self, injector) -> None:
        """Subscribe to a fault injector's churn notifications.

        Real SDKs see churn through ICE consent timeouts and data-channel
        closures; the injector's notices are the simulator's equivalent
        signal, letting the SDK exercise the exact fallback machinery
        (`_p2p_timeout`, neighbor eviction, topology refill) that a
        misbehaving network triggers in the wild.
        """
        injector.add_listener(self._on_network_fault)

    def _on_network_fault(self, notice) -> None:
        """React to one churn notice (host_down / nat_rebind)."""
        if self.stopped or not self.started:
            return
        if notice.kind == "nat_rebind" and notice.host == self.host.name:
            # Our own mapping changed: re-validate every association so
            # neighbors follow us to the fresh external address.
            for link in list(self.neighbors.values()):
                if link.connected:
                    link.pc.refresh_connectivity()
        elif notice.kind == "host_down" and notice.host != self.host.name:
            for link in list(self.neighbors.values()):
                remote = link.pc.remote_endpoint
                if remote is not None and remote.ip in notice.public_ips:
                    self._evict_neighbor(link)

    def _evict_neighbor(self, link: NeighborLink) -> None:
        """Drop a churned neighbor — gone, not malicious (no ban).

        Pending fetches aimed at it fail over to the CDN immediately
        instead of waiting out the full ``_P2P_TIMEOUT``, and removing
        the entry (rather than banning) lets the next topology refresh
        recruit a replacement.
        """
        self.neighbors.pop(link.peer_id, None)
        self.stats.peer_churn_evictions += 1
        if not link.pc.closed:
            link.pc.close()
        for key, pending in list(self._pending.items()):
            if pending.neighbor_id == link.peer_id:
                if pending.timer is not None:
                    pending.timer.cancel()
                self._p2p_timeout(key)

    # -- topology maintenance ----------------------------------------------------

    def _refresh_topology(self) -> None:
        if self.stopped or not self.started:
            return
        active = [l for l in self.neighbors.values() if not l.banned]
        want = self.policy.max_neighbors - len(active)
        if want <= 0:
            return
        payload = self._post("/v2/candidates", {"limit": want})
        for peer in payload.get("peers", []):
            if peer.get("ip"):
                self.candidate_ips_seen.append((self.loop.now, peer["peer_id"], peer["ip"]))
            if peer["peer_id"] not in self.neighbors:
                self._initiate_connection(peer["peer_id"])

    def _make_pc(self, peer_id: str) -> PeerConnection:
        pc = PeerConnection(
            self.host, self.loop, self.rand, self.rtc_config, name=f"{self.name}->{peer_id}"
        )
        pc.on_message = lambda channel, data, pid=peer_id: self._on_p2p_message(pid, channel, data)
        pc.on_connected = lambda pid=peer_id: self._on_neighbor_connected(pid)
        return pc

    def _initiate_connection(self, peer_id: str) -> None:
        pc = self._make_pc(peer_id)
        self.neighbors[peer_id] = NeighborLink(peer_id, pc, initiated=True)
        pc.create_offer(
            lambda offer: self._post(
                "/v2/relay", {"to": peer_id, "kind": "offer", "payload": render_sdp(offer)}
            )
        )

    def _on_push(self, message: dict) -> None:
        if self.stopped:
            return
        kind = message.get("type")
        sender = message.get("from", "")
        if kind == "offer":
            self._on_remote_offer(sender, message.get("payload") or "")
        elif kind == "answer":
            link = self.neighbors.get(sender)
            if link is not None and link.initiated:
                answer = self._parse_remote_sdp(sender, message.get("payload") or "")
                if answer is not None:
                    link.pc.set_answer(answer)

    def _parse_remote_sdp(self, sender: str, sdp_text: str) -> SessionDescription | None:
        """Parse relayed SDP, logging every candidate address it leaks."""
        try:
            description = parse_sdp(sdp_text)
        except SdpError:
            return None
        for candidate in description.candidates:
            self.candidate_ips_seen.append((self.loop.now, sender, candidate.endpoint.ip))
        return description

    def _on_remote_offer(self, sender: str, sdp_text: str) -> None:
        offer = self._parse_remote_sdp(sender, sdp_text)
        if offer is None:
            return
        existing = self.neighbors.get(sender)
        if existing is not None:
            # Simultaneous-open tie break: the lexicographically smaller
            # peer id's offer survives; the other side will answer ours.
            if existing.initiated and self.peer_id is not None and sender >= self.peer_id:
                return
            existing.pc.close()
        pc = self._make_pc(sender)
        self.neighbors[sender] = NeighborLink(sender, pc, initiated=False)
        pc.accept_offer(
            offer,
            lambda answer: self._post(
                "/v2/relay", {"to": sender, "kind": "answer", "payload": render_sdp(answer)}
            ),
        )

    def _on_neighbor_connected(self, peer_id: str) -> None:
        link = self.neighbors.get(peer_id)
        if link is None or link.banned:
            return
        for (rendition, index), digest in self._digests.items():
            self._send_control(
                link, {"type": "have", "r": rendition, "index": index, "digest": digest}
            )

    # -- segment loader interface ---------------------------------------------------

    def fetch_playlist(self, url: str, on_done: Callable[[str | None], None]) -> None:
        """GET the playlist over HTTP with the page's Origin and Referer."""
        response = self.http.get(url, headers=self._signaling_headers())
        on_done(response.body.decode() if response.ok else None)

    def fetch_segment(self, base_url: str, uri: str, index: int, on_done: SegmentCallback) -> None:
        """Serve a segment from cache, a neighbor, or the CDN.

        The first ``slow_start`` fetches always go to the CDN; later ones
        go to a random connected neighbor announcing the segment, when
        the policy lets this connection download. ``on_done`` follows
        :meth:`SegmentLoader.fetch_segment`: a cache hit passes the digest
        stored with the bytes, so no path hashes a payload twice.
        """
        self._fetch_count += 1
        key = (base_url, index)
        if key in self._cache:
            on_done(self._cache[key], "cache", self._digests[key])
            return
        use_p2p = (
            self.started
            and self._fetch_count > self.slow_start
            and self.policy.download_allowed(self.connection_type)
        )
        source = self._pick_source(key) if use_p2p else None
        if source is None:
            self._fetch_from_cdn(base_url, uri, index, on_done)
            return
        self._fetch_from_peer(source, base_url, uri, index, on_done)

    def _pick_source(self, key: tuple[str, int]) -> NeighborLink | None:
        holders = [
            link
            for link in self.neighbors.values()
            if link.connected and key in link.haves and not link.banned
        ]
        return self.rand.choice(holders) if holders else None

    # -- CDN path ---------------------------------------------------------------

    def _fetch_from_cdn(self, base_url: str, uri: str, index: int, on_done: SegmentCallback) -> None:
        response = self.http.get(base_url + uri, headers=self._signaling_headers())
        if not response.ok:
            on_done(None, "cdn", None)
            return
        data = response.body
        self.stats.bytes_cdn += len(data)
        sha = hashlib.sha256(data)
        digest = sha.hexdigest()
        key = (base_url, index)
        if len(self._slow_start_digests) < self.slow_start and key not in self._slow_start_digests:
            self._slow_start_digests[key] = digest
            self._check_announcements_against(key, digest)
        self._store(key, data, digest)
        if self.integrity is not None:
            self.integrity.on_cdn_segment(self, index, data, sha, rendition=base_url)
        on_done(data, "cdn", digest)

    def _check_announcements_against(self, key: tuple[str, int], authentic_digest: str) -> None:
        """Slow-start consistency check: ban neighbors whose announced
        digest for a CDN-verified segment disagrees with the CDN copy."""
        for link in self.neighbors.values():
            announced = link.haves.get(key)
            if announced is not None and announced != authentic_digest:
                self._ban(link, f"announcement mismatch on segment {key[1]}")

    # -- P2P path ---------------------------------------------------------------

    def _fetch_from_peer(
        self,
        link: NeighborLink,
        base_url: str,
        uri: str,
        index: int,
        on_done: SegmentCallback,
    ) -> None:
        self.stats.p2p_fetches += 1
        pending = _PendingFetch(index, base_url, uri, link.peer_id, on_done, self.loop.now)
        pending.timer = self.loop.schedule(_P2P_TIMEOUT, self._p2p_timeout, pending.key)
        self._pending[pending.key] = pending
        self._send_control(link, {"type": "request", "r": base_url, "index": index})

    def _p2p_timeout(self, key: tuple[str, int]) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        self.stats.p2p_fallbacks += 1
        self._fetch_from_cdn(pending.base_url, pending.uri, pending.index, pending.on_done)

    def _complete_p2p(self, key: tuple[str, int], data: bytes) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return  # unsolicited data; ignore
        index = pending.index
        if pending.timer is not None:
            pending.timer.cancel()
        self.stats.bytes_p2p_down += len(data)
        if self.provider.profile.drm_protected and self.video_url not in self.provider.drm_registry:
            # The Mango TV observation: the DTLS transfer completed, but an
            # unregistered source cannot be decoded, so nothing is played.
            self.stats.p2p_fallbacks += 1
            self._fetch_from_cdn(pending.base_url, pending.uri, index, pending.on_done)
            return
        sha = hashlib.sha256(data)
        digest = sha.hexdigest()

        def deliver(verified: bool) -> None:
            """Push a message to the attached client, if any."""
            if not verified:
                # Integrity defense rejected the segment: ban the sender
                # and fall back to the CDN.
                bad_link = self.neighbors.get(pending.neighbor_id)
                if bad_link is not None:
                    self._ban(bad_link, f"SIM verification failed on segment {index}")
                self.stats.p2p_fallbacks += 1
                self._fetch_from_cdn(pending.base_url, pending.uri, index, pending.on_done)
                return
            self.stats.record_latency(self.loop.now - pending.requested_at)
            self._store(key, data, digest)
            pending.on_done(data, "p2p", digest)

        if self.integrity is not None:
            self.integrity.verify_p2p_segment(
                self, index, data, sha, deliver, rendition=pending.base_url
            )
        else:
            deliver(True)

    # -- serving neighbors ---------------------------------------------------------

    def _on_p2p_message(self, peer_id: str, channel: int, data: bytes) -> None:
        link = self.neighbors.get(peer_id)
        if link is None or link.banned:
            return
        if channel == CONTROL_CHANNEL:
            try:
                message = json.loads(data.decode())
            except ValueError:
                return
            self._on_control(link, message)
        elif channel == DATA_CHANNEL and len(data) >= 6:
            index, tag_len = struct.unpack("!IH", data[:6])
            if len(data) < 6 + tag_len:
                return
            rendition = data[6 : 6 + tag_len].decode(errors="replace")
            payload = data[6 + tag_len :]
            link.bytes_down += len(payload)
            self._complete_p2p((rendition, index), payload)

    def _on_control(self, link: NeighborLink, message: dict) -> None:
        kind = message.get("type")
        if kind == "have":
            key = (str(message.get("r", "")), int(message["index"]))
            digest = str(message["digest"])
            link.haves[key] = digest
            authentic = self._slow_start_digests.get(key)
            if authentic is not None and digest != authentic:
                self._ban(link, f"announcement mismatch on segment {key[1]}")
        elif kind == "request":
            self._serve_request(link, (str(message.get("r", "")), int(message["index"])))
        elif kind == "miss":
            key = (str(message.get("r", "")), int(message["index"]))
            pending = self._pending.get(key)
            if pending is not None and pending.neighbor_id == link.peer_id:
                self._p2p_timeout(key)

    def _serve_request(self, link: NeighborLink, key: tuple[str, int]) -> None:
        data = self._cache.get(key)
        allowed = self.policy.upload_allowed(self.connection_type)
        if data is None or not allowed or self._upload_capped(len(data)):
            self.stats.p2p_requests_failed += 1
            self._send_control(link, {"type": "miss", "r": key[0], "index": key[1]})
            return
        self.stats.p2p_requests_served += 1
        self.stats.bytes_p2p_up += len(data)
        link.bytes_up += len(data)
        self._trim_upload_window()
        self._upload_window.append((self.loop.now, len(data)))
        link.pc.send(DATA_CHANNEL, _data_frame(key, data))

    def _trim_upload_window(self) -> None:
        """Drop uploads older than one second; simulated time never runs
        backwards, so a dropped entry could never count again."""
        window = self._upload_window
        horizon = self.loop.now - 1.0
        while window and window[0][0] < horizon:
            window.popleft()

    def _upload_capped(self, size: int) -> bool:
        cap = self.policy.max_upload_bytes_per_sec
        if cap is None:
            return False
        self._trim_upload_window()
        recent = sum(n for _, n in self._upload_window)
        return recent + size > cap

    def _send_control(self, link: NeighborLink, message: dict) -> None:
        if link.pc.closed:
            return
        link.pc.send(CONTROL_CHANNEL, json.dumps(message).encode())

    # -- cache ---------------------------------------------------------------

    def _store(self, key: tuple[str, int], data: bytes, digest: str) -> None:
        fresh = key not in self._cache
        self._cache[key] = data
        self._digests[key] = digest
        self.loop.schedule(_CACHE_TTL, self._purge, key)
        if fresh:
            for link in self.neighbors.values():
                if link.connected:
                    self._send_control(
                        link, {"type": "have", "r": key[0], "index": key[1], "digest": digest}
                    )

    def _purge(self, key: tuple[str, int]) -> None:
        self._cache.pop(key, None)
        self._digests.pop(key, None)

    def cache_bytes(self) -> int:
        """Bytes of segment payload held in the in-memory cache right now."""
        return sum(len(v) for v in self._cache.values())

    # -- housekeeping ---------------------------------------------------------

    def _ban(self, link: NeighborLink, reason: str) -> None:
        if link.banned:
            return
        link.banned = True
        self.stats.neighbors_banned += 1
        self._send_control(link, {"type": "bye", "reason": reason})
        link.pc.close()

    def _report_stats(self) -> None:
        if not self.started or self.session_id is None:
            return
        # Always report: the stats ping doubles as the tracker keepalive.
        delta_up = self.stats.bytes_p2p_up - self._reported_up
        self._post("/v2/stats", {"p2p_up": delta_up, "p2p_down": 0})
        self._reported_up = self.stats.bytes_p2p_up

    # -- what an attacker in this position can see ---------------------------------

    def harvested_ips(self) -> list[tuple[float, str]]:
        """Every remote transport address observed by this peer:
        candidates disclosed by signaling plus STUN check sources."""
        out = [(t, ip) for t, _pid, ip in self.candidate_ips_seen]
        for link in self.neighbors.values():
            out.extend((t, ep.ip) for t, ep in link.pc.ice.observed_remotes)
        return out


def _json_body(response) -> dict:
    try:
        return json.loads(response.body.decode() or "{}")
    except ValueError:
        return {}
