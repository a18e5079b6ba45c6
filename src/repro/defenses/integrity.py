"""Peer-assisted integrity checking (§V-B).

Randomly selected peers compute integrity metadata (IM) for segments
they downloaded *directly from the CDN* and report it to the PDN
server. The server:

- treats an IM as authentic when all selected reporters agree;
- on conflict, downloads the segment from the CDN itself, computes the
  authentic IM, and **blacklists** every peer that reported a fake;
- signs the authentic IM (→ SIM) and serves it to peers, who must
  verify any P2P-received segment against it.

The IM is the hash of ``(segment content, video id, position)`` so a
recorded segment+SIM cannot be replayed as a different segment or into
a different video. As long as one benign reporter exists, the authentic
IM wins.

Costs are modeled where the paper measures them (Table VI): IM hashing
adds CPU (via the ``hash_bytes`` counter) and per-segment latency
(compute delay before delivery).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field
from typing import Callable

from repro.net.clock import EventLoop
from repro.streaming.http import HttpClient
from repro.util.rand import DeterministicRandom


def content_id(video_url: str, base: str) -> str:
    """One string identifying (video, rendition); '' base = single-rendition."""
    return f"{video_url}|{base}"


def compute_im(data: bytes, video_id: str, position: int) -> str:
    """Integrity metadata: hash over (content, video id, position)."""
    return im_from_state(hashlib.sha256(data), video_id, position)


def im_from_state(sha, video_id: str, position: int) -> str:
    """The IM from a SHA-256 state that has absorbed exactly the segment's
    bytes: a copy is extended with the video id and position, so ``sha``
    itself is left untouched for its other readers."""
    h = sha.copy()
    h.update(video_id.encode())
    h.update(position.to_bytes(8, "big"))
    return h.hexdigest()


@dataclass(frozen=True)
class SimRecord:
    """Signed integrity metadata for one segment."""

    video_id: str
    index: int
    digest: str
    signature: str


@dataclass
class _SegmentReports:
    reports: dict[str, set[str]] = field(default_factory=dict)  # digest -> peer ids
    resolved: bool = False


class IntegrityCoordinator:
    """The server half, attached to a provider's signaling server."""

    def __init__(
        self,
        loop: EventLoop,
        rand: DeterministicRandom,
        provider,
        urlspace,
        quorum: int = 3,
    ) -> None:
        self.loop = loop
        self.rand = rand
        self.provider = provider
        self.quorum = quorum
        self._http = HttpClient(urlspace, client_ip="203.0.113.250")  # the PDN server
        self._secret = rand.bytes(32)
        self._segments: dict[tuple[str, int], _SegmentReports] = {}
        self._sims: dict[tuple[str, int], SimRecord] = {}
        self.conflicts_resolved = 0
        self.cdn_fetches = 0
        self.peers_blacklisted: set[str] = set()

    def install(self) -> "IntegrityCoordinator":
        """Attach to the provider's signaling server."""
        self.provider.signaling.integrity = self
        return self

    # -- report intake ---------------------------------------------------------

    def receive_report(
        self, peer_id: str, video_url: str, index: int, digest: str, base: str = ""
    ) -> None:
        """``base`` is the rendition base URL for multi-bitrate streams
        (empty for single-rendition flows)."""
        key = (content_id(video_url, base), index)
        if key in self._sims:
            # Already signed; late fake reports still get peers banned.
            if digest != self._sims[key].digest:
                self._ban(peer_id)
            return
        state = self._segments.setdefault(key, _SegmentReports())
        state.reports.setdefault(digest, set()).add(peer_id)
        if len(state.reports) > 1:
            self._resolve_conflict(key, state)
            return
        reporters = sum(len(peers) for peers in state.reports.values())
        if reporters >= self.quorum:
            self._sign(key, digest)

    def _resolve_conflict(self, key: tuple[str, int], state: _SegmentReports) -> None:
        """Fetch from the CDN, sign the authentic IM, ban fake reporters."""
        if state.resolved:
            return
        state.resolved = True
        self.conflicts_resolved += 1
        video_url, index = key
        authentic = self._authentic_im(video_url, index)
        if authentic is None:
            return  # CDN unavailable: no SIM can be issued
        self._sign(key, authentic)
        for digest, peers in state.reports.items():
            if digest != authentic:
                for peer_id in peers:
                    self._ban(peer_id)

    def _authentic_im(self, content_id: str, index: int) -> str | None:
        video_url, _, base = content_id.partition("|")
        fetch_base = base or (video_url.rsplit("/", 1)[0] + "/")
        response = self._http.get(f"{fetch_base}seg-{index}.ts")
        self.cdn_fetches += 1
        if not response.ok:
            return None
        return compute_im(response.body, content_id, index)

    def _ban(self, peer_id: str) -> None:
        if peer_id in self.peers_blacklisted:
            return
        self.peers_blacklisted.add(peer_id)
        self.provider.signaling.ban_peer(peer_id)

    # -- SIM distribution -------------------------------------------------------

    def _sign(self, key: tuple[str, int], digest: str) -> None:
        video_url, index = key
        signature = self._signature_for(video_url, index, digest)
        self._sims[key] = SimRecord(video_url, index, digest, signature)

    def _signature_for(self, video_url: str, index: int, digest: str) -> str:
        message = f"{video_url}|{index}|{digest}".encode()
        return hmac.new(self._secret, message, hashlib.sha256).hexdigest()

    def get_sim(self, video_url: str, index: int, base: str = "") -> SimRecord | None:
        """Look up the signed integrity metadata for a segment."""
        return self._sims.get((content_id(video_url, base), index))

    def verifier(self) -> Callable[[str, int, str, str], bool]:
        """The client-side signature check (stands in for a public key)."""

        def verify(video_url: str, index: int, digest: str, signature: str) -> bool:
            """Return True if the signature checks out."""
            return hmac.compare_digest(
                signature, self._signature_for(video_url, index, digest)
            )

        return verify


class ClientIntegrity:
    """The client half: IM computation, reporting, and SIM verification.

    One instance is shared by the peers of an experiment (it is
    stateless per peer apart from cost accounting hooks). Plug it into
    :class:`~repro.pdn.sdk.PdnClient` via the ``integrity`` parameter.
    """

    def __init__(
        self,
        loop: EventLoop,
        coordinator: IntegrityCoordinator,
        compute_seconds_per_mb: float = 0.012,
    ) -> None:
        self.loop = loop
        self.coordinator = coordinator
        self.verify_signature = coordinator.verifier()
        self.compute_seconds_per_mb = compute_seconds_per_mb
        self.verifications = 0
        self.rejections = 0

    def _compute_delay(self, size: int) -> float:
        return max(0.001, size / 1e6 * self.compute_seconds_per_mb)

    # -- hooks invoked by the SDK -------------------------------------------------

    def on_cdn_segment(self, sdk, index: int, data: bytes, sha, rendition: str = "") -> None:
        """CDN download: compute the IM and report it to the server.

        ``sha`` is the SDK's SHA-256 state over exactly ``data``; it is
        copied, never updated.
        """
        sdk.stats.hash_bytes += len(data)
        digest = im_from_state(sha, content_id(sdk.video_url, rendition), index)
        self.loop.schedule(
            self._compute_delay(len(data)),
            lambda: sdk._post(
                "/v2/im_report", {"index": index, "digest": digest, "r": rendition}
            ),
        )

    def verify_p2p_segment(
        self,
        sdk,
        index: int,
        data: bytes,
        sha,
        deliver: Callable[[bool], None],
        rendition: str = "",
    ) -> None:
        """P2P download: must match a SIM before it may be played.

        Sender-side IM computation and receiver-side verification both
        cost hashing time; the delay covers the pair, which is what the
        paper's :math:`T_{recv} - T_{send}` measures. ``sha`` is the
        SDK's SHA-256 state over exactly ``data``, copied, never updated.
        """
        self.verifications += 1
        sdk.stats.hash_bytes += len(data)

        def check() -> None:
            """Fetch the SIM and deliver the verification outcome."""
            payload = sdk._post("/v2/sim", {"index": index, "r": rendition})
            cid = content_id(sdk.video_url, rendition)
            digest = im_from_state(sha, cid, index)
            sim_digest = payload.get("digest")
            signature = payload.get("sig", "")
            ok = (
                sim_digest is not None
                and sim_digest == digest
                and self.verify_signature(cid, index, digest, signature)
            )
            if not ok:
                self.rejections += 1
            deliver(ok)

        self.loop.schedule(2 * self._compute_delay(len(data)), check)
