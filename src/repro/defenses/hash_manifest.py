"""CDN-distributed integrity manifests — the prior-work defense (§V-B).

Previous pollution defenses ([39], [42], [62], [82]) and the vendors'
own premium options (Peer5's custom HTTP delivery, Viblast's MD5 player
plugin) all "require the video source to distribute every video chunk
with an extra integrity attribute". That works, but *every* viewer —
including the ones streaming straight from the CDN — downloads the
attributes, so the defense costs exactly the CDN bandwidth a PDN exists
to save, and verification can't start until the attributes arrive.

The peer-assisted IM mechanism (:mod:`repro.defenses.integrity`) is the
paper's answer: no extra CDN object, the server fetches from the CDN
only to resolve conflicts. ``benchmarks/bench_defense_comparison.py``
quantifies the difference.
"""

from __future__ import annotations

import hashlib
import hmac
import json
from dataclasses import dataclass
from typing import Callable

from repro.streaming.video import VideoSource

HASH_MANIFEST_FILENAME = "hashes.json"


def build_hash_manifest(video: VideoSource, signing_key: bytes) -> bytes:
    """The integrity-attributes object the CDN must additionally serve."""
    entries = []
    for segment in video.segments:
        digest = segment.digest
        signature = hmac.new(
            signing_key, f"{video.video_id}|{segment.index}|{digest}".encode(), hashlib.sha256
        ).hexdigest()
        entries.append({"index": segment.index, "sha256": digest, "sig": signature})
    return json.dumps({"video": video.video_id, "segments": entries}).encode()


def install_hash_manifest(origin, video: VideoSource, signing_key: bytes) -> None:
    """Publish the manifest next to the video on the origin (and thus
    through every CDN edge in front of it)."""
    origin.add_extra_file(video.video_id, HASH_MANIFEST_FILENAME, build_hash_manifest(video, signing_key))


class ClientHashManifest:
    """Client-side verifier: fetch the manifest, check every segment.

    Implements the same hook interface as
    :class:`repro.defenses.integrity.ClientIntegrity`, so it plugs into
    :class:`repro.pdn.sdk.PdnClient` unchanged. Each client fetches the
    manifest over HTTP once — that is the per-viewer CDN cost the paper
    objects to.
    """

    def __init__(self, verify_signature: Callable[[str, int, str, str], bool] | None = None) -> None:
        self.verify_signature = verify_signature
        self.manifests_fetched = 0
        self.verifications = 0
        self.rejections = 0
        # Cached per client: every viewer fetches its own copy — that is
        # precisely the per-viewer CDN cost this defense carries.
        self._cache: dict[tuple[str, str], dict[int, dict]] = {}

    def _manifest_for(self, sdk, rendition: str = "") -> dict[int, dict] | None:
        base = rendition or (sdk.video_url.rsplit("/", 1)[0] + "/")
        key = (sdk.name, base)
        if key in self._cache:
            return self._cache[key]
        response = sdk.http.get(base + HASH_MANIFEST_FILENAME)
        if not response.ok:
            return None
        self.manifests_fetched += 1
        payload = json.loads(response.body.decode())
        table = {entry["index"]: entry for entry in payload["segments"]}
        self._cache[key] = table
        return table

    # -- the PdnClient integrity hook interface -----------------------------

    def on_cdn_segment(self, sdk, index: int, data: bytes, sha, rendition: str = "") -> None:
        # Prefetch the manifest so verification never waits on it.
        """Integrity hook: a segment arrived from the CDN."""
        self._manifest_for(sdk, rendition)

    def verify_p2p_segment(
        self, sdk, index: int, data: bytes, sha, deliver: Callable[[bool], None], rendition: str = ""
    ) -> None:
        """Integrity hook: vet a P2P-delivered segment against its manifest
        entry, reading the digest of ``sha`` (the SDK's SHA-256 state over
        exactly ``data``)."""
        self.verifications += 1
        table = self._manifest_for(sdk, rendition)
        entry = table.get(index) if table else None
        ok = entry is not None and sha.hexdigest() == entry["sha256"]
        if not ok:
            self.rejections += 1
        deliver(ok)
