"""The PDN customer detection framework (§III-C).

Two stages, exactly as in the paper:

1. **Signature scan** — crawl candidate websites (depth ≤ 3, only sites
   with a ``<video>`` tag) and unpack APKs, matching provider signatures
   (SDK URL patterns, Android namespaces, manifest metadata keys) plus
   generic WebRTC signatures for private services. Matches become
   *potential PDN customers*; API keys are extracted by regex where not
   obfuscated.
2. **Dynamic confirmation** — run the potential customer with probe
   viewers, capture traffic, and look for STUN binding requests followed
   by a DTLS handshake between candidate peer pairs. Successes become
   *confirmed PDN customers*.

One driver executes this methodology: the sharded, resumable
:class:`~repro.detection.streaming.StreamingDetectionPipeline`, whose
per-shard scan loop is :func:`~repro.detection.streaming.scan_shard` —
bit-identical reports at any shard count, bounded memory (see
docs/DETECTION.md).
"""

from repro.detection.signatures import (
    GENERIC_WEBRTC_SIGNATURES,
    Signature,
    SignatureKind,
    provider_signatures,
)
from repro.detection.categorize import CategoryEngine, default_engines, is_video_related
from repro.detection.scanner import ApkScanner, ScanResult, WebsiteScanner
from repro.detection.traffic import PdnTrafficReport, classify_capture
from repro.detection.dynamic import DynamicConfirmer
from repro.detection.pipeline import PipelineReport, combined_signatures
from repro.detection.streaming import (
    ScanIncomplete,
    ShardScanState,
    StreamingDetectionPipeline,
    StreamManifest,
    StreamOutcome,
    merge_shard_states,
    scan_shard,
)

__all__ = [
    "GENERIC_WEBRTC_SIGNATURES",
    "Signature",
    "SignatureKind",
    "provider_signatures",
    "CategoryEngine",
    "default_engines",
    "is_video_related",
    "ApkScanner",
    "ScanResult",
    "WebsiteScanner",
    "PdnTrafficReport",
    "classify_capture",
    "DynamicConfirmer",
    "PipelineReport",
    "combined_signatures",
    "ShardScanState",
    "StreamingDetectionPipeline",
    "StreamManifest",
    "StreamOutcome",
    "ScanIncomplete",
    "scan_shard",
    "merge_shard_states",
]
