"""The detection report (§III-C), from which Tables I–IV are rendered.

:class:`PipelineReport` holds everything the methodology produces:
the signature scans of the video-related sites and the sampled APKs,
the dynamic confirmation of every potential customer, and the probe of
the top-10K generic-WebRTC sites for private PDN services. The driver
that fills it is :class:`~repro.detection.streaming.StreamingDetectionPipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.dynamic import ConfirmationResult
from repro.detection.scanner import ScanResult
from repro.detection.signatures import GENERIC_WEBRTC_SIGNATURES, provider_signatures
from repro.harness.result import content_digest


def combined_signatures() -> list:
    """The full scan signature list: provider-specific plus generic WebRTC.

    Built once per run and shared by the crawler and the source-search
    queries (the regexes themselves are cached at compile time).
    """
    return provider_signatures() + GENERIC_WEBRTC_SIGNATURES


@dataclass
class ProviderCounts:
    """One row of Table I."""

    provider: str
    potential_sites: int = 0
    confirmed_sites: int = 0
    potential_apps: int = 0
    confirmed_apps: int = 0
    potential_apks: int = 0
    confirmed_apks: int = 0


@dataclass
class PipelineReport:
    """Everything the detection stage produced."""

    virtual_total_domains: int = 0
    virtual_video_related: int = 0
    video_related_scanned: int = 0
    site_scans: dict[str, ScanResult] = field(default_factory=dict)
    app_scans: dict[str, ScanResult] = field(default_factory=dict)
    site_confirmations: dict[str, ConfirmationResult] = field(default_factory=dict)
    app_confirmations: dict[str, ConfirmationResult] = field(default_factory=dict)
    private_confirmations: dict[str, ConfirmationResult] = field(default_factory=dict)
    generic_webrtc_sites: list[str] = field(default_factory=list)
    relay_sites: list[str] = field(default_factory=list)
    extracted_keys: set[str] = field(default_factory=set)
    source_search_hits: set[str] = field(default_factory=set)

    # -- derived views --------------------------------------------------------

    def potential_sites(self, provider: str | None = None) -> list[str]:
        """Potential sites."""
        out = []
        for domain, scan in self.site_scans.items():
            if not scan.is_potential:
                continue
            attributed = scan.provider()
            if attributed == "webrtc-generic":
                continue
            if provider is None or attributed == provider:
                out.append(domain)
        return sorted(out)

    def confirmed_sites(self, provider: str | None = None) -> list[str]:
        """Confirmed sites."""
        return sorted(
            d
            for d in self.potential_sites(provider)
            if self.site_confirmations.get(d) and self.site_confirmations[d].confirmed
        )

    def potential_apps(self, provider: str | None = None) -> list[str]:
        """Potential apps."""
        out = []
        for package, scan in self.app_scans.items():
            if not scan.is_potential:
                continue
            if provider is None or scan.provider() == provider:
                out.append(package)
        return sorted(out)

    def confirmed_apps(self, provider: str | None = None) -> list[str]:
        """Confirmed apps."""
        return sorted(
            p
            for p in self.potential_apps(provider)
            if self.app_confirmations.get(p) and self.app_confirmations[p].confirmed
        )

    def confirmed_private(self) -> list[str]:
        """Confirmed private."""
        return sorted(
            d for d, result in self.private_confirmations.items() if result.confirmed
        )

    def provider_counts(self, provider: str) -> ProviderCounts:
        """One Table I row, in a single walk over the scan maps.

        The derived views above re-scan every result per call; building
        a row through them walked the maps six times per provider. Here
        each scan is attributed once and every counter for the row is
        accumulated in the same pass.
        """
        counts = ProviderCounts(provider)
        for domain, scan in self.site_scans.items():
            if not scan.is_potential or scan.provider() != provider:
                continue
            counts.potential_sites += 1
            confirmation = self.site_confirmations.get(domain)
            if confirmation and confirmation.confirmed:
                counts.confirmed_sites += 1
        for package, scan in self.app_scans.items():
            if not scan.is_potential or scan.provider() != provider:
                continue
            counts.potential_apps += 1
            counts.potential_apks += scan.pdn_apk_versions
            confirmation = self.app_confirmations.get(package)
            if confirmation and confirmation.confirmed:
                counts.confirmed_apps += 1
                counts.confirmed_apks += scan.pdn_apk_versions
        return counts

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON form, identical for any shard decomposition.

        Only *potential* scans are kept: the streaming pipeline never
        retains clean scans (that is its memory bound).
        """
        return {
            "virtual_total_domains": self.virtual_total_domains,
            "virtual_video_related": self.virtual_video_related,
            "video_related_scanned": self.video_related_scanned,
            "site_scans": {
                d: s.to_dict() for d, s in sorted(self.site_scans.items()) if s.is_potential
            },
            "app_scans": {
                p: s.to_dict() for p, s in sorted(self.app_scans.items()) if s.is_potential
            },
            "site_confirmations": {
                d: r.to_dict() for d, r in sorted(self.site_confirmations.items())
            },
            "app_confirmations": {
                p: r.to_dict() for p, r in sorted(self.app_confirmations.items())
            },
            "private_confirmations": {
                d: r.to_dict() for d, r in sorted(self.private_confirmations.items())
            },
            "generic_webrtc_sites": sorted(self.generic_webrtc_sites),
            "relay_sites": sorted(self.relay_sites),
            "extracted_keys": sorted(self.extracted_keys),
            "source_search_hits": sorted(self.source_search_hits),
        }

    def content_digest(self) -> str:
        """Digest of the canonical form — the shard-invariance invariant."""
        return content_digest(self.to_dict())

