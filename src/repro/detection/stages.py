"""Composable streaming detection stages (§III-C, decomposed).

At millions of domains neither a fully materialised corpus nor the
per-site scan results fit in memory. These stages express the
methodology over a *stream* of corpus specs:

    GenerateShard -> CategorizeAndSearch -> SignatureScan   (per shard)
    ConfirmDynamic -> Report                                (driver)

Every stage satisfies the :class:`Stage` protocol: a typed
``process(item)`` returning that item's outputs for the next stage, and
a picklable, canonical-JSON-digestable ``state_dict()``. Stage state
lives on the instance — never on module globals — so shard workers stay
isolated and identical work always digests identically.

The scan stages keep only what the report needs: potential-customer
scans, extracted keys, counters. Everything else (noise sites, clean
scans) is observed and dropped, which is what bounds a shard's memory
to the ground-truth population regardless of corpus size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Protocol, runtime_checkable

from repro.detection.categorize import default_engines, is_video_related
from repro.detection.dynamic import ConfirmationResult, DynamicConfirmer
from repro.detection.scanner import ApkScanner, ScanResult, WebsiteScanner
from repro.detection.signatures import Signature
from repro.environment import Environment
from repro.harness.result import content_digest
from repro.web.apk import AndroidApp
from repro.web.corpus import AppSpec, CorpusBuilder, CorpusConfig, CorpusShard, SiteSpec
from repro.web.page import Website


@runtime_checkable
class Stage(Protocol):
    """One streaming-pipeline stage.

    ``process`` maps one input item to zero or more output items for the
    next stage; ``state_dict`` exposes everything the stage accumulated
    as plain JSON types (picklable, digestable via
    :func:`~repro.harness.result.content_digest`).
    """

    name: str

    def process(self, item) -> list:
        """Consume one item; return the outputs for the next stage."""
        ...  # pragma: no cover - protocol

    def state_dict(self) -> dict:
        """The stage's accumulated state as plain JSON types."""
        ...  # pragma: no cover - protocol


@dataclass
class SiteItem:
    """A materialised website flowing through the stages."""

    spec: SiteSpec
    site: Website


@dataclass
class AppItem:
    """A materialised Android app flowing through the stages."""

    spec: AppSpec
    app: AndroidApp


class GenerateShard:
    """Stage 0: materialise one shard's specs, one item at a time.

    With ``keep=False`` (the streaming default) sites are registered for
    HTTP scanning only; :meth:`release` drops them from the URL space
    once downstream stages are done, so at most one droppable site is
    resident at a time.
    """

    name = "generate"

    def __init__(self, builder: CorpusBuilder, keep: bool = False) -> None:
        self.builder = builder
        self.keep = keep
        self.sites_generated = 0
        self.apps_generated = 0

    def process(self, spec: SiteSpec | AppSpec) -> list:
        """Materialise one spec into a :class:`SiteItem`/:class:`AppItem`."""
        if isinstance(spec, SiteSpec):
            self.sites_generated += 1
            return [SiteItem(spec, self.builder.materialize_site(spec, keep=self.keep))]
        self.apps_generated += 1
        return [AppItem(spec, self.builder.materialize_app(spec, keep=self.keep))]

    def release(self, item: SiteItem | AppItem) -> None:
        """Drop a streamed item once the downstream stages are done."""
        if isinstance(item, SiteItem) and not self.keep:
            self.builder.release_site(item.spec)

    def state_dict(self) -> dict:
        """Counts of materialised specs, by kind."""
        return {"sites_generated": self.sites_generated, "apps_generated": self.apps_generated}


class CategorizeAndSearch:
    """Stage 1: the category-engine filter plus source-code search.

    The paper's keep rule: a site survives when any category engine labels it video-related *or* the
    source-search engines (NerdyData/PublicWWW) hit a signature in its
    indexed source. Engine labels come from stateless per-site RNG
    forks, so the verdict for a domain is identical in every shard
    layout. Apps pass through — the paper's app pipeline has no
    category filter.
    """

    name = "categorize+search"

    def __init__(self, env: Environment, signatures: list[Signature]) -> None:
        # A named fork of the seed: labels are identical in every shard.
        self.engines = default_engines(env.rand.fork("category-engines"))
        self.urlspace = env.urlspace
        self.signatures = signatures
        from repro.detection.source_search import SourceSearchEngine

        self.search = SourceSearchEngine("nerdydata+publicwww")
        self.source_search_hits: set[str] = set()
        self.sites_dropped = 0

    def process(self, item: SiteItem | AppItem) -> list:
        """Filter one site (apps pass through)."""
        if isinstance(item, AppItem):
            return [item]
        hit = self.search.match_site(self.urlspace, item.site, self.signatures)
        if hit:
            self.source_search_hits.add(item.spec.domain)
        if is_video_related(item.site, self.engines) or hit:
            return [item]
        self.sites_dropped += 1
        return []

    def state_dict(self) -> dict:
        """The engines' hit set plus how many sites the filter dropped."""
        return {
            "source_search_hits": sorted(self.source_search_hits),
            "sites_dropped": self.sites_dropped,
        }


class SignatureScan:
    """Stage 2: crawl surviving sites / unpack apps, match signatures.

    Only *potential* scans (at least one signature fired) are retained;
    clean scans contribute to the counters and are dropped — that is the
    stage's memory bound.
    """

    name = "signature-scan"

    def __init__(self, urlspace, signatures: list[Signature]) -> None:
        self.site_scanner = WebsiteScanner(urlspace, signatures=signatures)
        self.apk_scanner = ApkScanner()
        self.video_related_scanned = 0
        self.site_scans: dict[str, ScanResult] = {}
        self.app_scans: dict[str, ScanResult] = {}
        self.extracted_keys: set[str] = set()
        self.generic_webrtc_sites: list[str] = []

    def process(self, item: SiteItem | AppItem) -> list:
        """Scan one item; retain the result only if a signature fired."""
        if isinstance(item, SiteItem):
            self.video_related_scanned += 1
            scan = self.site_scanner.scan(item.spec.domain)
            self.extracted_keys.update(scan.extracted_keys)
            if scan.is_potential:
                self.site_scans[item.spec.domain] = scan
                if scan.provider() == "webrtc-generic":
                    self.generic_webrtc_sites.append(item.spec.domain)
        else:
            scan = self.apk_scanner.scan(item.app)
            self.extracted_keys.update(scan.extracted_keys)
            if scan.is_potential:
                self.app_scans[item.app.package_name] = scan
        return [scan]

    def state_dict(self) -> dict:
        """Retained potential scans, keys, and scan counters."""
        return {
            "video_related_scanned": self.video_related_scanned,
            "pages_fetched": self.site_scanner.pages_fetched,
            "site_scans": {d: s.to_dict() for d, s in sorted(self.site_scans.items())},
            "app_scans": {p: s.to_dict() for p, s in sorted(self.app_scans.items())},
            "extracted_keys": sorted(self.extracted_keys),
            "generic_webrtc_sites": sorted(self.generic_webrtc_sites),
        }


class ConfirmDynamic:
    """Stage 3 (driver-side): dynamic confirmation of one candidate."""

    name = "confirm"

    def __init__(
        self, env: Environment, watch_seconds: float = 40.0, probe_country: str = "US"
    ) -> None:
        self.confirmer = DynamicConfirmer(
            env, watch_seconds=watch_seconds, probe_country=probe_country
        )
        self.confirmations: dict[str, ConfirmationResult] = {}

    def process(self, item: SiteItem | AppItem) -> list:
        """Dynamically test one candidate; always returns one result."""
        if isinstance(item, SiteItem):
            result = self.confirmer.confirm_site(item.site)
        else:
            result = self.confirmer.confirm_app(item.app)
        self.confirmations[result.target] = result
        return [result]

    def state_dict(self) -> dict:
        """How many targets were tested and which ones confirmed."""
        return {
            "targets_tested": self.confirmer.targets_tested,
            "confirmed": sorted(t for t, r in self.confirmations.items() if r.confirmed),
        }


@dataclass
class ShardScanState:
    """One shard's scan-phase output: the join of its stages' states.

    Picklable (ships back from pool workers), JSON-round-trippable
    (persisted per shard for ``--resume``), and digestable — the digest
    recorded in the run manifest is ``content_digest(self.to_dict())``.
    """

    shard_index: int
    shard_count: int
    sites_generated: int = 0
    apps_generated: int = 0
    sites_dropped: int = 0
    video_related_scanned: int = 0
    pages_fetched: int = 0
    site_scans: dict[str, ScanResult] = field(default_factory=dict)
    app_scans: dict[str, ScanResult] = field(default_factory=dict)
    extracted_keys: set[str] = field(default_factory=set)
    source_search_hits: set[str] = field(default_factory=set)
    generic_webrtc_sites: list[str] = field(default_factory=list)

    @classmethod
    def collect(
        cls,
        shard: CorpusShard,
        generate: GenerateShard,
        categorize: CategorizeAndSearch,
        scan: SignatureScan,
    ) -> "ShardScanState":
        """Join the three scan stages' states into one shard record."""
        return cls(
            shard_index=shard.index,
            shard_count=shard.count,
            sites_generated=generate.sites_generated,
            apps_generated=generate.apps_generated,
            sites_dropped=categorize.sites_dropped,
            video_related_scanned=scan.video_related_scanned,
            pages_fetched=scan.site_scanner.pages_fetched,
            site_scans=dict(scan.site_scans),
            app_scans=dict(scan.app_scans),
            extracted_keys=set(scan.extracted_keys),
            source_search_hits=set(categorize.source_search_hits),
            generic_webrtc_sites=sorted(scan.generic_webrtc_sites),
        )

    def to_dict(self) -> dict:
        """Canonical JSON form: sorted keys, sorted sets, stable order."""
        return {
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "sites_generated": self.sites_generated,
            "apps_generated": self.apps_generated,
            "sites_dropped": self.sites_dropped,
            "video_related_scanned": self.video_related_scanned,
            "pages_fetched": self.pages_fetched,
            "site_scans": {d: s.to_dict() for d, s in sorted(self.site_scans.items())},
            "app_scans": {p: s.to_dict() for p, s in sorted(self.app_scans.items())},
            "extracted_keys": sorted(self.extracted_keys),
            "source_search_hits": sorted(self.source_search_hits),
            "generic_webrtc_sites": sorted(self.generic_webrtc_sites),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardScanState":
        """Rebuild a persisted shard state (the ``--resume`` load path)."""
        return cls(
            shard_index=data["shard_index"],
            shard_count=data["shard_count"],
            sites_generated=data["sites_generated"],
            apps_generated=data["apps_generated"],
            sites_dropped=data["sites_dropped"],
            video_related_scanned=data["video_related_scanned"],
            pages_fetched=data["pages_fetched"],
            site_scans={d: ScanResult.from_dict(s) for d, s in data["site_scans"].items()},
            app_scans={p: ScanResult.from_dict(s) for p, s in data["app_scans"].items()},
            extracted_keys=set(data["extracted_keys"]),
            source_search_hits=set(data["source_search_hits"]),
            generic_webrtc_sites=list(data["generic_webrtc_sites"]),
        )

    def content_digest(self) -> str:
        """The digest the run manifest pins for this shard."""
        return content_digest(self.to_dict())


class Report:
    """Stage 4: reduce a merged scan state into a :class:`PipelineReport`.

    Confirmation maps start empty; the driver fills them through its
    :class:`ConfirmDynamic` stages in a fixed confirmation order.
    """

    name = "report"

    def __init__(self, config: CorpusConfig) -> None:
        self.config = config
        self.reports_built = 0

    def process(self, merged: ShardScanState) -> list:
        """Assemble the scan-side report fields from a merged state."""
        from repro.detection.pipeline import PipelineReport

        report = PipelineReport(
            virtual_total_domains=self.config.virtual_total_domains,
            virtual_video_related=self.config.virtual_video_related,
        )
        report.video_related_scanned = merged.video_related_scanned
        report.site_scans = dict(merged.site_scans)
        report.app_scans = dict(merged.app_scans)
        report.extracted_keys = set(merged.extracted_keys)
        report.source_search_hits = set(merged.source_search_hits)
        report.generic_webrtc_sites = list(merged.generic_webrtc_sites)
        self.reports_built += 1
        return [report]

    def state_dict(self) -> dict:
        """How many reports this stage assembled."""
        return {"reports_built": self.reports_built}


def run_stages(specs: Iterable, generate: GenerateShard, stages: list[Stage]) -> None:
    """Drive specs through generate + the scan stages, releasing as it goes.

    The inner fold is the whole composition law: each stage's outputs
    feed the next stage; an empty output list short-circuits the item.
    """
    for spec in specs:
        for item in generate.process(spec):
            outputs = [item]
            for stage in stages:
                outputs = [out for value in outputs for out in stage.process(value)]
                if not outputs:
                    break
            generate.release(item)
