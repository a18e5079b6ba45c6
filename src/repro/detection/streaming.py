"""The streaming detection driver: sharded, parallel, resumable.

:class:`StreamingDetectionPipeline` runs the §III-C methodology into a
:class:`~repro.detection.pipeline.PipelineReport` without ever
materialising the whole corpus:

1. **Scan phase** — the corpus plan is split into ``--shards`` strided
   :class:`~repro.web.corpus.CorpusShard` slices; :func:`scan_shard`
   runs the category filter, source search and signature scan over one
   shard in its own :class:`~repro.environment.Environment` built from
   the experiment seed, optionally across a process pool
   (:func:`~repro.harness.runner.pool_map`). Sites materialise one at a
   time and are released after scanning, so a shard's resident set is
   the ground-truth population plus one site — independent of corpus
   size.
2. **Merge** — shard states reduce via a sorted canonical merge
   (:func:`merge_shard_states`): gather, sort by key, join. The merged
   state — and therefore every digest downstream — is identical for any
   ``--shards``/``--jobs`` decomposition.
3. **Confirm phase** — dynamic confirmation candidates are all ground
   truth, so the driver rebuilds only the ground corpus in a fresh
   seeded environment and confirms in a fixed order (sorted potential
   sites, sorted potential apps, top-10K probe list).

With ``--resume DIR`` every completed shard's state is persisted as
JSON next to a run manifest pinning its digest; a re-run loads those
shards instead of re-executing them, which is what makes a 3M-domain
scan interruptible.

A resume may also *upgrade* the shard count: shards are strided slices,
so completed shard ``i`` of ``N`` covers exactly the spec indices of
the new shards ``j ≡ i (mod N)`` whenever the new count is a multiple
of ``N`` — and :func:`merge_shard_states` is decomposition-invariant,
so coarse and fine states merge to the same result. The manifest keeps
upgraded states at their original granularity (a scanned state cannot
be subdivided without re-scanning) and only the uncovered new shards
execute. Any other identity change — different seed, different corpus
config, a shard count that does not evenly subdivide every completed
granularity — still hard-fails, naming the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.detection.categorize import default_engines, is_video_related
from repro.detection.dynamic import DynamicConfirmer
from repro.detection.pipeline import PipelineReport, combined_signatures
from repro.detection.scanner import ApkScanner, ScanResult, WebsiteScanner
from repro.detection.source_search import SourceSearchEngine
from repro.environment import Environment
from repro.harness.result import content_digest, to_jsonable
from repro.harness.runner import pool_map
from repro.util.errors import ConfigurationError
from repro.web.corpus import Corpus, CorpusBuilder, CorpusConfig, build_ground_corpus

MANIFEST_FILE = "manifest.json"
MANIFEST_VERSION = 2


class ScanIncomplete(RuntimeError):
    """Raised when a bounded run stops before every shard is scanned.

    The run directory already holds the completed shards; re-running
    with the same ``--resume DIR`` picks up from here.
    """

    def __init__(self, completed: int, total: int, run_dir: Path) -> None:
        super().__init__(
            f"scan incomplete: {completed}/{total} shards done; "
            f"re-run with --resume {run_dir} to continue"
        )
        self.completed = completed
        self.total = total
        self.run_dir = run_dir


@dataclass
class ShardScanState:
    """One shard's scan-phase output.

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


def scan_shard(task: tuple) -> ShardScanState:
    """Scan one corpus shard; the process-pool unit of work.

    Top-level and tuple-driven so :func:`pool_map` can ship it to
    workers. Everything is re-derived from ``(seed, config, index,
    count)`` — workers share no state, and because every spec
    materialises from named RNG forks of the same seed, the state this
    returns is a pure function of the task tuple.

    Each site is materialised, indexed by the source-search engines,
    and kept when any category engine labels it video-related *or* the
    search hit a signature. Kept sites are crawled and signature-matched;
    then the site leaves the URL space again. Apps have no category
    filter and go straight to the APK scanner. Only *potential* scans
    (at least one signature fired) are retained — clean scans feed the
    counters and are dropped, which bounds a shard's memory to the
    ground-truth population regardless of corpus size.
    """
    seed, config, index, count = task
    env = Environment(seed=seed)
    builder = CorpusBuilder(env, config=config, with_videos=False)
    shard = builder.plan.shard(index, count)
    signatures = combined_signatures()
    # A named fork of the seed: engine labels are identical in every shard.
    engines = default_engines(env.rand.fork("category-engines"))
    search = SourceSearchEngine("nerdydata+publicwww")
    site_scanner = WebsiteScanner(env.urlspace, signatures=signatures)
    apk_scanner = ApkScanner()
    state = ShardScanState(shard_index=index, shard_count=count)
    for spec in shard.site_specs():
        state.sites_generated += 1
        site = builder.materialize_site(spec, keep=False)
        hit = search.match_site(env.urlspace, site, signatures)
        if hit:
            state.source_search_hits.add(spec.domain)
        if is_video_related(site, engines) or hit:
            state.video_related_scanned += 1
            scan = site_scanner.scan(spec.domain)
            state.extracted_keys.update(scan.extracted_keys)
            if scan.is_potential:
                state.site_scans[spec.domain] = scan
                if scan.provider() == "webrtc-generic":
                    state.generic_webrtc_sites.append(spec.domain)
        else:
            state.sites_dropped += 1
        builder.release_site(spec)
    for spec in shard.app_specs():
        state.apps_generated += 1
        app = builder.materialize_app(spec, keep=False)
        scan = apk_scanner.scan(app)
        state.extracted_keys.update(scan.extracted_keys)
        if scan.is_potential:
            state.app_scans[app.package_name] = scan
    state.pages_fetched = site_scanner.pages_fetched
    state.generic_webrtc_sites.sort()
    return state


def merge_shard_states(states: list[ShardScanState]) -> ShardScanState:
    """Sorted canonical reduction of disjoint shard states.

    Counters sum; maps and sets union, then sort by key. Input order is
    irrelevant — any shard decomposition of the same plan merges to the
    same state (shards cover disjoint spec indices, so key collisions
    are a corruption signal, not a tie to break).
    """
    if not states:
        raise ValueError("cannot merge zero shard states")
    # The merged state is not a shard: neutral identity, so its digest
    # (and everything derived from it) is invariant in the shard count.
    merged = ShardScanState(shard_index=-1, shard_count=0)
    site_scans: list = []
    app_scans: list = []
    for state in states:
        merged.sites_generated += state.sites_generated
        merged.apps_generated += state.apps_generated
        merged.sites_dropped += state.sites_dropped
        merged.video_related_scanned += state.video_related_scanned
        merged.pages_fetched += state.pages_fetched
        site_scans.extend(state.site_scans.items())
        app_scans.extend(state.app_scans.items())
        merged.extracted_keys.update(state.extracted_keys)
        merged.source_search_hits.update(state.source_search_hits)
        merged.generic_webrtc_sites.extend(state.generic_webrtc_sites)
    for label, pairs in (("site", site_scans), ("app", app_scans)):
        keys = [k for k, _ in pairs]
        if len(keys) != len(set(keys)):
            raise ConfigurationError(f"overlapping shards: duplicate {label} scans in merge")
    merged.site_scans = dict(sorted(site_scans))
    merged.app_scans = dict(sorted(app_scans))
    merged.generic_webrtc_sites = sorted(merged.generic_webrtc_sites)
    return merged


@dataclass
class StreamManifest:
    """``manifest.json`` in a ``--resume`` run directory.

    Pins the run identity (seed, shard count, config digest) and one
    content digest per completed shard; shard states live next to it as
    ``shard-NNNN.json``. A digest mismatch on load — a truncated or
    hand-edited file — quarantines just that shard for re-scan.

    After a shard-count *upgrade* (see the module docstring) the states
    completed under a previous, coarser count survive as ``coarse``
    blocks: ``(old_count, {old_index: digest})``, their files renamed to
    ``shard-NNNN-of-{old_count}.json`` so the new granularity's plain
    names never collide with them.
    """

    run_dir: Path
    seed: int | str
    shards: int
    config_digest: str
    completed: dict[int, str] = field(default_factory=dict)
    coarse: list[tuple[int, dict[int, str]]] = field(default_factory=list)
    result_digest: str | None = None

    @property
    def path(self) -> Path:
        """Path of the manifest file itself."""
        return self.run_dir / MANIFEST_FILE

    def shard_path(self, index: int, count: int | None = None) -> Path:
        """Path of one shard's persisted state.

        ``count`` names a coarse granularity from before an upgrade;
        ``None`` (or the current count) is the plain current-run name.
        """
        if count is None or count == self.shards:
            return self.run_dir / f"shard-{index:04d}.json"
        return self.run_dir / f"shard-{index:04d}-of-{count}.json"

    @classmethod
    def open(
        cls, run_dir: Path, seed: int | str, shards: int, config_digest: str
    ) -> "StreamManifest":
        """Load the manifest in ``run_dir``, or start a fresh one.

        Resuming under different run parameters would stitch shards from
        two different corpora together, so an identity mismatch is an
        error naming the offending field rather than a silent restart.
        One mismatch is legal: a ``shards`` *upgrade* to a multiple of
        every completed granularity, which re-files the completed states
        as coarse blocks and carries on (strided shards make a coarse
        shard exactly a union of new ones).
        """
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest = cls(run_dir=run_dir, seed=seed, shards=shards, config_digest=config_digest)
        if not manifest.path.exists():
            return manifest
        data = json.loads(manifest.path.read_text())
        for name, want in (("seed", seed), ("config_digest", config_digest)):
            if data.get(name) != want:
                raise ConfigurationError(
                    f"resume mismatch in {manifest.path}: {name}={data.get(name)!r}, "
                    f"this run has {want!r}"
                )
        completed = {int(k): v for k, v in data.get("completed", {}).items()}
        coarse = [
            (int(block["shards"]),
             {int(k): v for k, v in block["completed"].items()})
            for block in data.get("coarse", [])
        ]
        old_shards = data.get("shards")
        if old_shards == shards:
            manifest.completed = completed
            manifest.coarse = coarse
            manifest.result_digest = data.get("result_digest")
            return manifest
        upgradable = (
            isinstance(old_shards, int)
            and old_shards > 0
            and shards % old_shards == 0
            and shards > old_shards
            and all(shards % count == 0 for count, _ in coarse)
        )
        if not upgradable:
            raise ConfigurationError(
                f"resume mismatch in {manifest.path}: shards={old_shards!r}, this run "
                f"has {shards!r} — only an upgrade to a multiple of every completed "
                f"shard granularity can reuse this run directory"
            )
        # Upgrade: demote the previous granularity's states to a coarse
        # block (renaming their files out of the new namespace) and
        # restart the completion ledger at the new granularity. The
        # result digest is recomputed by the run that finishes coverage.
        if completed:
            for index in completed:
                src = run_dir / f"shard-{index:04d}.json"
                if src.exists():
                    src.rename(manifest.shard_path(index, old_shards))
            coarse.append((old_shards, completed))
        manifest.coarse = coarse
        manifest.result_digest = None
        manifest.save()
        return manifest

    def save(self) -> None:
        """Write the manifest JSON (atomic enough: tiny, single write)."""
        payload = {
            "version": MANIFEST_VERSION,
            "seed": self.seed,
            "shards": self.shards,
            "config_digest": self.config_digest,
            "completed": {str(k): v for k, v in sorted(self.completed.items())},
            "result_digest": self.result_digest,
        }
        if self.coarse:
            payload["coarse"] = [
                {"shards": count,
                 "completed": {str(k): v for k, v in sorted(done.items())}}
                for count, done in self.coarse
            ]
        self.path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    def record(self, state: ShardScanState) -> None:
        """Persist one completed shard state and pin its digest."""
        self.shard_path(state.shard_index).write_text(
            json.dumps(state.to_dict(), sort_keys=True) + "\n"
        )
        self.completed[state.shard_index] = state.content_digest()
        self.save()

    def _load_state(self, path: Path, digest: str) -> ShardScanState | None:
        """Load one pinned state file; ``None`` on a missing/failed pin."""
        if not path.exists():
            return None
        state = ShardScanState.from_dict(json.loads(path.read_text()))
        if state.content_digest() != digest:
            return None
        return state

    def load_states(self) -> tuple[list[ShardScanState], set[int], list[int]]:
        """Load completed shard states, dropping any that fail their pin.

        Returns ``(states, covered, stale)``. ``states`` may mix
        granularities after an upgrade; ``covered`` is the set of
        *current-granularity* shard indices they account for — a coarse
        shard ``i`` of ``count`` covers every current index ``j ≡ i
        (mod count)``. ``stale`` lists the dropped entries (as current
        indices, or ``(count, index)`` for coarse ones); their coverage
        simply re-scans at the current granularity.
        """
        states: list[ShardScanState] = []
        covered: set[int] = set()
        stale: list = []
        for index, digest in sorted(self.completed.items()):
            state = self._load_state(self.shard_path(index), digest)
            if state is None:
                stale.append(index)
                self.completed.pop(index)
                continue
            states.append(state)
            covered.add(index)
        for count, done in self.coarse:
            for index, digest in sorted(done.items()):
                state = self._load_state(self.shard_path(index, count), digest)
                if state is None:
                    stale.append((count, index))
                    done.pop(index)
                    continue
                states.append(state)
                covered.update(range(index, self.shards, count))
        self.coarse = [(count, done) for count, done in self.coarse if done]
        return states, covered, stale


@dataclass
class StreamOutcome:
    """What one streaming run produced."""

    report: PipelineReport
    corpus: Corpus | None
    merged: ShardScanState
    shards_executed: list[int]
    shards_loaded: list[int]


class StreamingDetectionPipeline:
    """Scans a sharded corpus plan, merges the shards, then confirms."""

    def __init__(
        self,
        seed: int | str,
        config: CorpusConfig | None = None,
        shards: int = 1,
        scan_jobs: int = 1,
        resume_dir: Path | str | None = None,
        watch_seconds: float = 40.0,
        probe_country: str = "US",
        confirm: bool = True,
        max_shards: int | None = None,
    ) -> None:
        self.seed = seed
        self.config = config or CorpusConfig()
        self.shards = max(1, shards)
        self.scan_jobs = max(1, scan_jobs)
        self.resume_dir = Path(resume_dir) if resume_dir else None
        self.watch_seconds = watch_seconds
        self.probe_country = probe_country
        self.confirm = confirm
        self.max_shards = max_shards

    def _config_digest(self) -> str:
        return content_digest(to_jsonable(self.config))

    def run(self) -> StreamOutcome:
        """Execute scan + merge + confirm; raises ScanIncomplete if bounded."""
        states, executed, loaded = self._scan_phase()
        merged = merge_shard_states(states)
        # Confirmation maps start empty; _confirm_phase fills them.
        report = PipelineReport(
            virtual_total_domains=self.config.virtual_total_domains,
            virtual_video_related=self.config.virtual_video_related,
            video_related_scanned=merged.video_related_scanned,
            site_scans=dict(merged.site_scans),
            app_scans=dict(merged.app_scans),
            extracted_keys=set(merged.extracted_keys),
            source_search_hits=set(merged.source_search_hits),
            generic_webrtc_sites=list(merged.generic_webrtc_sites),
        )
        corpus = None
        if self.confirm:
            corpus = self._confirm_phase(report)
        if self.resume_dir is not None:
            manifest = self._manifest()
            manifest.result_digest = report.content_digest()
            manifest.save()
        return StreamOutcome(
            report=report, corpus=corpus, merged=merged,
            shards_executed=executed, shards_loaded=loaded,
        )

    # -- scan phase -------------------------------------------------------

    def _manifest(self) -> StreamManifest:
        assert self.resume_dir is not None
        return StreamManifest.open(
            self.resume_dir, seed=self.seed, shards=self.shards,
            config_digest=self._config_digest(),
        )

    def _scan_phase(self) -> tuple[list[ShardScanState], list[int], list[int]]:
        manifest = self._manifest() if self.resume_dir is not None else None
        states: list[ShardScanState] = []
        covered: set[int] = set()
        if manifest is not None:
            states, covered, _stale = manifest.load_states()
        loaded = sorted(covered)
        pending = [i for i in range(self.shards) if i not in covered]
        if self.max_shards is not None:
            pending = pending[: self.max_shards]
        tasks = [(self.seed, self.config, index, self.shards) for index in pending]
        for state in pool_map(scan_shard, tasks, jobs=self.scan_jobs):
            states.append(state)
            covered.add(state.shard_index)
            if manifest is not None:
                manifest.record(state)
        if len(covered) < self.shards:
            where = self.resume_dir if self.resume_dir is not None else Path(".")
            raise ScanIncomplete(len(covered), self.shards, where)
        return states, pending, loaded

    # -- confirm phase ----------------------------------------------------

    def _confirm_phase(self, report: PipelineReport) -> Corpus:
        """Confirm every candidate over a freshly built ground corpus.

        Corpus construction draws nothing from the environment's
        sequential streams, so a fresh seeded environment holding just
        the ground truth enters confirmation in the same state as one
        holding the full corpus — noise sites are never candidates and
        need not exist.
        """
        env = Environment(seed=self.seed)
        corpus = build_ground_corpus(env, self.config)
        confirmer = DynamicConfirmer(
            env, watch_seconds=self.watch_seconds, probe_country=self.probe_country
        )
        for domain in report.potential_sites():
            site = corpus.website(domain)
            if site is not None:
                report.site_confirmations[domain] = confirmer.confirm_site(site)
        for package in report.potential_apps():
            app = corpus.app(package)
            if app is not None:
                report.app_confirmations[package] = confirmer.confirm_app(app)
        for domain in corpus.top10k_webrtc_domains:
            site = corpus.website(domain)
            if site is None:
                continue
            result = confirmer.confirm_site(site)
            report.private_confirmations[domain] = result
            if result.relay_suspected:
                report.relay_sites.append(domain)
        return corpus
