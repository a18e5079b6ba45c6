"""The synthetic internet corpus, seeded with the paper's ground truth.

The corpus materialises every site and app the paper's pipeline acted
on, embedded in realistic noise:

- the 17 confirmed PDN websites of Table II and 18 confirmed apps of
  Table III (one of the paper's 18 rows is a duplicate of
  ``vn.com.vega.clipvn``; we materialise the 18th as the placeholder
  package ``vn.com.vega.clipvn2`` so per-provider counts match Table I);
- the remaining *potential* customers (134 sites / 38 apps in total)
  whose PDN never triggers under dynamic analysis — geolocation gates,
  subscription walls;
- the 10 confirmed private PDN services of Table IV, the 2 adult
  TURN-relaying platforms, 3 WebRTC-fingerprinting sites, and 42 generic
  WebRTC sites that never produce PDN traffic;
- API keys distributed so that exactly 44 are regex-extractable, 40 of
  those valid, and 11 of the valid Peer5 keys lack a domain allowlist —
  the §IV-B in-the-wild numbers;
- noise: video sites without any PDN, and non-video sites.

Counts that the paper reports but that need no per-site behaviour (the
Tranco 300K crawl, the 68,713 video-related domains, the 1.5M sampled
apps) are carried as *virtual* totals on the corpus object.

Since the streaming-detection refactor the corpus is described before it
is built: a :class:`CorpusPlan` lays out every site and app as an
immutable :class:`SiteSpec`/:class:`AppSpec` (ground truth eagerly, the
noise population procedurally by index, so a 3M-domain plan costs no
memory), :class:`CorpusShard` slices the plan into lazy strided
sub-sequences, and :class:`CorpusBuilder` materialises individual specs
into an :class:`~repro.environment.Environment`. Every random artifact a
spec produces (API keys, provider streams) derives from *stateless named
forks* keyed by the item's own identity, never from a shared sequential
stream — so any subset of specs, materialised in any order by any number
of shards, yields bit-identical sites. :func:`build_corpus` is now just
"materialise all shards" in the legacy order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.environment import Environment
from repro.pdn.policy import CellularPolicy, ClientPolicy
from repro.pdn.provider import PEER5, STREAMROOT, VIBLAST, PdnProvider, private_profile
from repro.streaming.cdn import CdnEdge, OriginServer, vod_playlist_url
from repro.streaming.video import make_video
from repro.web.apk import AndroidApp, build_pdn_apk, build_plain_apk
from repro.web.page import LoadCondition, PdnEmbed, WebPage, Website

# --------------------------------------------------------------------------
# Ground-truth data straight from the paper's tables.
# --------------------------------------------------------------------------

# Table II: confirmed PDN websites (domain, provider, monthly visits).
CONFIRMED_WEBSITES: list[tuple[str, str, int | None]] = [
    ("rt.com", "streamroot", 117_000_000),
    ("clarin.com", "peer5", 69_000_000),
    ("rtve.es", "peer5", 35_000_000),
    ("jn.pt", "peer5", 12_000_000),
    ("ojogo.pt", "peer5", 8_000_000),
    ("dn.pt", "peer5", 6_000_000),
    ("servustv.com", "peer5", 4_000_000),
    ("www.popcornflix.com", "peer5", 1_000_000),
    ("tsf.pt", "peer5", 1_000_000),
    ("dinheirovivo.pt", "peer5", 1_000_000),
    ("www.sliver.tv", "peer5", None),
    ("hdo.tv", "peer5", None),
    ("www.souvenirsfromearth.tv", "peer5", None),
    ("www.severestudios.com", "peer5", None),
    ("www.performancevetsupply.com", "peer5", None),
    ("www.schoolfordesign.net", "peer5", None),
    ("9uu.com", "peer5", None),
]

# Table III: confirmed PDN apps (package, provider, Google Play downloads).
CONFIRMED_APPS: list[tuple[str, str, int | None]] = [
    ("iflix.play", "streamroot", 50_000_000),
    ("fr.francetv.pluzz", "streamroot", 10_000_000),
    ("com.nousguide.android.rbtv", "peer5", 10_000_000),
    ("com.portonics.mygp", "peer5", 10_000_000),
    ("mivo.tv", "peer5", 10_000_000),
    ("com.bongo.bioscope", "peer5", 5_000_000),
    ("tv.fubo.mobile", "peer5", 5_000_000),
    ("com.rt.mobile.english", "streamroot", 1_000_000),
    ("vn.com.vega.clipvn", "peer5", 1_000_000),
    ("com.flipps.fitetv", "peer5", 1_000_000),
    # Table III prints vn.com.vega.clipvn twice; placeholder keeps counts.
    ("vn.com.vega.clipvn2", "peer5", 1_000_000),
    ("com.arenacloudtv.android", "peer5", 500_000),
    ("com.televisions.burma", "peer5", 50_000),
    ("com.totalaccesstv.live", "peer5", None),
    ("dev.hw.app.tgnd", "peer5", None),
    ("tv.almighty.apk", "peer5", None),
    ("com.rvcomx.brpro", "peer5", None),
    ("com.lts.cricingif", "peer5", None),
]

# §IV-D: the three apps allowing cellular upload AND download.
CELLULAR_FULL_APPS = {"com.bongo.bioscope", "com.portonics.mygp", "com.arenacloudtv.android"}

# Table IV: confirmed private PDN services (domain, signaling host, visits).
PRIVATE_SERVICES: list[tuple[str, str, int]] = [
    ("bilibili.com", "hw-v2-web-player-tracker.biliapi.net", 911_000_000),
    ("ok.ru", "vm.mycdn.me", 662_000_000),
    ("douyu.com", "wsproxy.douyu.com", 95_000_000),
    ("v.qq.com", "webrtcpunch.video.qq.com", 92_000_000),
    ("iqiyi.com", "broker-qx-ws2.iqiyi.com", 82_000_000),
    ("huya.com", "wsapi.huya.com", 61_000_000),
    ("youku.com", "ws.mmstat.com", 60_000_000),
    ("tudou.com", "ws.mmstat.com", 44_000_000),
    ("mgtv.com", "signal.api.mgtv.com", 42_000_000),
    ("younow.com", "signaling.younow-prod.video.propsproject.com", 1_000_000),
]

# Private services whose tokens are NOT bound to the video source
# (Mango TV confirmed free-ridable; Tencent Video token unbound).
PRIVATE_UNBOUND_TOKENS = {"mgtv.com", "v.qq.com"}

ADULT_RELAY_SITES = ["xhamsterlive.com", "stripchat.com"]
WEBRTC_TRACKING_SITES = ["tracker-cdn.example-ads.com", "fingerprintjs.example.net", "metrics.example-media.tv"]

# Potential-but-unconfirmed split per provider (Table I: potential 60/53/21
# websites minus confirmed 16/1/0).
POTENTIAL_UNCONFIRMED_SITES = {"peer5": 44, "streamroot": 52, "viblast": 21}
# Apps: potential 31/6/1 minus confirmed 15/3/0.
POTENTIAL_UNCONFIRMED_APPS = {"peer5": 16, "streamroot": 3, "viblast": 1}

# APK version budgets (Table I): pdn-signature APKs for confirmed apps /
# for potential-only apps, per provider.
APK_BUDGETS = {
    "peer5": {"confirmed_pdn": 199, "potential_pdn": 349},
    "streamroot": {"confirmed_pdn": 53, "potential_pdn": 15},
    "viblast": {"confirmed_pdn": 0, "potential_pdn": 11},
}

# §IV-B key extraction ground truth. Keys are extractable unless the
# customer obfuscates them; of the 44 extractable, 4 are expired; of the
# 36 valid Peer5 keys, 11 lack a domain allowlist.
EXTRACTABLE_KEYS = {"peer5": 38, "streamroot": 2, "viblast": 4}
EXPIRED_EXTRACTABLE = {"peer5": 2, "streamroot": 1, "viblast": 1}
PEER5_NO_ALLOWLIST_VALID = 11

# Inline JS carried by the non-PDN WebRTC populations: fingerprinting
# trackers and generic live-streaming sites that match only the generic
# signatures. Pure string templates — no shared mutable state.
_TRACKING_JS = (
    "<script>var pc = new RTCPeerConnection({iceServers:[]});"
    "pc.createDataChannel('probe');</script>"
)
_GENERIC_JS = (
    "<script>var signal = new WebSocket('wss://{host}/live-ws');"
    "var pc = new RTCPeerConnection();</script>"
)


@dataclass
class CorpusConfig:
    """Scale knobs for the synthetic internet."""

    virtual_total_domains: int = 300_000
    virtual_video_related: int = 68_713
    virtual_source_search_hits: int = 44
    virtual_sampled_apps: int = 1_500_000
    generic_webrtc_total: int = 385  # sites matching generic signatures
    generic_webrtc_top10k: int = 57  # of which in the top 10K (dyn. tested)
    untriggerable_generic_top10k: int = 42
    noise_video_sites: int = 80
    noise_nonvideo_sites: int = 40
    noise_apps: int = 25
    video_segments: int = 8
    segment_seconds: float = 4.0
    segment_bytes: int = 60_000


def quick_corpus_config() -> CorpusConfig:
    """A scaled-down corpus for smoke runs: ground truth intact, noise cut.

    The confirmed customers (and hence every paper count) are all still
    present; only the synthetic noise population shrinks, so quick runs
    stay representative while finishing in about a second.
    """
    return CorpusConfig(noise_video_sites=8, noise_nonvideo_sites=4, noise_apps=4)


@dataclass
class CustomerRecord:
    """Ground truth about one PDN customer integration."""

    name: str  # domain or package
    provider: str
    kind: str  # "website" | "app" | "private"
    confirmed_expected: bool
    api_key: str | None = None
    key_extractable: bool = False
    key_valid: bool = True
    key_has_allowlist: bool = True
    monthly_visits: int | None = None
    downloads: int | None = None


@dataclass
class Corpus:
    """The materialised internet plus its ground truth."""

    env: Environment
    config: CorpusConfig
    origin: OriginServer
    cdn: CdnEdge
    providers: dict[str, PdnProvider] = field(default_factory=dict)
    private_providers: dict[str, PdnProvider] = field(default_factory=dict)
    websites: list[Website] = field(default_factory=list)
    apps: list[AndroidApp] = field(default_factory=list)
    records: list[CustomerRecord] = field(default_factory=list)
    top10k_webrtc_domains: list[str] = field(default_factory=list)
    plan: "CorpusPlan | None" = None

    def website(self, domain: str) -> Website | None:
        """Website."""
        for site in self.websites:
            if site.domain == domain:
                return site
        return None

    def app(self, package: str) -> AndroidApp | None:
        """App."""
        for app in self.apps:
            if app.package_name == package:
                return app
        return None

    def expected_confirmed(self, kind: str) -> set[str]:
        """Expected confirmed."""
        return {r.name for r in self.records if r.kind == kind and r.confirmed_expected}

    def extractable_keys(self) -> list[CustomerRecord]:
        """Extractable keys."""
        return [r for r in self.records if r.key_extractable and r.api_key]


# --------------------------------------------------------------------------
# The plan: the corpus as immutable data, addressable by index.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SiteSpec:
    """Everything needed to materialise one website, as pure data.

    A spec is self-contained: materialising it touches only stateless
    named RNG forks keyed by the domain (or customer id), so the same
    spec builds the same site no matter which shard handles it, in what
    order, or alongside which other specs.
    """

    kind: str  # confirmed|potential|private|adult|tracking|generic|longtail|noise_video|noise_plain
    domain: str
    rank: int
    category: str
    provider: str | None = None  # public provider name (confirmed/potential)
    monthly_visits: int | None = None
    signaling_host: str | None = None  # private/adult services
    #: The first PRIVATE_SERVICES domain using this signaling host — the
    #: provider profile is named after it so youku.com/tudou.com resolve
    #: to the *same* ws.mmstat.com service regardless of which shard
    #: materialises which platform first.
    signaling_owner: str | None = None
    video_bound_tokens: bool = True
    load_condition: LoadCondition = LoadCondition.ALWAYS
    geo_country: str = ""
    deep_pages: bool = False
    extractable: bool = False
    expired: bool = False
    no_allowlist: bool = False
    top10k: bool = False
    video_id: str | None = None  # None = the shared corpus video (or none)
    confirmed_expected: bool = False


@dataclass(frozen=True)
class AppSpec:
    """Everything needed to materialise one Android app, as pure data."""

    kind: str  # confirmed_app | potential_app | noise_app
    package: str
    provider: str | None = None
    downloads: int | None = None
    pdn_versions: int = 0  # raw APK-budget spread (builder applies max(1, .))
    plain_versions: int = 0
    cellular_full: bool = False
    video_id: str | None = None
    load_condition: LoadCondition = LoadCondition.ALWAYS
    confirmed_expected: bool = False


class _KeyPlan:
    """Allocates extractable/expired/no-allowlist key slots per provider."""

    def __init__(self) -> None:
        self.extractable_left = dict(EXTRACTABLE_KEYS)
        self.expired_left = dict(EXPIRED_EXTRACTABLE)
        self.no_allowlist_left = PEER5_NO_ALLOWLIST_VALID

    def take_extractable(self, provider: str) -> bool:
        """Take extractable."""
        if self.extractable_left.get(provider, 0) > 0:
            self.extractable_left[provider] -= 1
            return True
        return False

    def take_expired(self, provider: str) -> bool:
        """Take expired."""
        if self.expired_left.get(provider, 0) > 0:
            self.expired_left[provider] -= 1
            return True
        return False

    def take_no_allowlist(self, provider: str) -> bool:
        """Take no allowlist."""
        if provider == "peer5" and self.no_allowlist_left > 0:
            self.no_allowlist_left -= 1
            return True
        return False

    def verify(self) -> None:
        """Return True if the signature checks out."""
        leftover = (
            sum(self.extractable_left.values())
            + sum(self.expired_left.values())
            + self.no_allowlist_left
        )
        if leftover:
            raise RuntimeError(
                f"key plan not exhausted: {self.extractable_left} {self.expired_left} "
                f"no-allowlist={self.no_allowlist_left}"
            )


def _apk_spread(total: int, parts: int) -> list[int]:
    """Split ``total`` APKs across ``parts`` apps, deterministic."""
    if parts == 0:
        return []
    base = total // parts
    out = [base] * parts
    for i in range(total - base * parts):
        out[i] += 1
    return out


def _ground_site_specs(config: CorpusConfig) -> list[SiteSpec]:
    """The ground-truth website population, in the legacy build order.

    The :class:`_KeyPlan` allocation runs here, in exactly the order the
    old ``_add_*`` functions consumed it, so which customer gets an
    extractable / expired / no-allowlist key is unchanged.
    """
    key_plan = _KeyPlan()
    specs: list[SiteSpec] = []
    for rank_offset, (domain, provider_name, visits) in enumerate(CONFIRMED_WEBSITES):
        # Confirmed sites never use expired keys (they join successfully);
        # a handful of them are among the 11 Peer5 no-allowlist customers.
        no_allowlist = (
            provider_name == "peer5"
            and rank_offset % 3 == 0
            and key_plan.take_no_allowlist(provider_name)
        )
        specs.append(
            SiteSpec(
                kind="confirmed",
                domain=domain,
                rank=200 + rank_offset * 37,
                category="tv",
                provider=provider_name,
                monthly_visits=visits,
                extractable=key_plan.take_extractable(provider_name),
                no_allowlist=no_allowlist,
                video_id=f"vod-{domain.replace('.', '-')}",
                confirmed_expected=True,
            )
        )
    conditions = [
        (LoadCondition.GEO, "CN"),
        (LoadCondition.GEO, "RU"),
        (LoadCondition.SUBSCRIPTION, ""),
    ]
    counter = 0
    for provider_name, count in POTENTIAL_UNCONFIRMED_SITES.items():
        for i in range(count):
            counter += 1
            condition, geo = conditions[counter % len(conditions)]
            extractable = key_plan.take_extractable(provider_name)
            expired = extractable and key_plan.take_expired(provider_name)
            # Only valid, extracted keys can show up in the §IV-B 11/36
            # cross-domain statistic, so no-allowlist slots go to those.
            no_allowlist = (
                extractable and not expired and key_plan.take_no_allowlist(provider_name)
            )
            specs.append(
                SiteSpec(
                    kind="potential",
                    domain=f"{provider_name}-potential-{i}.example.org",
                    rank=2_000 + counter * 71,
                    category="video",
                    provider=provider_name,
                    load_condition=condition,
                    geo_country=geo,
                    # Some potential customers carry the embed on a depth-2 page.
                    deep_pages=counter % 4 == 0,
                    extractable=extractable,
                    expired=expired,
                    no_allowlist=no_allowlist,
                )
            )
    key_plan.verify()
    owner_by_host: dict[str, str] = {}
    for rank_offset, (domain, signaling_host, visits) in enumerate(PRIVATE_SERVICES):
        owner = owner_by_host.setdefault(signaling_host, domain)
        specs.append(
            SiteSpec(
                kind="private",
                domain=domain,
                rank=10 + rank_offset * 13,
                category="live",
                monthly_visits=visits,
                signaling_host=signaling_host,
                signaling_owner=owner,
                video_bound_tokens=owner not in PRIVATE_UNBOUND_TOKENS,
                top10k=True,
                video_id=f"private-{domain.replace('.', '-')}",
                confirmed_expected=True,
            )
        )
    for i, domain in enumerate(ADULT_RELAY_SITES):
        specs.append(
            SiteSpec(
                kind="adult",
                domain=domain,
                rank=3_000 + i * 311,
                category="adult",
                signaling_host=f"relay.{domain}",
                signaling_owner=domain,
                top10k=True,
                video_id=f"adult-{i}",
            )
        )
    for i, domain in enumerate(WEBRTC_TRACKING_SITES):
        specs.append(
            SiteSpec(kind="tracking", domain=domain, rank=4_000 + i * 97,
                     category="tv", top10k=True)
        )
    for i in range(config.untriggerable_generic_top10k):
        specs.append(
            SiteSpec(kind="generic", domain=f"generic-webrtc-{i}.example.tv",
                     rank=5_000 + i * 29, category="video", top10k=True)
        )
    # The remaining generic-WebRTC sites rank below the top 10K; the paper
    # never dynamically tested them. A small materialised sample stands in
    # for the tail; the virtual count covers the rest.
    for i in range(10):
        specs.append(
            SiteSpec(kind="longtail", domain=f"longtail-webrtc-{i}.example.net",
                     rank=40_000 + i * 997, category="video")
        )
    return specs


def _ground_app_specs(config: CorpusConfig) -> list[AppSpec]:
    """The ground-truth app population, in the legacy build order."""
    confirmed_by_provider: dict[str, list[tuple[str, int | None]]] = {}
    for package, provider_name, downloads in CONFIRMED_APPS:
        confirmed_by_provider.setdefault(provider_name, []).append((package, downloads))
    specs: list[AppSpec] = []
    for provider_name, budget in APK_BUDGETS.items():
        confirmed = confirmed_by_provider.get(provider_name, [])
        spreads = _apk_spread(budget["confirmed_pdn"], len(confirmed))
        for (package, downloads), pdn_versions in zip(confirmed, spreads):
            specs.append(
                AppSpec(
                    kind="confirmed_app",
                    package=package,
                    provider=provider_name,
                    downloads=downloads,
                    pdn_versions=pdn_versions,
                    plain_versions=1,  # a pre-integration version
                    cellular_full=package in CELLULAR_FULL_APPS,
                    video_id=f"app-{package.replace('.', '-')}",
                    confirmed_expected=True,
                )
            )
        potential_count = POTENTIAL_UNCONFIRMED_APPS.get(provider_name, 0)
        spreads = _apk_spread(budget["potential_pdn"], potential_count)
        for i, pdn_versions in enumerate(spreads):
            specs.append(
                AppSpec(
                    kind="potential_app",
                    package=f"com.{provider_name}.potential{i}",
                    provider=provider_name,
                    pdn_versions=pdn_versions,
                    load_condition=LoadCondition.GEO,
                )
            )
    return specs


class CorpusPlan:
    """The whole corpus as addressable specs, before anything is built.

    Ground truth (a few hundred items) is laid out eagerly; the noise
    population is addressed procedurally by index, so the plan's memory
    footprint is independent of ``noise_video_sites`` — a 3M-domain plan
    is as cheap as the quick one.
    """

    def __init__(self, config: CorpusConfig | None = None) -> None:
        self.config = config or CorpusConfig()
        self.ground_sites: list[SiteSpec] = _ground_site_specs(self.config)
        self.ground_apps: list[AppSpec] = _ground_app_specs(self.config)

    # -- addressing -------------------------------------------------------

    @property
    def noise_sites(self) -> int:
        """Noise sites."""
        return self.config.noise_video_sites + self.config.noise_nonvideo_sites

    @property
    def total_sites(self) -> int:
        """Total sites."""
        return len(self.ground_sites) + self.noise_sites

    @property
    def total_apps(self) -> int:
        """Total apps."""
        return len(self.ground_apps) + self.config.noise_apps

    def site_spec(self, index: int) -> SiteSpec:
        """The site spec at ``index``: ground truth first, then noise."""
        if index < len(self.ground_sites):
            return self.ground_sites[index]
        return self.noise_site_spec(index - len(self.ground_sites))

    def app_spec(self, index: int) -> AppSpec:
        """The app spec at ``index``: ground truth first, then noise."""
        if index < len(self.ground_apps):
            return self.ground_apps[index]
        return self.noise_app_spec(index - len(self.ground_apps))

    def noise_site_spec(self, i: int) -> SiteSpec:
        """The ``i``-th noise site, computed (never stored)."""
        if i < self.config.noise_video_sites:
            return SiteSpec(kind="noise_video", domain=f"video-noise-{i}.example.com",
                            rank=8_000 + i * 53, category="video")
        j = i - self.config.noise_video_sites
        return SiteSpec(kind="noise_plain", domain=f"plain-noise-{j}.example.com",
                        rank=12_000 + j * 61, category="general")

    def noise_app_spec(self, i: int) -> AppSpec:
        """The ``i``-th noise app, computed (never stored)."""
        return AppSpec(kind="noise_app", package=f"com.noise.app{i}",
                       downloads=10_000 * (i + 1), plain_versions=3)

    # -- sharding ---------------------------------------------------------

    def shard(self, index: int, count: int) -> "CorpusShard":
        """One of ``count`` strided shards over the whole plan."""
        if not 0 <= index < count:
            raise ValueError(f"shard index {index} out of range for {count} shards")
        return CorpusShard(self, index, count)


@dataclass(frozen=True)
class CorpusShard:
    """A lazy strided slice of a :class:`CorpusPlan`.

    Shard ``index`` of ``count`` yields specs ``index, index+count, ...``
    — generated on demand, never stored. Because every spec materialises
    from its own named RNG forks (same experiment seed in every worker),
    the shard count partitions *work*, never *content*: the union of any
    shard decomposition is the same corpus, and re-sharding cannot move
    randomness between items.
    """

    plan: CorpusPlan
    index: int
    count: int

    def site_specs(self):
        """Yield this shard's site specs lazily."""
        for i in range(self.index, self.plan.total_sites, self.count):
            yield self.plan.site_spec(i)

    def app_specs(self):
        """Yield this shard's app specs lazily."""
        for i in range(self.index, self.plan.total_apps, self.count):
            yield self.plan.app_spec(i)


# --------------------------------------------------------------------------
# The builder: specs -> materialised sites/apps in an Environment.
# --------------------------------------------------------------------------


class CorpusBuilder:
    """Materialises :class:`CorpusPlan` specs into an environment.

    ``keep=False`` materialisations register the site for HTTP scanning
    but keep it out of the corpus lists; pair with :meth:`release_site`
    to drop it from the URL space afterwards — that scan-and-release
    cycle is what bounds streaming-shard memory. ``with_videos=False``
    skips origin segment payloads (page HTML only carries the video URL
    string, so scan results are unchanged); dynamic confirmation needs
    the real segments, so confirm-phase builders keep the default.

    Each spec must be materialised at most once per builder: signup is a
    provider-side effect, and a second signup for the same customer
    would mint that customer's *next* serial key.
    """

    def __init__(
        self,
        env: Environment,
        config: CorpusConfig | None = None,
        plan: CorpusPlan | None = None,
        with_videos: bool = True,
    ) -> None:
        self.plan = plan if plan is not None else CorpusPlan(config)
        self.config = self.plan.config
        self.env = env
        self.with_videos = with_videos
        origin = OriginServer(env.loop, hostname="origin.corpus.net")
        cdn = CdnEdge(origin, hostname="cdn.corpus.net")
        env.urlspace.register(origin.hostname, origin)
        env.urlspace.register(cdn.hostname, cdn)
        self.corpus = Corpus(env, self.config, origin, cdn, plan=self.plan)
        for profile in (PEER5, STREAMROOT, VIBLAST):
            provider = PdnProvider(env.loop, env.rand, profile)
            provider.install(env.urlspace)
            self.corpus.providers[profile.name] = provider
        self._private_by_signaling: dict[str, PdnProvider] = {}
        if self.with_videos:
            self._add_video("corpus-shared")

    # -- sites ------------------------------------------------------------

    def materialize_site(self, spec: SiteSpec, keep: bool = True) -> Website:
        """Build one website and register it in the URL space.

        ``keep=True`` also appends it to the corpus lists (websites,
        records, top-10K probe list) — the full-corpus path. Streaming
        shards use ``keep=False`` for droppable populations.
        """
        build = self._SITE_BUILDERS[spec.kind]
        site, record = build(self, spec)
        self.env.urlspace.register(spec.domain, site)
        if keep:
            self.corpus.websites.append(site)
            if spec.top10k:
                self.corpus.top10k_webrtc_domains.append(spec.domain)
            if record is not None:
                self.corpus.records.append(record)
        return site

    def release_site(self, spec: SiteSpec) -> None:
        """Drop a ``keep=False`` site from the URL space after scanning."""
        self.env.urlspace.unregister(spec.domain)

    def _site_confirmed(self, spec: SiteSpec) -> tuple[Website, CustomerRecord]:
        provider = self.corpus.providers[spec.provider]
        domains = None if spec.no_allowlist else {spec.domain}
        key = provider.signup_customer(spec.domain, domains, ClientPolicy())
        video_url = self._video_url(spec.video_id)
        site = Website(spec.domain, rank=spec.rank, category=spec.category,
                       monthly_visits=spec.monthly_visits)
        embed = PdnEmbed(provider, key.key, video_url, obfuscated=not spec.extractable)
        site.add_page(WebPage("/", f"{spec.domain} home", has_video=True, embed=embed,
                              links=["/live", "/about"]))
        site.add_page(WebPage("/live", "live", has_video=True, embed=embed))
        site.add_page(WebPage("/about", "about"))
        record = CustomerRecord(
            name=spec.domain,
            provider=spec.provider,
            kind="website",
            confirmed_expected=True,
            api_key=key.key,
            key_extractable=spec.extractable,
            key_valid=True,
            key_has_allowlist=key.has_allowlist,
            monthly_visits=spec.monthly_visits,
        )
        return site, record

    def _site_potential(self, spec: SiteSpec) -> tuple[Website, CustomerRecord]:
        provider = self.corpus.providers[spec.provider]
        domains = None if spec.no_allowlist else {spec.domain}
        key = provider.signup_customer(spec.domain, domains, ClientPolicy())
        if spec.expired:
            provider.authenticator.revoke_key(key.key)
        embed = PdnEmbed(
            provider,
            key.key,
            self._video_url(None),
            obfuscated=not spec.extractable,
            load_condition=spec.load_condition,
            geo_country=spec.geo_country or "CN",
        )
        site = Website(spec.domain, rank=spec.rank, category=spec.category)
        if spec.deep_pages:
            site.add_page(WebPage("/", "home", has_video=True, links=["/videos"]))
            site.add_page(WebPage("/videos", "videos", has_video=True, links=["/videos/live"]))
            site.add_page(WebPage("/videos/live", "live", has_video=True, embed=embed))
        else:
            site.add_page(WebPage("/", "home", has_video=True, embed=embed))
        record = CustomerRecord(
            name=spec.domain,
            provider=spec.provider,
            kind="website",
            confirmed_expected=False,
            api_key=key.key,
            key_extractable=spec.extractable,
            key_valid=not spec.expired,
            key_has_allowlist=key.has_allowlist,
        )
        return site, record

    def _site_private(self, spec: SiteSpec) -> tuple[Website, CustomerRecord | None]:
        provider = self._private_provider(spec)
        provider.signup_customer(spec.domain, {spec.domain}, ClientPolicy())
        self.corpus.private_providers[spec.domain] = provider
        video_url = self._video_url(spec.video_id)
        provider.register_drm_video(video_url)
        site = Website(spec.domain, rank=spec.rank, category=spec.category,
                       monthly_visits=spec.monthly_visits)
        embed = PdnEmbed(provider, spec.domain, video_url,
                         relay_only=spec.kind == "adult")
        site.add_page(WebPage("/", spec.domain, has_video=True, embed=embed))
        if spec.kind == "adult":
            return site, None
        record = CustomerRecord(
            name=spec.domain,
            provider=f"private:{spec.domain}",
            kind="private",
            confirmed_expected=True,
            monthly_visits=spec.monthly_visits,
        )
        return site, record

    def _site_tracking(self, spec: SiteSpec) -> tuple[Website, None]:
        site = Website(spec.domain, rank=spec.rank, category=spec.category)
        site.add_page(WebPage("/", spec.domain, has_video=True, extra_html=_TRACKING_JS))
        return site, None

    def _site_generic(self, spec: SiteSpec) -> tuple[Website, None]:
        site = Website(spec.domain, rank=spec.rank, category=spec.category)
        site.add_page(WebPage("/", spec.domain, has_video=True,
                              extra_html=_GENERIC_JS.format(host=spec.domain)))
        return site, None

    def _site_noise_video(self, spec: SiteSpec) -> tuple[Website, None]:
        site = Website(spec.domain, rank=spec.rank, category=spec.category)
        site.add_page(WebPage("/", spec.domain, has_video=True, links=["/shows"]))
        site.add_page(WebPage("/shows", "shows", has_video=True))
        return site, None

    def _site_noise_plain(self, spec: SiteSpec) -> tuple[Website, None]:
        site = Website(spec.domain, rank=spec.rank, category=spec.category)
        site.add_page(WebPage("/", spec.domain, has_video=False))
        return site, None

    _SITE_BUILDERS = {
        "confirmed": _site_confirmed,
        "potential": _site_potential,
        "private": _site_private,
        "adult": _site_private,  # youku-style embed, relay-only, no record
        "tracking": _site_tracking,
        "generic": _site_generic,
        "longtail": _site_generic,
        "noise_video": _site_noise_video,
        "noise_plain": _site_noise_plain,
    }

    # -- apps -------------------------------------------------------------

    def materialize_app(self, spec: AppSpec, keep: bool = True) -> AndroidApp:
        """Build one Android app; ``keep=True`` adds it to the corpus."""
        if spec.kind == "noise_app":
            app = AndroidApp(spec.package, downloads=spec.downloads)
            for v in range(spec.plain_versions):
                app.add_version(build_plain_apk(10 + v))
            record = None
        else:
            provider = self.corpus.providers[spec.provider]
            cellular = CellularPolicy.FULL if spec.cellular_full else CellularPolicy.LEECH
            key = provider.signup_customer(
                spec.package, {spec.package}, ClientPolicy(cellular=cellular)
            )
            embed = PdnEmbed(
                provider,
                key.key,
                self._video_url(spec.video_id),
                load_condition=spec.load_condition,
                geo_country="CN",
            )
            app = AndroidApp(spec.package, downloads=spec.downloads)
            for v in range(max(1, spec.pdn_versions)):
                app.add_version(build_pdn_apk(100 + v, embed))
            for v in range(spec.plain_versions):
                app.add_version(build_plain_apk(50))
            record = CustomerRecord(
                name=spec.package,
                provider=spec.provider,
                kind="app",
                confirmed_expected=spec.confirmed_expected,
                api_key=key.key,
                key_extractable=False,  # app keys ship obfuscated
                key_valid=True,
                key_has_allowlist=True,
                downloads=spec.downloads if spec.confirmed_expected else None,
            )
        if keep:
            self.corpus.apps.append(app)
            if record is not None:
                self.corpus.records.append(record)
        return app

    # -- shared infrastructure --------------------------------------------

    def _private_provider(self, spec: SiteSpec) -> PdnProvider:
        provider = self._private_by_signaling.get(spec.signaling_host)
        if provider is None:
            # youku.com and tudou.com share ws.mmstat.com: one Alibaba
            # signaling service with two customer platforms. The profile
            # is always named after the spec's signaling_owner, so the
            # service is identical no matter which platform builds first.
            profile = private_profile(
                spec.signaling_owner,
                spec.signaling_host,
                video_bound_tokens=spec.video_bound_tokens,
            )
            provider = PdnProvider(self.env.loop, self.env.rand, profile)
            provider.install(self.env.urlspace)
            self._private_by_signaling[spec.signaling_host] = provider
        return provider

    def _video_url(self, video_id: str | None) -> str:
        """The CDN playlist URL for a spec's video, creating it if asked.

        ``video_id=None`` is the shared corpus video. Segment payloads
        are only materialised ``with_videos``; the URL string — all the
        static scan ever sees — is the same either way.
        """
        video_id = video_id or "corpus-shared"
        if self.with_videos and video_id != "corpus-shared":
            self._add_video(video_id)
        return vod_playlist_url(self.corpus.cdn.hostname, video_id)

    def _add_video(self, video_id: str) -> None:
        config = self.config
        video = make_video(
            video_id,
            num_segments=config.video_segments,
            segment_duration=config.segment_seconds,
            segment_size=config.segment_bytes,
        )
        self.corpus.origin.add_vod(video)


def build_corpus(env: Environment, config: CorpusConfig | None = None) -> Corpus:
    """Materialise the synthetic internet into ``env``'s URL space.

    Equivalent to materialising every :class:`CorpusShard` of the plan;
    items are visited in the legacy order (public customers, apps,
    private services, WebRTC populations, noise) so corpora built before
    the plan/shard split are reproduced bit-for-bit.
    """
    builder = CorpusBuilder(env, config)
    plan = builder.plan
    ground_public = [s for s in plan.ground_sites if s.kind in ("confirmed", "potential")]
    ground_rest = [s for s in plan.ground_sites if s.kind not in ("confirmed", "potential")]
    for spec in ground_public:
        builder.materialize_site(spec)
    for spec in plan.ground_apps:
        builder.materialize_app(spec)
    for spec in ground_rest:
        builder.materialize_site(spec)
    for i in range(plan.noise_sites):
        builder.materialize_site(plan.noise_site_spec(i))
    for i in range(plan.config.noise_apps):
        builder.materialize_app(plan.noise_app_spec(i))
    env.rand.fork("corpus-shuffle")  # reserved stream, keeps older seeds stable
    return builder.corpus


def build_ground_corpus(env: Environment, config: CorpusConfig | None = None) -> Corpus:
    """Materialise only the ground-truth population (no noise).

    The streaming pipeline's confirmation phase runs on this: every
    dynamic-confirmation candidate is ground truth, and because corpus
    construction consumes no sequential draws from ``env``, the
    environment state entering confirmation matches a full
    :func:`build_corpus` bit-for-bit while skipping the (arbitrarily
    large) noise population entirely.
    """
    builder = CorpusBuilder(env, config)
    plan = builder.plan
    for spec in (s for s in plan.ground_sites if s.kind in ("confirmed", "potential")):
        builder.materialize_site(spec)
    for spec in plan.ground_apps:
        builder.materialize_app(spec)
    for spec in (s for s in plan.ground_sites if s.kind not in ("confirmed", "potential")):
        builder.materialize_site(spec)
    return builder.corpus
