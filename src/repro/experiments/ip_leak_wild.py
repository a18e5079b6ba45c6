"""§IV-D in-the-wild IP leak, plus the §V-C geo-filter evaluation.

A collecting peer sits in one live channel per platform for a week,
harvesting two hours of candidate disclosures per day, while organic
viewers churn through the swarm. Paper numbers:

- 7,740 unique addresses total — 7,055 from Huya TV, 685 from RT News;
- 7,159 public, 581 bogons (543 private / 33 shared-NAT / 5 reserved);
- 98% of Huya's public IPs in China; RT's spread over 259 cities in 56
  countries, led by US 35%, GB 17%, CA 13%;
- ok.ru: only 8 Russian IPs (geolocation constraints).

The §V-C mitigation numbers fall out of the same data: with
same-country candidate filtering, only ~35% of RT leaks remain visible
to a US observer and none of Huya's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.harvesting import GhostViewer, HarvestingPeer
from repro.environment import Environment
from repro.harness.registry import CliOption, experiment
from repro.harness.result import ResultBase
from repro.net.addresses import IpClass, classify_ip
from repro.pdn.policy import ClientPolicy
from repro.pdn.provider import STREAMROOT, PdnProvider, private_profile
from repro.pdn.scheduler import GeoFilterMode
from repro.privacy.viewers import (
    PlatformAudience,
    ViewerChurn,
    ViewerDescriptor,
    huya_audience,
    rt_news_audience,
    single_country_audience,
)
from repro.util.tables import render_kv

DAY = 86_400.0

PAPER = {
    "total_unique": 7_740,
    "huya_unique": 7_055,
    "rt_unique": 685,
    "public": 7_159,
    "bogons": 581,
    "bogon_private": 543,
    "bogon_shared": 33,
    "bogon_reserved": 5,
    "huya_cn_share": 0.98,
    "rt_top": {"US": 0.35, "GB": 0.17, "CA": 0.13},
    "rt_countries": 56,
    "rt_cities": 259,
    "okru_collected": 8,
}


@dataclass
class PlatformLeak:
    """Every unique address one platform's harvest disclosed."""
    platform: str
    observer_country: str
    unique_ips: set[str] = field(default_factory=set)

    @property
    def total(self) -> int:
        """Count of unique harvested addresses."""
        return len(self.unique_ips)

    def public_ips(self) -> list[str]:
        """The harvested addresses that are publicly routable."""
        return [ip for ip in self.unique_ips if classify_ip(ip) is IpClass.PUBLIC]

    def bogon_breakdown(self) -> dict[str, int]:
        """Non-public addresses split into private / shared-NAT / reserved."""
        return _bogon_split(classify_ip(ip) for ip in self.unique_ips)

    def country_distribution(self, geo) -> dict[str, float]:
        """Share of public addresses per country, largest first."""
        return self.geo_stats(geo)["country_distribution"]

    def cities(self, geo) -> int:
        """How many distinct cities the public addresses geolocate to."""
        return self.geo_stats(geo)["cities"]

    def same_country_share(self, geo) -> float:
        """What a same-country geo filter would still disclose (§V-C)."""
        return self.geo_stats(geo)["same_country_share"]

    def geo_stats(self, geo) -> dict:
        """The public count, bogon split, country shares, city count and
        same-country share, from one ``geo.lookup`` per address."""
        infos = [geo.lookup(ip) for ip in self.unique_ips]
        public = [info for info in infos if info.is_public]
        counts: dict[str, int] = {}
        for info in public:
            counts[info.country] = counts.get(info.country, 0) + 1
        n = len(public)
        return {
            "public": n,
            "bogons": _bogon_split(info.ip_class for info in infos),
            "country_distribution": {
                c: k / n for c, k in sorted(counts.items(), key=lambda kv: -kv[1])
            },
            "cities": len({info.city for info in public}),
            "same_country_share": counts.get(self.observer_country, 0) / n if n else 0.0,
        }


def _bogon_split(classes) -> dict[str, int]:
    """Count the non-public classes among ``classes`` by class name."""
    out = {"private": 0, "shared_nat": 0, "reserved": 0}
    for ip_class in classes:
        if ip_class is not IpClass.PUBLIC:
            out[ip_class.value] += 1
    return out


@dataclass
class IpLeakWildResult(ResultBase):
    """Per-platform harvests plus the geo database that locates them."""
    platforms: dict[str, PlatformLeak]
    geo: object
    #: Set only when ``--scenario`` drives the audience; empty strings
    #: and an empty dict otherwise, and then omitted from the digest
    #: form so classic-run digests stay untouched by the scenario
    #: layer's existence (same contract as ``repro chaos --scenario``).
    scenario_name: str = ""
    scenario_digest: str = ""
    timeline_digests: dict[str, str] = field(default_factory=dict)

    _serialize_exclude = ("geo",)

    @property
    def total_unique(self) -> int:
        """Unique addresses across every platform."""
        return sum(p.total for p in self.platforms.values())

    def to_dict(self) -> dict:
        """Export each platform's addresses and derived geo statistics."""
        platforms = {}
        for name, leak in self.platforms.items():
            platforms[name] = {
                "platform": leak.platform,
                "observer_country": leak.observer_country,
                "unique_ips": sorted(leak.unique_ips),
                "total": leak.total,
                **leak.geo_stats(self.geo),
            }
        out = {"total_unique": self.total_unique, "platforms": platforms}
        if self.scenario_name:
            out["scenario_name"] = self.scenario_name
            out["scenario_digest"] = self.scenario_digest
            out["timeline_digests"] = dict(sorted(self.timeline_digests.items()))
        return out

    def manifest_extra(self) -> dict:
        """Scenario provenance for the run manifest, when one drove the run."""
        if not self.scenario_name:
            return {}
        return {
            "scenario_name": self.scenario_name,
            "scenario_digest": self.scenario_digest,
            "timeline_digests": dict(sorted(self.timeline_digests.items())),
        }

    def render(self) -> str:
        """Render the result as the paper-style text block."""
        blocks = []
        stats = {name: p.geo_stats(self.geo) for name, p in self.platforms.items()}
        total_public = sum(stat["public"] for stat in stats.values())
        total_bogons = self.total_unique - total_public
        split = {"private": 0, "shared_nat": 0, "reserved": 0}
        for stat in stats.values():
            for key, value in stat["bogons"].items():
                split[key] += value
        title = "§IV-D IP leak in the wild (paper values in parentheses)"
        if self.scenario_name:
            title += f", scenario {self.scenario_name!r} ({self.scenario_digest[:12]})"
        blocks.append(
            render_kv(
                title,
                [
                    ("total unique IPs (7,740)", self.total_unique),
                    ("public (7,159)", total_public),
                    ("bogons (581)", total_bogons),
                    ("  private (543)", split["private"]),
                    ("  shared NAT (33)", split["shared_nat"]),
                    ("  reserved (5)", split["reserved"]),
                ],
            )
        )
        for name, platform in self.platforms.items():
            dist = stats[name]["country_distribution"]
            top = list(dist.items())[:3]
            blocks.append(
                render_kv(
                    f"platform {name} (observer in {platform.observer_country})",
                    [
                        ("unique IPs", platform.total),
                        ("countries", len(dist)),
                        ("cities", stats[name]["cities"]),
                        ("top countries", ", ".join(f"{c} {p * 100:.0f}%" for c, p in top)),
                        (
                            "leaks surviving same-country filter (§V-C)",
                            f"{stats[name]['same_country_share'] * 100:.0f}%",
                        ),
                    ],
                )
            )
        return "\n\n".join(blocks)


@experiment(
    "ip-leak",
    help="§IV-D: in-the-wild IP harvest",
    paper_ref="§IV-D",
    order=70,
    options=(
        CliOption("--days", "days", float, 1.0, "harvest days (without --full)"),
        CliOption(
            "--scenario",
            "scenario",
            str,
            "",
            "drive each platform's audience from a scenario preset or spec "
            "JSON instead of the Poisson churn windows (empty = classic "
            "behaviour; the harvest then covers the scenario horizon)",
        ),
    ),
    full_params={"days": 7.0},
    quick_params={"days": 0.05, "window_hours": 0.25},
)
def run(
    seed: int = 99,
    days: float = 7.0,
    window_hours: float = 2.0,
    huya_rate_per_min: float = 11.3,
    rt_rate_per_min: float = 0.75,
    okru_rate_per_min: float = 0.012,
    include_okru: bool = True,
    scenario: str = "",
) -> IpLeakWildResult:
    """Run the harvest on Huya-like, RT-like, and ok.ru-like platforms."""
    scenario_spec = None
    if scenario:
        from repro.scenarios.planner import load_scenario

        scenario_spec = load_scenario(scenario)
    platforms: dict[str, PlatformLeak] = {}
    timeline_digests: dict[str, str] = {}
    geo_ref = None
    specs = [
        ("huya.com", True, None, huya_rate_per_min, "US", GeoFilterMode.NONE),
        ("rt-news-app", False, None, rt_rate_per_min, "US", GeoFilterMode.NONE),
    ]
    if include_okru:
        specs.append(("ok.ru", True, "RU", okru_rate_per_min, "RU", GeoFilterMode.SAME_COUNTRY))
    for name, is_private, audience_country, rate, observer_country, geo_mode in specs:
        env = Environment(seed=f"{seed}:{name}")
        geo_ref = env.geo
        if audience_country:
            audience = single_country_audience(name, audience_country)
        elif name.startswith("huya"):
            audience = huya_audience()
        else:
            audience = rt_news_audience(env.geo)
        platforms[name] = _harvest_platform(
            env, name, is_private, audience, rate, observer_country, geo_mode,
            days, window_hours,
            scenario_spec=scenario_spec, timeline_digests=timeline_digests,
        )
    return IpLeakWildResult(
        platforms=platforms,
        geo=geo_ref,
        scenario_name=scenario_spec.name if scenario_spec is not None else "",
        scenario_digest=scenario_spec.digest() if scenario_spec is not None else "",
        timeline_digests=timeline_digests,
    )


def _scenario_descriptor(planned, audience: PlatformAudience, geo, rand) -> ViewerDescriptor:
    """Turn one :class:`PlannedSession` into the churn-layer descriptor.

    The scenario layer plans *who joins when*; this maps its population
    attributes onto what a harvesting peer observes. A CGNAT session's
    external address sits in the RFC 6598 shared space by definition;
    every other NAT kind still runs the audience's failed-traversal
    bogon trial, same odds as the classic churn path.
    """
    if planned.nat == "cgnat":
        ip = geo.random_bogon(rand, IpClass.SHARED_NAT)
        is_artifact = True
    elif rand.random() < audience.bogon_rate:
        kind = rand.weighted_pick(list(audience.bogon_split))
        ip = geo.random_bogon(rand, kind)
        is_artifact = True
    else:
        ip = geo.random_ip(rand, planned.country)
        is_artifact = False
    session_length = max(30.0, planned.leave_at - planned.join_at)
    return ViewerDescriptor(
        planned.viewer_id, ip, planned.country, session_length, is_artifact
    )


def _harvest_platform(
    env: Environment,
    name: str,
    is_private: bool,
    audience: PlatformAudience,
    arrival_rate_per_min: float,
    observer_country: str,
    geo_mode: GeoFilterMode,
    days: float,
    window_hours: float,
    scenario_spec=None,
    timeline_digests: dict[str, str] | None = None,
) -> PlatformLeak:
    if is_private:
        profile = private_profile(name, f"signal.{name}", video_bound_tokens=False)
    else:
        profile = STREAMROOT
    provider = PdnProvider(env.loop, env.rand, profile)
    provider.install(env.urlspace)
    provider.signup_customer(name, None, ClientPolicy())
    provider.scheduler.geo_filter = geo_mode
    provider.signaling.geo_resolver = env.geo.resolver()
    # Ghost viewers are lightweight stand-ins for real SDKs (which send
    # keepalives); disable idle reaping rather than simulate 10^6 pings.
    provider.signaling.reaper.cancel()

    video_url = f"https://cdn.{name}/live/channel-1/playlist.m3u8"
    credential = (
        provider.issue_session_token(name, video_url)
        if is_private
        else provider.authenticator.issue_key(name).key
    )

    def on_arrival(descriptor):
        """Spawn one ghost viewer for a churn arrival."""
        viewer_credential = (
            provider.issue_session_token(name, video_url) if is_private else credential
        )
        GhostViewer(env, provider, viewer_credential, video_url, descriptor, f"https://{name}")

    if scenario_spec is not None:
        # Scenario mode: the audience comes from a materialised timeline
        # instead of Poisson churn — every planned join becomes one
        # ghost-viewer arrival at its planned instant, and the harvester
        # watches the whole scenario horizon as a single window. The
        # timeline digest is recorded so run manifests pin exactly
        # which audience was realised (as `repro chaos --scenario` does).
        from repro.scenarios.timeline import materialize

        timeline = materialize(scenario_spec, env.rand.fork(f"scenario:{name}"))
        if timeline_digests is not None:
            timeline_digests[name] = timeline.digest()
        horizon = scenario_spec.horizon
        windows = [(0.0, scenario_spec.horizon)]
        descriptor_rand = env.rand.fork(f"scenario-audience:{name}")
        for planned in timeline.sessions:
            descriptor = _scenario_descriptor(planned, audience, env.geo, descriptor_rand)
            env.loop.schedule(planned.join_at, on_arrival, descriptor)
    else:
        # The paper harvests 2 hours per day for a week. Viewer churn
        # matters only while it can be observed, so arrivals run from
        # shortly before each window (to populate the swarm) to its end.
        horizon = max(days * DAY, window_hours * 3600.0)
        num_windows = max(1, int(round(days)))
        windows = [(d * DAY, d * DAY + window_hours * 3600.0) for d in range(num_windows)]
        warmup = 30 * 60.0
        for day, (t0, t1) in enumerate(windows):
            churn = ViewerChurn(
                env.loop,
                env.rand.fork(f"churn:{name}:{day}"),
                env.geo,
                audience,
                arrival_rate_per_min=arrival_rate_per_min,
                mean_session_min=12.0,
            )
            start_at = max(0.0, t0 - warmup)
            env.loop.schedule(start_at, churn.start, on_arrival, t1)

    observer_ip = env.geo.random_ip(env.rand.fork("observer"), observer_country)
    harvester_credential = (
        provider.issue_session_token(name, video_url) if is_private else credential
    )
    harvester = HarvestingPeer(
        env, provider, harvester_credential, video_url,
        origin=f"https://{name}", observer_ip=observer_ip, windows=windows,
    )
    started = harvester.start()
    if not started:
        raise RuntimeError(f"harvester failed to join {name}")

    env.run(horizon)
    harvester.stop()
    leak = PlatformLeak(platform=name, observer_country=observer_country)
    leak.unique_ips = harvester.unique_ips()
    leak.unique_ips.discard(harvester.observer_ip)
    return leak
