"""Declarative scenario specifications: workloads as data.

A :class:`ScenarioSpec` is to the audience what a
:class:`~repro.net.faults.FaultPlan` is to the network: a named,
canonical-JSON-serialisable, digestable description of *who shows up
and how they behave*. It composes four orthogonal pieces:

* an :class:`~repro.scenarios.arrivals.ArrivalProcess` (when viewers
  arrive);
* a :class:`SessionModel` (how long they stay, zapping, seeking,
  mid-roll abandons, player buffering/ABR knobs);
* a :class:`PopulationMix` (NAT types including CGNAT, cellular and
  leech shares, region skew);
* a :class:`CatalogShape` (one live channel vs a VoD long tail that
  splits the audience over many titles).

Specs carry no randomness of their own — sampling happens in
:func:`repro.scenarios.timeline.materialize` against a seeded stream —
so the same spec digest plus the same seed always yields the same
audience, and run manifests can record scenario provenance exactly
like chaos-plan provenance.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.scenarios.arrivals import ArrivalProcess, PoissonArrivals
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom


def _normalized_mix(mix: dict[str, float], label: str) -> dict[str, float]:
    """Validate a weight table and normalise it to sum exactly 1.0."""
    if not mix:
        raise ConfigurationError(f"{label} mix must not be empty")
    total = 0.0
    for key, weight in mix.items():
        if weight < 0:
            raise ConfigurationError(f"{label} weight for {key} must be >= 0")
        total += weight
    if total <= 0:
        raise ConfigurationError(f"{label} mix weights must sum to > 0")
    if abs(total - 1.0) <= 1e-9:
        # Already normalised (e.g. loaded back from JSON): keep the
        # weights bit-for-bit so normalisation is idempotent and spec
        # round trips are digest fixed points.
        return {key: float(weight) for key, weight in sorted(mix.items())}
    return {key: weight / total for key, weight in sorted(mix.items())}


def _check_fraction(value: float, label: str) -> float:
    """Require ``value`` to be a probability."""
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{label} must be in [0, 1], got {value}")
    return float(value)


def weighted_pick(rand: DeterministicRandom, mix: dict[str, float]) -> str:
    """Draw one key from a weight table, in sorted-key order.

    Sorting makes the draw independent of dict insertion order, so a
    spec loaded from JSON realises the same audience as the spec it
    was serialised from.
    """
    items = sorted(mix.items())
    return rand.weighted_pick(items)


#: NAT behaviours a population mix may assign, including carrier-grade
#: NAT ("cgnat"): a symmetric NAT whose external address sits in the
#: RFC 6598 shared space — the bogon class the paper's harvest observed.
NAT_KINDS = ("full_cone", "restricted_cone", "port_restricted_cone", "symmetric", "cgnat")


@dataclass(frozen=True)
class SessionModel:
    """How one viewer behaves between join and leave.

    ``mean_watch_sec`` draws an exponential intended session length
    (floored at ``min_watch_sec``); ``abandon_prob`` turns a session
    into a mid-roll abandon that cuts the intended length short;
    ``zap_prob`` makes the viewer switch titles mid-session (leaving
    the measured swarm when the new title differs); ``seek_rate_per_min``
    drives forward scrubs through the player; ``buffer_target`` and
    ``abr_upgrade_after`` are handed to the
    :class:`~repro.streaming.player.VideoPlayer`.
    """

    mean_watch_sec: float = 90.0
    min_watch_sec: float = 5.0
    abandon_prob: float = 0.1
    zap_prob: float = 0.0
    seek_rate_per_min: float = 0.0
    buffer_target: int = 3
    abr_upgrade_after: int = 4

    def __post_init__(self) -> None:
        if self.mean_watch_sec <= 0 or not 0.1 <= self.min_watch_sec <= self.mean_watch_sec:
            raise ConfigurationError(
                "session lengths must satisfy 0.1 <= min_watch_sec <= mean_watch_sec"
            )
        _check_fraction(self.abandon_prob, "abandon_prob")
        _check_fraction(self.zap_prob, "zap_prob")
        if self.seek_rate_per_min < 0:
            raise ConfigurationError("seek_rate_per_min must be >= 0")
        if self.buffer_target < 1 or self.abr_upgrade_after < 1:
            raise ConfigurationError("player knobs must be >= 1")

    def to_dict(self) -> dict:
        """Serialise to plain JSON types."""
        return {
            "mean_watch_sec": self.mean_watch_sec,
            "min_watch_sec": self.min_watch_sec,
            "abandon_prob": self.abandon_prob,
            "zap_prob": self.zap_prob,
            "seek_rate_per_min": self.seek_rate_per_min,
            "buffer_target": self.buffer_target,
            "abr_upgrade_after": self.abr_upgrade_after,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionModel":
        """Rebuild from :meth:`to_dict` output."""
        return cls(**{k: data[k] for k in cls().to_dict() if k in data})


@dataclass(frozen=True)
class PopulationMix:
    """Who the viewers are: NAT types, access links, regions.

    ``nat_mix`` and ``region_mix`` are weight tables normalised to sum
    to 1; ``cellular_share`` viewers join on cellular links (leeching
    by provider policy); ``leech_share`` viewers additionally never
    serve uploads regardless of link (free riders).
    """

    nat_mix: dict[str, float] = field(
        default_factory=lambda: {"full_cone": 0.5, "port_restricted_cone": 0.3, "symmetric": 0.2}
    )
    region_mix: dict[str, float] = field(default_factory=lambda: {"US": 0.6, "DE": 0.4})
    cellular_share: float = 0.0
    leech_share: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "nat_mix", _normalized_mix(self.nat_mix, "nat"))
        object.__setattr__(self, "region_mix", _normalized_mix(self.region_mix, "region"))
        for kind in self.nat_mix:
            if kind not in NAT_KINDS:
                known = ", ".join(NAT_KINDS)
                raise ConfigurationError(f"unknown NAT kind {kind} (known: {known})")
        _check_fraction(self.cellular_share, "cellular_share")
        _check_fraction(self.leech_share, "leech_share")

    def to_dict(self) -> dict:
        """Serialise to plain JSON types (mixes already normalised)."""
        return {
            "nat_mix": dict(self.nat_mix),
            "region_mix": dict(self.region_mix),
            "cellular_share": self.cellular_share,
            "leech_share": self.leech_share,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PopulationMix":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            nat_mix=dict(data.get("nat_mix", {"full_cone": 1.0})),
            region_mix=dict(data.get("region_mix", {"US": 1.0})),
            cellular_share=float(data.get("cellular_share", 0.0)),
            leech_share=float(data.get("leech_share", 0.0)),
        )


@dataclass(frozen=True)
class CatalogShape:
    """What is on offer: one live channel, or a VoD long tail.

    ``live`` has a single title every viewer watches. ``vod`` spreads
    viewers over ``titles`` titles with Zipf(``zipf_s``) popularity;
    title 0 is the head title the experiments instrument, so a heavier
    tail means a thinner measured swarm — audience dilution as data.
    """

    kind: str = "live"
    titles: int = 1
    zipf_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("live", "vod"):
            raise ConfigurationError(f"catalog kind must be 'live' or 'vod', got {self.kind}")
        if self.titles < 1:
            raise ConfigurationError("catalog must have at least one title")
        if self.kind == "live" and self.titles != 1:
            raise ConfigurationError("a live catalog has exactly one channel")
        if self.zipf_s < 0:
            raise ConfigurationError("zipf_s must be >= 0")

    def pick_title(self, rand: DeterministicRandom) -> int:
        """Draw the title a freshly-arrived viewer watches."""
        if self.titles == 1:
            return 0
        weights = [(i, 1.0 / (i + 1) ** self.zipf_s) for i in range(self.titles)]
        return rand.weighted_pick(weights)

    def to_dict(self) -> dict:
        """Serialise to plain JSON types."""
        return {"kind": self.kind, "titles": self.titles, "zipf_s": self.zipf_s}

    @classmethod
    def from_dict(cls, data: dict) -> "CatalogShape":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            kind=str(data.get("kind", "live")),
            titles=int(data.get("titles", 1)),
            zipf_s=float(data.get("zipf_s", 1.0)),
        )


@dataclass
class ScenarioSpec:
    """A named, serialisable workload: arrivals × sessions × population × catalog."""

    name: str = "custom"
    horizon: float = 60.0
    arrivals: ArrivalProcess = field(default_factory=PoissonArrivals)
    session: SessionModel = field(default_factory=SessionModel)
    population: PopulationMix = field(default_factory=PopulationMix)
    catalog: CatalogShape = field(default_factory=CatalogShape)
    #: Hard cap on materialised sessions (None = whatever the process yields).
    max_viewers: int | None = None

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("scenario horizon must be positive")
        if self.max_viewers is not None and self.max_viewers < 0:
            raise ConfigurationError("max_viewers must be >= 0")

    def to_dict(self) -> dict:
        """Serialise to plain JSON types (the manifest/digest form)."""
        return {
            "name": self.name,
            "horizon": self.horizon,
            "arrivals": self.arrivals.to_dict(),
            "session": self.session.to_dict(),
            "population": self.population.to_dict(),
            "catalog": self.catalog.to_dict(),
            "max_viewers": self.max_viewers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            name=str(data.get("name", "custom")),
            horizon=float(data.get("horizon", 60.0)),
            arrivals=ArrivalProcess.from_dict(data.get("arrivals", {"kind": "poisson"})),
            session=SessionModel.from_dict(data.get("session", {})),
            population=PopulationMix.from_dict(data.get("population", {})),
            catalog=CatalogShape.from_dict(data.get("catalog", {})),
            max_viewers=data.get("max_viewers"),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a spec previously written with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — recorded in run manifests."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def expected_regions(self) -> list[str]:
        """The regions this audience can come from, sorted."""
        return sorted(self.population.region_mix)
