"""Viewer audiences and churn for the in-the-wild leak experiments.

The §IV-D week-long harvest collected 7,740 unique addresses whose
composition reflects each platform's audience: Huya TV ≈98% Chinese
IPs, RT News spread over 56 countries led by the US (35%), Britain
(17%), and Canada (13%), plus a 7.5% tail of bogon artifacts produced by
failed NAT traversal (543 private / 33 shared-NAT / 5 reserved in the
paper). :class:`PlatformAudience` encodes those mixes and
:class:`ViewerChurn` turns them into an arrival/departure process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.addresses import IpClass
from repro.net.clock import EventLoop
from repro.privacy.geo import GeoDatabase
from repro.scenarios.arrivals import LiveArrivals
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom


@dataclass(frozen=True)
class PlatformAudience:
    """Geographic mix and NAT-artifact rates of one platform's viewers."""

    name: str
    country_weights: dict[str, float]
    bogon_rate: float = 0.075
    bogon_split: tuple[tuple[IpClass, float], ...] = (
        (IpClass.PRIVATE, 0.935),
        (IpClass.SHARED_NAT, 0.057),
        (IpClass.RESERVED, 0.008),
    )

    def pick_country(self, rand: DeterministicRandom) -> str:
        """Draw one viewer's country from the audience's weights."""
        return rand.weighted_pick(list(self.country_weights.items()))


def huya_audience() -> PlatformAudience:
    """Huya TV: ~98% of public IPs in China."""
    weights = {"CN": 0.98, "US": 0.005, "SG": 0.004, "MY": 0.004, "CA": 0.003, "JP": 0.004}
    return PlatformAudience("huya", weights)


def rt_news_audience(geo: GeoDatabase) -> PlatformAudience:
    """RT News: 56 countries, US 35% / GB 17% / CA 13% on top."""
    weights = {"US": 0.35, "GB": 0.17, "CA": 0.13}
    rest = [c for c in geo.countries() if c not in weights]
    # Zipf-ish tail over the remaining countries.
    tail_total = 1.0 - sum(weights.values())
    tail_weights = [1.0 / (i + 1) for i in range(len(rest))]
    scale = tail_total / sum(tail_weights)
    for country, w in zip(rest, tail_weights):
        weights[country] = w * scale
    return PlatformAudience("rt-news", weights)


def single_country_audience(name: str, country: str) -> PlatformAudience:
    """For geo-constrained platforms like ok.ru (only 8 Russian IPs seen)."""
    return PlatformAudience(name, {country: 1.0})


@dataclass
class ViewerDescriptor:
    """One synthetic viewer session."""

    viewer_id: int
    observed_ip: str  # the address a harvesting peer would collect
    country: str
    session_length: float
    is_bogon_artifact: bool


class ViewerChurn:
    """Poisson arrivals of viewers with per-platform audience mixes.

    The scheduling itself lives in
    :class:`repro.scenarios.arrivals.LiveArrivals` — this class adds the
    audience sampling (country mix, bogon artifacts, session lengths)
    on top of the generic arrival process.
    """

    def __init__(
        self,
        loop: EventLoop,
        rand: DeterministicRandom,
        geo: GeoDatabase,
        audience: PlatformAudience,
        arrival_rate_per_min: float = 2.0,
        mean_session_min: float = 12.0,
    ) -> None:
        if arrival_rate_per_min <= 0 or mean_session_min <= 0:
            raise ConfigurationError("rates must be positive")
        self.loop = loop
        self.rand = rand.fork(f"churn:{audience.name}")
        self.geo = geo
        self.audience = audience
        self.arrival_rate_per_sec = arrival_rate_per_min / 60.0
        self.mean_session_sec = mean_session_min * 60.0
        self._counter = 0
        self._live: LiveArrivals | None = None

    def next_viewer(self) -> ViewerDescriptor:
        """Draw one viewer from the audience distribution."""
        self._counter += 1
        country = self.audience.pick_country(self.rand)
        is_artifact = self.rand.random() < self.audience.bogon_rate
        if is_artifact:
            kind = self.rand.weighted_pick(list(self.audience.bogon_split))
            ip = self.geo.random_bogon(self.rand, kind)
        else:
            ip = self.geo.random_ip(self.rand, country)
        session = self.rand.expovariate(1.0 / self.mean_session_sec)
        return ViewerDescriptor(self._counter, ip, country, max(30.0, session), is_artifact)

    @property
    def arrivals(self) -> int:
        """How many viewers have been delivered so far."""
        return self._live.arrivals if self._live is not None else 0

    def start(self, on_arrival: Callable[[ViewerDescriptor], None], until: float | None = None) -> None:
        """Schedule Poisson arrivals; each calls ``on_arrival(viewer)``.

        Delegates to :class:`~repro.scenarios.arrivals.LiveArrivals`, so
        a window that has already closed (``until`` at or before the
        loop's now) schedules nothing — the first arrival used to fire
        unconditionally and overcount at the horizon edge.
        """

        def deliver() -> None:
            """Draw the next viewer and hand it to the subscriber."""
            on_arrival(self.next_viewer())

        self._live = LiveArrivals(
            self.loop, self.rand, self.arrival_rate_per_sec, deliver, until
        )
        self._live.start()

    def stop(self) -> None:
        """Stop this component."""
        if self._live is not None:
            self._live.stop()
