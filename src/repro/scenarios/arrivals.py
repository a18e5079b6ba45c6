"""Viewer arrival processes: who shows up, when.

The paper's in-the-wild numbers (7,740 harvested addresses, 47%
initial-stage pollution reach) depend entirely on the audience's
*shape*: a flash crowd racing a live event behaves nothing like a
diurnal VoD long tail. This module makes that shape data — each
:class:`ArrivalProcess` is a small frozen dataclass that serialises to
plain JSON and samples a concrete list of arrival times from a seeded
:class:`~repro.util.rand.DeterministicRandom`, so "the flash crowd at
seed S" means the same viewers at the same instants everywhere.

Three processes cover the regimes the measurement study observed:

* :class:`PoissonArrivals` — memoryless steady state (the classic
  audience model, and what :class:`~repro.privacy.viewers.ViewerChurn`
  now delegates to);
* :class:`DiurnalArrivals` — a sinusoid-modulated rate for day/night
  cycles, sampled by thinning;
* :class:`FlashCrowdArrivals` — a Poisson baseline plus an
  exponentially-decaying burst at a spike instant (a live event going
  viral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.net.clock import EventLoop
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom


@dataclass(frozen=True)
class ArrivalProcess:
    """Base of every arrival process: sample times within a horizon."""

    kind = "abstract"

    def times(self, rand: DeterministicRandom, horizon: float) -> list[float]:
        """Sorted arrival times in ``[0, horizon)``, rounded to 1 ms."""
        raise NotImplementedError  # pragma: no cover - abstract

    def to_dict(self) -> dict:
        """Serialise: the registered kind plus this process's fields."""
        out: dict = {"kind": self.kind}
        for spec in fields(self):
            out[spec.name] = getattr(self, spec.name)
        return out

    @staticmethod
    def from_dict(data: dict) -> "ArrivalProcess":
        """Rebuild any known arrival-process kind from its dict form."""
        data = dict(data)
        kind = data.pop("kind", None)
        types = arrival_types()
        cls = types.get(kind)
        if cls is None:
            known = ", ".join(sorted(types))
            raise ConfigurationError(f"unknown arrival kind {kind!r} (known: {known})")
        return cls(**data)


def _round_times(raw: list[float], horizon: float) -> list[float]:
    """Round to 1 ms and re-enforce the strict ``< horizon`` bound."""
    out = [round(t, 3) for t in raw]
    return sorted(t for t in out if 0.0 <= t < horizon)


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant rate."""

    rate_per_min: float = 6.0

    kind = "poisson"

    def __post_init__(self) -> None:
        if self.rate_per_min <= 0:
            raise ConfigurationError("poisson arrival rate must be positive")

    def times(self, rand: DeterministicRandom, horizon: float) -> list[float]:
        """Exponential inter-arrival gaps until the horizon."""
        rate = self.rate_per_min / 60.0
        out: list[float] = []
        t = rand.expovariate(rate)
        while t < horizon:
            out.append(t)
            t += rand.expovariate(rate)
        return _round_times(out, horizon)


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """A day/night cycle: sinusoid-modulated rate, sampled by thinning.

    The instantaneous rate starts at ``base_rate_per_min`` (the
    overnight trough), peaks at ``peak_rate_per_min`` half a period in,
    and returns to the trough — one full cosine per ``period_sec``.
    Horizons shorter than a period see the ramp-up only, which is
    exactly the "evening fills up" regime live platforms care about.
    """

    base_rate_per_min: float = 1.0
    peak_rate_per_min: float = 10.0
    period_sec: float = 86400.0

    kind = "diurnal"

    def __post_init__(self) -> None:
        if self.base_rate_per_min <= 0 or self.period_sec <= 0:
            raise ConfigurationError("diurnal base rate and period must be positive")
        if self.peak_rate_per_min < self.base_rate_per_min:
            raise ConfigurationError("diurnal peak rate must be >= base rate")

    def rate_per_min_at(self, t: float) -> float:
        """The instantaneous arrival rate at simulated time ``t``."""
        swing = self.peak_rate_per_min - self.base_rate_per_min
        frac = 0.5 - 0.5 * math.cos(2.0 * math.pi * t / self.period_sec)
        return self.base_rate_per_min + swing * frac

    def times(self, rand: DeterministicRandom, horizon: float) -> list[float]:
        """Thinning against the peak rate (Lewis–Shedler)."""
        peak = self.peak_rate_per_min / 60.0
        out: list[float] = []
        t = rand.expovariate(peak)
        while t < horizon:
            if rand.random() * self.peak_rate_per_min <= self.rate_per_min_at(t):
                out.append(t)
            t += rand.expovariate(peak)
        return _round_times(out, horizon)


@dataclass(frozen=True)
class FlashCrowdArrivals(ArrivalProcess):
    """A steady baseline plus a viral burst at one spike instant.

    ``spike_arrivals`` extra viewers pile in starting at
    ``spike_at_sec``, with exponentially-decaying offsets of mean
    ``spike_width_sec / 3`` — most of the crowd lands inside the width.
    Spike draws are a fixed count regardless of horizon, so truncating
    the horizon never shifts the baseline stream.
    """

    base_rate_per_min: float = 3.0
    spike_at_sec: float = 10.0
    spike_arrivals: int = 20
    spike_width_sec: float = 8.0

    kind = "flash_crowd"

    def __post_init__(self) -> None:
        if self.base_rate_per_min <= 0:
            raise ConfigurationError("flash-crowd base rate must be positive")
        if self.spike_at_sec < 0 or self.spike_arrivals < 0 or self.spike_width_sec <= 0:
            raise ConfigurationError("flash-crowd spike parameters out of range")

    def times(self, rand: DeterministicRandom, horizon: float) -> list[float]:
        """The baseline Poisson stream merged with the spike burst."""
        rate = self.base_rate_per_min / 60.0
        out: list[float] = []
        t = rand.expovariate(rate)
        while t < horizon:
            out.append(t)
            t += rand.expovariate(rate)
        decay = 3.0 / self.spike_width_sec
        for _ in range(self.spike_arrivals):
            out.append(self.spike_at_sec + rand.expovariate(decay))
        return _round_times(out, horizon)


def arrival_types() -> dict[str, type]:
    """The kind → class map, built fresh per call (no shared state)."""
    return {
        cls.kind: cls
        for cls in (PoissonArrivals, DiurnalArrivals, FlashCrowdArrivals)
    }


class LiveArrivals:
    """Open-ended Poisson arrival scheduling on an event loop.

    :class:`~repro.privacy.viewers.ViewerChurn` folds onto this: the
    harvest experiments need arrivals that keep flowing until told to
    stop, not a pre-sampled list. The first arrival is only scheduled
    when the window is still open — ``until`` at or before the loop's
    now schedules nothing (the boundary :class:`ViewerChurn` used to
    get wrong) — and the arrival counter increments exactly once per
    delivered callback, so it can never overcount at the window edge.
    """

    def __init__(
        self,
        loop: EventLoop,
        rand: DeterministicRandom,
        rate_per_sec: float,
        on_arrival,
        until: float | None = None,
    ) -> None:
        if rate_per_sec <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.loop = loop
        self.rand = rand
        self.rate_per_sec = rate_per_sec
        self.on_arrival = on_arrival
        self.until = until
        self.arrivals = 0
        self._running = False

    def start(self) -> "LiveArrivals":
        """Schedule the first arrival — unless the window already closed."""
        if self._running:
            return self
        if self.until is not None and self.loop.now >= self.until:
            return self
        self._running = True
        self.loop.schedule(self.rand.expovariate(self.rate_per_sec), self._fire)
        return self

    def _fire(self) -> None:
        """Deliver one arrival and schedule the next."""
        if not self._running or (self.until is not None and self.loop.now >= self.until):
            return
        self.arrivals += 1
        self.on_arrival()
        self.loop.schedule(self.rand.expovariate(self.rate_per_sec), self._fire)

    def stop(self) -> None:
        """Stop delivering arrivals; pending timers become no-ops."""
        self._running = False
