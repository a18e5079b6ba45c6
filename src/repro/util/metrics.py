"""A sampled time series with summary statistics.

The Docker-stats analog (:mod:`repro.privacy.resources`) records its
observations through :class:`TimeSeries` so that experiments can
aggregate them uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class TimeSeries:
    """A sampled series of (time, value) points with summary statistics."""

    name: str = ""
    points: list[tuple[float, float]] = field(default_factory=list)

    def record(self, t: float, value: float) -> None:
        """Record."""
        self.points.append((t, value))

    def values(self) -> list[float]:
        """Values."""
        return [v for _, v in self.points]

    def mean(self) -> float:
        """Mean."""
        vals = self.values()
        return sum(vals) / len(vals) if vals else 0.0

    def mean_between(self, t0: float, t1: float) -> float:
        """Mean between."""
        vals = [v for t, v in self.points if t0 <= t <= t1]
        return sum(vals) / len(vals) if vals else 0.0

    def max(self) -> float:
        """Max."""
        vals = self.values()
        return max(vals) if vals else 0.0

    def min(self) -> float:
        """Min."""
        vals = self.values()
        return min(vals) if vals else 0.0

    def stddev(self) -> float:
        """Stddev."""
        vals = self.values()
        if len(vals) < 2:
            return 0.0
        mu = self.mean()
        return math.sqrt(sum((v - mu) ** 2 for v in vals) / (len(vals) - 1))

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        vals = sorted(self.values())
        if not vals:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        rank = max(1, math.ceil(p / 100 * len(vals)))
        return vals[rank - 1]

    def last(self) -> float:
        """Last."""
        return self.points[-1][1] if self.points else 0.0

    def total(self) -> float:
        """Total."""
        return sum(self.values())
