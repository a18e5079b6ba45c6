"""Event-loop observers: what ``--profile`` sees of a run.

Every :class:`~repro.net.clock.EventLoop` counts the events it fires,
and :data:`~repro.net.clock.FIRED_TOTAL` sums those counts, so a run's
event total needs no observer. The observers here go further and look at single
events: each is armed with ``EventLoop.add_observer`` (class-wide, so
every loop an experiment creates is covered — experiments routinely
build several ``Environment`` objects) and called as ``hook(loop,
entry)`` before each event fires:

- :class:`SiteProfiler` — events grouped by *callback site* (module +
  qualified name), surfaced by ``repro <exp> --profile``, with timing-
  wheel counters folded in;
- :class:`WheelStats` — the timing wheel's batched/overflow totals and
  peak occupancy across every observed loop.

Observers observe, never mutate: they must not schedule events or touch
simulation state, or replay-from-seed breaks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.net.clock import EventLoop
from repro.util.tables import render_table


def callsite_of(callback) -> str:
    """A stable label for a callback: ``module.qualname``."""
    module = getattr(callback, "__module__", None) or "?"
    name = getattr(callback, "__qualname__", None) or repr(type(callback).__name__)
    return f"{module}.{name}"


def callback_of(entry) -> object:
    """The callback behind an observer's ``entry`` argument.

    Observers see either a :class:`~repro.net.clock.TimerHandle` or, for
    a datagram delivery, the anonymous ``(when, seq, callback, args)``
    entry whose callback is the network's delivery method. A delivery
    that went to the heap is queued in that shape, and one drained from
    the wheel's batched columns is presented in it, so both tiers name
    the same site.
    """
    return entry[2] if type(entry) is tuple else entry.callback


class WheelStats:
    """Timing-wheel counters sampled before each event, across every loop.

    Reads :meth:`EventLoop.wheel_occupancy` and the loop's cumulative
    ``wheel_overflow`` / ``wheel_batched`` / ``wheel_batch_drains``
    counters; per-loop last snapshots are summed so several loops
    (experiments routinely build more than one ``Environment``)
    aggregate correctly.
    """

    def __init__(self) -> None:
        self.max_occupancy = 0
        #: Keyed by the observed EventLoop, or by an opaque string for
        #: wheel snapshots absorbed from shard worker processes
        #: (:meth:`absorb_remote`) — both map to the same snapshot shape.
        self._loops: dict[object, tuple[int, int, int]] = {}

    def absorb_remote(self, key: str, wheel: dict) -> None:
        """Fold one remote loop's wheel counters into the aggregate.

        Shard worker processes (:mod:`repro.net.shard`) run their loops
        in other address spaces, where no observer sees them; each
        worker's final report carries its loop's ``wheel_stats()``
        dict, which a caller registers here under a stable string key.
        Counters sum with the locally observed loops, occupancy folds
        into the max — so ``render_wheel_summary`` reports the whole
        sharded run. ``occupancy`` in a shipped snapshot is the worker's
        barrier-sampled peak.
        """
        occupancy = wheel.get("occupancy", 0)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        self._loops[key] = (
            wheel.get("overflow", 0),
            wheel.get("batched", 0),
            wheel.get("batch_drains", 0),
        )

    def __call__(self, loop: EventLoop, entry: object) -> None:
        """Sample the wheel gauges of the loop about to fire ``entry``."""
        occupancy = loop.wheel_occupancy
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        self._loops[loop] = (
            loop.wheel_overflow,
            loop.wheel_batched,
            loop.wheel_batch_drains,
        )

    @property
    def overflow(self) -> int:
        """Deliveries past the depth gate that fell through to the heap."""
        return sum(snap[0] for snap in self._loops.values())

    @property
    def batched(self) -> int:
        """In-band deliveries carried as columnar wheel rows."""
        return sum(snap[1] for snap in self._loops.values())

    @property
    def batch_drains(self) -> int:
        """Drain frames entered: ``batched / batch_drains`` is the mean
        datagrams delivered per callback frame."""
        return sum(snap[2] for snap in self._loops.values())

    def to_dict(self) -> dict:
        """Serialise for the JSON output format."""
        return {
            "overflow": self.overflow,
            "batched": self.batched,
            "batch_drains": self.batch_drains,
            "max_occupancy": self.max_occupancy,
        }


def render_wheel_summary(wheel: dict) -> str:
    """One line summarising a :meth:`WheelStats.to_dict` payload.

    The batched-delivery clause appears once a drain has run.
    """
    line = (
        f"timing wheel: {wheel['overflow']:,} heap overflow, "
        f"peak occupancy {wheel['max_occupancy']:,}"
    )
    drains = wheel.get("batch_drains", 0)
    if drains:
        per = wheel["batched"] / drains
        line += (
            f"; batched delivery: {wheel['batched']:,} datagrams over "
            f"{drains:,} drains ({per:.1f}/drain)"
        )
    return line


class SiteProfiler:
    """Per-callback-site event counts, for ``--profile``."""

    def __init__(self) -> None:
        self.sites: dict[str, int] = {}
        self.wheel = WheelStats()

    def __call__(self, loop: EventLoop, entry: object) -> None:
        """Attribute the event about to fire to its callback site."""
        site = callsite_of(callback_of(entry))
        self.sites[site] = self.sites.get(site, 0) + 1
        self.wheel(loop, entry)

    @property
    def total(self) -> int:
        """Events observed, over every site."""
        return sum(self.sites.values())

    def top(self, n: int = 15) -> list[tuple[str, int]]:
        """The ``n`` busiest callback sites, busiest first."""
        ranked = sorted(self.sites.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def to_dict(self) -> dict:
        """Serialise for the JSON output format."""
        return {
            "total_events": self.total,
            "sites": dict(sorted(self.sites.items())),
            "wheel": self.wheel.to_dict(),
        }

    def render(self, n: int = 15) -> str:
        """An aligned table of the busiest callback sites."""
        total = self.total
        rows = [
            [site, count, f"{count / total * 100:.1f}%" if total else "-"]
            for site, count in self.top(n)
        ]
        table = render_table(
            ["callback site", "events", "share"],
            rows,
            title=f"event-loop profile ({total} events, top {min(n, len(self.sites))} sites)",
        )
        if self.wheel._loops:
            table = f"{table}\n{render_wheel_summary(self.wheel.to_dict())}"
        return table


@contextmanager
def capture_events(observer: Callable[[EventLoop, object], None]) -> Iterator:
    """Arm ``observer`` on every :class:`EventLoop` for the block's duration."""
    EventLoop.add_observer(observer)
    try:
        yield observer
    finally:
        EventLoop.remove_observer(observer)
