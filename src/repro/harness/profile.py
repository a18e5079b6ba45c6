"""Event-loop instrumentation sinks: the simulator's observability seam.

:class:`~repro.net.clock.EventLoop` fires millions of callbacks per
run but, until now, exposed only a total count. The sinks here attach
through ``EventLoop.add_sink`` (class-wide, so every loop an experiment
creates is covered — experiments routinely build several
``Environment`` objects) and observe each fired event:

- :class:`EventCounter` — total events, the figure recorded in every
  :class:`~repro.harness.manifest.RunRecord`;
- :class:`SiteProfiler` — events grouped by *callback site* (module +
  qualified name), surfaced by ``repro <exp> --profile``, with timing-
  wheel counters folded in;
- :class:`WheelStats` — the timing wheel's batched/overflow totals and
  peak occupancy across every observed loop;
- :class:`TraceSink` — a bounded ``(when, site)`` trace for debugging.

Sinks observe, never mutate: they must not schedule events or touch
simulation state, or replay-from-seed breaks.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.net.clock import EventLoop, TimerHandle
from repro.util.tables import render_table


def callsite_of(callback) -> str:
    """A stable label for a callback: ``module.qualname``."""
    module = getattr(callback, "__module__", None) or "?"
    name = getattr(callback, "__qualname__", None) or repr(type(callback).__name__)
    return f"{module}.{name}"


def callback_of(handle) -> object:
    """The fired callback behind a sink's ``handle`` argument.

    Sinks see either a :class:`~repro.net.clock.TimerHandle` or, for a
    datagram delivery, the anonymous ``(when, seq, callback, args)``
    entry whose callback is the network's delivery method. A delivery
    that went to the heap is queued in that shape, and one drained from
    the wheel's batched columns is presented in it, so both tiers name
    the same site.
    """
    return handle[2] if type(handle) is tuple else handle.callback


class EventCounter:
    """Counts every event fired by every loop while installed."""

    def __init__(self) -> None:
        self.total = 0

    def record(self, loop: EventLoop, handle: TimerHandle) -> None:
        """Observe one fired event."""
        self.total += 1

    def absorb_remote(self, key: str, report: dict) -> None:
        """Add the events a shard worker process fired out of sight.

        ``report`` is the worker's ``ShardWorker.final_report()``; its
        loop ran in another address space, where this class-wide sink
        could not observe it.
        """
        self.total += report["events_fired"]


class WheelStats:
    """Timing-wheel counters sampled per fired event, across every loop.

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
        in other address spaces, where class-wide sinks cannot see them;
        the coordinator ships each worker's ``wheel_stats()`` dict home
        and registers it here under a stable string key. Counters sum
        with the locally observed loops, occupancy folds into the max —
        so ``render_wheel_summary`` reports the whole sharded run, not
        the parent's empty wheel. ``occupancy`` in a shipped snapshot is
        the worker's barrier-sampled peak.
        """
        occupancy = wheel.get("occupancy", 0)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        self._loops[key] = (
            wheel.get("overflow", 0),
            wheel.get("batched", 0),
            wheel.get("batch_drains", 0),
        )

    def record(self, loop: EventLoop, handle: TimerHandle) -> None:
        """Sample the wheel gauges of the loop that just fired."""
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


class SiteProfiler(EventCounter):
    """Per-callback-site event counts, for ``--profile``."""

    def __init__(self) -> None:
        super().__init__()
        self.sites: dict[str, int] = {}
        self.wheel = WheelStats()

    def record(self, loop: EventLoop, handle: TimerHandle) -> None:
        """Observe one fired event and attribute it to its callback site."""
        super().record(loop, handle)
        site = callsite_of(callback_of(handle))
        self.sites[site] = self.sites.get(site, 0) + 1
        self.wheel.record(loop, handle)

    def absorb_remote(self, key: str, report: dict) -> None:
        """Count a shard worker's events and fold its wheel snapshot."""
        super().absorb_remote(key, report)
        self.wheel.absorb_remote(key, report["wheel"])

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
        rows = [
            [site, count, f"{count / self.total * 100:.1f}%" if self.total else "-"]
            for site, count in self.top(n)
        ]
        table = render_table(
            ["callback site", "events", "share"],
            rows,
            title=f"event-loop profile ({self.total} events, top {min(n, len(self.sites))} sites)",
        )
        if self.wheel._loops:
            table = f"{table}\n{render_wheel_summary(self.wheel.to_dict())}"
        return table


class TraceSink:
    """A bounded trace of ``(when, site)`` pairs, oldest first."""

    def __init__(self, limit: int = 100_000) -> None:
        self.limit = limit
        self.events: list[tuple[float, str]] = []
        self.dropped = 0

    def record(self, loop: EventLoop, handle: TimerHandle) -> None:
        """Append one fired event to the trace, dropping past the limit."""
        if len(self.events) >= self.limit:
            self.dropped += 1
            return
        self.events.append((loop.now, callsite_of(callback_of(handle))))


@contextmanager
def capture_events(sink: EventCounter | TraceSink) -> Iterator[EventCounter | TraceSink]:
    """Install ``sink`` on every :class:`EventLoop` for the block's duration."""
    EventLoop.add_sink(sink)
    try:
        yield sink
    finally:
        EventLoop.remove_sink(sink)
