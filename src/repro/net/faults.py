"""Deterministic fault injection: declarative chaos for the simulator.

The paper's interesting security behaviour — segment-pollution recovery,
CDN fallback when P2P delivery dies, IP-leak exposure under peer churn —
shows up when the network *misbehaves*, not in steady state. This module
replaces the single global ``loss_rate`` knob with a declarative
:class:`FaultPlan`: per-link :class:`LinkConditions` (loss, extra
latency, bandwidth throttle), timed link flaps, host crash/rejoin
churn, NAT rebinds with a fresh public mapping, region partitions, and
HTTP service outages. A :class:`FaultInjector` schedules every event on
the existing :class:`~repro.net.clock.EventLoop` and draws only from the
seeded :class:`~repro.util.rand.DeterministicRandom`, so every chaos run
replays byte-identically from its seed.

Plans serialise to plain JSON (:meth:`FaultPlan.to_dict`) and hash to a
stable :meth:`FaultPlan.digest` that run manifests record, so a chaos
result can always be traced back to the exact chaos that produced it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.streaming.http import HttpRequest, HttpResponse
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.net.clock import TimerHandle
    from repro.net.network import Host, Network


# ---------------------------------------------------------------------------
# link conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkConditions:
    """Impairments applied to one link (or one host's links).

    ``loss`` is an *extra* drop probability on top of the network's
    global rate; ``extra_latency`` adds one-way delay;
    ``bandwidth_bytes_per_sec`` serialises datagrams through a finite
    pipe (concurrent sends queue); ``blocked`` hard-drops everything —
    the flap/partition primitive.
    """

    loss: float = 0.0
    extra_latency: float = 0.0
    bandwidth_bytes_per_sec: float | None = None
    blocked: bool = False

    def stacked(self, other: "LinkConditions") -> "LinkConditions":
        """Combine two overlapping impairments into their joint effect.

        Losses compose as independent drop trials, latencies add, the
        narrower bandwidth wins, and a block from either side blocks.
        """
        if other.bandwidth_bytes_per_sec is None:
            bandwidth = self.bandwidth_bytes_per_sec
        elif self.bandwidth_bytes_per_sec is None:
            bandwidth = other.bandwidth_bytes_per_sec
        else:
            bandwidth = min(self.bandwidth_bytes_per_sec, other.bandwidth_bytes_per_sec)
        if self.loss == 0.0:
            loss = other.loss  # keep zero-loss a bit-exact identity
        elif other.loss == 0.0:
            loss = self.loss
        else:
            loss = 1.0 - (1.0 - self.loss) * (1.0 - other.loss)
        return LinkConditions(
            loss=loss,
            extra_latency=self.extra_latency + other.extra_latency,
            bandwidth_bytes_per_sec=bandwidth,
            blocked=self.blocked or other.blocked,
        )

    def to_dict(self) -> dict:
        """Serialise to plain JSON types."""
        return {
            "loss": self.loss,
            "extra_latency": self.extra_latency,
            "bandwidth_bytes_per_sec": self.bandwidth_bytes_per_sec,
            "blocked": self.blocked,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinkConditions":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            loss=float(data.get("loss", 0.0)),
            extra_latency=float(data.get("extra_latency", 0.0)),
            bandwidth_bytes_per_sec=data.get("bandwidth_bytes_per_sec"),
            blocked=bool(data.get("blocked", False)),
        )


#: No impairment at all — the identity for :meth:`LinkConditions.stacked`.
CLEAR = LinkConditions()


# ---------------------------------------------------------------------------
# fault events
# ---------------------------------------------------------------------------

_EVENT_KINDS: dict[str, type] = {}


def _event(kind: str) -> Callable[[type], type]:
    """Class decorator registering a fault event under its wire name."""

    def register(cls: type) -> type:
        cls.kind = kind
        _EVENT_KINDS[kind] = cls  # repro: allow[SHARD001] decorator runs at import; read-only at runtime
        return cls

    return register


@dataclass(frozen=True)
class FaultEvent:
    """Base of every plan entry: something happens ``at`` seconds in."""

    at: float

    kind = "abstract"

    def to_dict(self) -> dict:
        """Serialise: the registered kind plus this event's own fields."""
        out: dict = {"kind": self.kind}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, LinkConditions):
                value = value.to_dict()
            out[spec.name] = value
        return out

    @staticmethod
    def from_dict(data: dict) -> "FaultEvent":
        """Rebuild any registered event kind from its dict form."""
        data = dict(data)
        kind = data.pop("kind", None)
        cls = _EVENT_KINDS.get(kind)
        if cls is None:
            known = ", ".join(sorted(_EVENT_KINDS))
            raise ConfigurationError(f"unknown fault kind {kind!r} (known: {known})")
        if "conditions" in data and isinstance(data["conditions"], dict):
            data["conditions"] = LinkConditions.from_dict(data["conditions"])
        return cls(**data)


@_event("link_flap")
@dataclass(frozen=True)
class LinkFlap(FaultEvent):
    """Both directions between hosts ``a`` and ``b`` go dark, then heal."""

    a: str = ""
    b: str = ""
    duration: float = 1.0


@_event("degrade")
@dataclass(frozen=True)
class Degrade(FaultEvent):
    """Impair the ``a``–``b`` link (or every link of ``a`` if ``b`` is None)."""

    a: str = ""
    b: str | None = None
    duration: float = 1.0
    conditions: LinkConditions = field(default_factory=LinkConditions)


@_event("host_crash")
@dataclass(frozen=True)
class HostCrash(FaultEvent):
    """Host leaves the network; with ``down_for`` set it rejoins later."""

    host: str = ""
    down_for: float | None = None


@_event("nat_rebind")
@dataclass(frozen=True)
class NatRebind(FaultEvent):
    """The host's NAT gets a fresh external address; all mappings void."""

    host: str = ""


@_event("partition")
@dataclass(frozen=True)
class Partition(FaultEvent):
    """All traffic between two regions is dropped until the heal."""

    region_a: str = ""
    region_b: str = ""
    duration: float = 1.0


@_event("service_outage")
@dataclass(frozen=True)
class ServiceOutage(FaultEvent):
    """An HTTP service (CDN edge, tracker) answers 503 for a window."""

    hostname: str = ""
    duration: float = 1.0


# ---------------------------------------------------------------------------
# fault plans
# ---------------------------------------------------------------------------


@dataclass
class FaultPlan:
    """A named, ordered, serialisable schedule of fault events."""

    events: tuple[FaultEvent, ...] = ()
    name: str = "custom"

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=lambda e: (e.at, e.kind)))
        for event in events:
            if event.at < 0:
                raise ConfigurationError(f"fault event scheduled in the past: {event}")
        self.events = events

    def to_dict(self) -> dict:
        """Serialise to plain JSON types (the manifest/digest form)."""
        return {"name": self.name, "events": [e.to_dict() for e in self.events]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            events=tuple(FaultEvent.from_dict(e) for e in data.get("events", [])),
            name=str(data.get("name", "custom")),
        )

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan previously written with :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — recorded in run manifests."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self.events)


# ---------------------------------------------------------------------------
# churn notifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FaultNotice:
    """One applied (or healed) fault, broadcast to registered listeners.

    ``public_ips`` carries the affected host's public addresses so
    listeners (the PDN SDK) can match churned peers against the remote
    endpoints of their WebRTC links without reaching into the network.
    """

    at: float
    kind: str  # host_down | host_up | nat_rebind | link_down | link_up | ...
    host: str = ""
    public_ips: tuple[str, ...] = ()
    detail: str = ""


# ---------------------------------------------------------------------------
# the injector
# ---------------------------------------------------------------------------


def _pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical symmetric key for a host-name pair."""
    return (a, b) if a <= b else (b, a)


class FaultInjector:
    """Arms fault plans on a network and answers its per-datagram queries.

    Install one per :class:`~repro.net.network.Network` (the constructor
    wires ``network.faults``). :meth:`arm` schedules every plan event on
    the network's event loop, relative to the current simulated time;
    the network then consults :meth:`host_is_down` and
    :meth:`conditions_for` on each datagram. All randomness (the extra
    per-link loss trials) comes from a fork of the network's seeded
    stream, so chaos runs replay exactly.
    """

    def __init__(
        self,
        network: "Network",
        rand: DeterministicRandom | None = None,
        urlspace=None,
    ) -> None:
        if network.faults is not None:
            raise ConfigurationError("network already has a fault injector")
        self.network = network
        self.loop = network.loop
        self.rand = (rand or network.rand).fork("faults")
        self.urlspace = urlspace
        self.plans: list[FaultPlan] = []
        self.log: list[FaultNotice] = []
        self.events_applied = 0
        self._listeners: list[Callable[[FaultNotice], None]] = []
        # active impairments, each a stack so overlapping windows nest
        self._link_conditions: dict[tuple[str, str], list[LinkConditions]] = {}
        self._host_conditions: dict[str, list[LinkConditions]] = {}
        self._down_hosts: set[str] = set()
        self._down_ips: set[str] = set()
        self._partitions: dict[tuple[str, str], int] = {}
        self._outages: dict[str, int] = {}
        self._link_busy: dict[tuple[str, str], float] = {}
        #: Every plan event, heal and rejoin this injector queued, as a
        #: ``(when, order, handle)`` heap; :meth:`next_change` drops the
        #: entries whose handles have fired.
        self._timers: list[tuple[float, int, TimerHandle]] = []
        self._timer_order = itertools.count()
        network.faults = self
        if urlspace is not None:
            urlspace.add_interceptor(self._intercept_http)

    # -- plan arming -----------------------------------------------------

    def arm(self, plan: FaultPlan) -> "FaultInjector":
        """Schedule every event of ``plan`` relative to the loop's now."""
        self.plans.append(plan)
        for event in plan.events:
            self._schedule(event.at, self._apply, event)
        return self

    def _schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Queue one plan event or heal timer and keep its handle."""
        handle = self.loop.schedule(delay, callback, *args)
        heappush(self._timers, (handle.when, next(self._timer_order), handle))

    def next_change(self) -> float:
        """The instant of the earliest queued plan event, heal or rejoin.

        ``inf`` once none is queued. Only these timers change what
        :meth:`host_is_down` and :meth:`conditions_for` answer, so a
        caller may treat those answers as fixed until this instant —
        which is how the sharded swarm replays its sends in bulk.
        """
        timers = self._timers
        while timers and not timers[0][2].queued:
            heappop(timers)
        return timers[0][0] if timers else math.inf

    def add_listener(self, listener: Callable[[FaultNotice], None]) -> None:
        """Register a churn-notification callback (SDKs, players, tests)."""
        self._listeners.append(listener)

    def _emit(self, kind: str, host: str = "", public_ips: tuple[str, ...] = (),
              detail: str = "") -> None:
        notice = FaultNotice(self.loop.now, kind, host, public_ips, detail)
        self.log.append(notice)
        for listener in list(self._listeners):
            listener(notice)

    # -- event application -----------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        self.events_applied += 1
        handler = getattr(self, f"_apply_{event.kind}")
        handler(event)

    def _apply_link_flap(self, event: LinkFlap) -> None:
        key = _pair_key(event.a, event.b)
        blocked = LinkConditions(blocked=True)
        self._link_conditions.setdefault(key, []).append(blocked)
        self._emit("link_down", detail=f"{event.a}<->{event.b}")
        self._schedule(event.duration, self._heal_link, key, blocked,
                       f"{event.a}<->{event.b}")

    def _heal_link(self, key: tuple[str, str], conditions: LinkConditions,
                   detail: str) -> None:
        stack = self._link_conditions.get(key, [])
        if conditions in stack:
            stack.remove(conditions)
        if not stack:
            self._link_conditions.pop(key, None)
        self._emit("link_up", detail=detail)

    def _apply_degrade(self, event: Degrade) -> None:
        if event.b is None:
            self._host_conditions.setdefault(event.a, []).append(event.conditions)
            self._emit("degrade", host=event.a, detail="all links")
            self._schedule(event.duration, self._heal_degrade_host,
                           event.a, event.conditions)
        else:
            key = _pair_key(event.a, event.b)
            self._link_conditions.setdefault(key, []).append(event.conditions)
            self._emit("degrade", detail=f"{event.a}<->{event.b}")
            self._schedule(event.duration, self._heal_link, key,
                           event.conditions, f"{event.a}<->{event.b}")

    def _heal_degrade_host(self, name: str, conditions: LinkConditions) -> None:
        stack = self._host_conditions.get(name, [])
        if conditions in stack:
            stack.remove(conditions)
        if not stack:
            self._host_conditions.pop(name, None)
        self._emit("degrade_healed", host=name)

    def _apply_host_crash(self, event: HostCrash) -> None:
        host = self.network.host_by_name(event.host)
        if host is None:
            self._emit("skipped", host=event.host, detail="unknown host")
            return
        self._down_hosts.add(host.name)
        self._down_ips.add(host.public_ip)
        # A crashed box loses its queued uplink backlog: without this, a
        # rejoining host would inherit phantom serialisation delay from
        # datagrams queued before it died.
        host._uplink_busy_until = 0.0
        self._emit("host_down", host=host.name, public_ips=(host.public_ip,))
        if event.down_for is not None:
            self._schedule(event.down_for, self._rejoin_host, host.name)

    def _rejoin_host(self, name: str) -> None:
        host = self.network.host_by_name(name)
        self._down_hosts.discard(name)
        if host is not None:
            self._down_ips.discard(host.public_ip)
            self._emit("host_up", host=name, public_ips=(host.public_ip,))
        else:
            self._emit("host_up", host=name)

    def _apply_nat_rebind(self, event: NatRebind) -> None:
        host = self.network.host_by_name(event.host)
        if host is None or host.nat is None:
            self._emit("skipped", host=event.host, detail="no NAT to rebind")
            return
        old_ip, new_ip = self.network.rebind_nat(host.nat)
        if old_ip in self._down_ips:
            self._down_ips.discard(old_ip)
            self._down_ips.add(new_ip)
        self._emit("nat_rebind", host=host.name, public_ips=(old_ip, new_ip),
                   detail=f"{old_ip} -> {new_ip}")

    def _apply_partition(self, event: Partition) -> None:
        key = _pair_key(event.region_a, event.region_b)
        self._partitions[key] = self._partitions.get(key, 0) + 1
        self._emit("partition", detail=f"{key[0]}|{key[1]}")
        self._schedule(event.duration, self._heal_partition, key)

    def _heal_partition(self, key: tuple[str, str]) -> None:
        count = self._partitions.get(key, 0) - 1
        if count <= 0:
            self._partitions.pop(key, None)
        else:
            self._partitions[key] = count
        self._emit("heal", detail=f"{key[0]}|{key[1]}")

    def _apply_service_outage(self, event: ServiceOutage) -> None:
        hostname = event.hostname.lower()
        self._outages[hostname] = self._outages.get(hostname, 0) + 1
        self._emit("outage", detail=hostname)
        self._schedule(event.duration, self._heal_outage, hostname)

    def _heal_outage(self, hostname: str) -> None:
        count = self._outages.get(hostname, 0) - 1
        if count <= 0:
            self._outages.pop(hostname, None)
        else:
            self._outages[hostname] = count
        self._emit("outage_healed", detail=hostname)

    # -- network-facing queries ------------------------------------------

    def host_is_down(self, host: "Host") -> bool:
        """True while a crash window covers ``host``."""
        return bool(self._down_hosts) and host.name in self._down_hosts

    def conditions_for(self, src: "Host", dst: "Host | None") -> LinkConditions | None:
        """The stacked impairment for one datagram, or None when clear."""
        if not (self._link_conditions or self._host_conditions or self._partitions):
            return None
        combined: LinkConditions | None = None
        for stack in (
            self._host_conditions.get(src.name),
            self._host_conditions.get(dst.name) if dst is not None else None,
            self._link_conditions.get(_pair_key(src.name, dst.name))
            if dst is not None
            else None,
        ):
            if stack:
                for conditions in stack:
                    combined = conditions if combined is None else combined.stacked(conditions)
        if (
            self._partitions
            and dst is not None
            and src.region is not None
            and dst.region is not None
            and src.region != dst.region
            and _pair_key(src.region, dst.region) in self._partitions
        ):
            blocked = LinkConditions(blocked=True)
            combined = blocked if combined is None else combined.stacked(blocked)
        return combined

    def link_queue_delay(self, src: "Host", dst: "Host", size: int,
                         conditions: LinkConditions, now: float) -> float:
        """Serialisation + queueing through a throttled link.

        ``now`` is the send's instant: the loop's clock for a live send,
        a program row's time for a replayed sharded send.
        """
        rate = conditions.bandwidth_bytes_per_sec
        if rate is None or rate <= 0:
            return 0.0
        key = _pair_key(src.name, dst.name)
        start = max(now, self._link_busy.get(key, 0.0))
        self._link_busy[key] = start + size / rate
        return self._link_busy[key] - now

    # -- HTTP interception -----------------------------------------------

    def _intercept_http(self, request: HttpRequest) -> HttpResponse | None:
        """503 requests into an outage window or from a crashed client."""
        if self._outages and self._outages.get(request.host.lower()):
            return HttpResponse(503, b"service unavailable (fault injection)")
        if self._down_ips and request.client_ip in self._down_ips:
            return HttpResponse(503, b"client offline (fault injection)")
        return None


def bind_viewer(injector: FaultInjector, host: "Host", sdk=None, player=None) -> None:
    """Wire one viewer's SDK and player into the churn notifications.

    The SDK evicts churned neighbors and re-validates paths after its
    own NAT rebinds; the player is nudged to re-drive fetching when the
    viewer's host rejoins or an HTTP outage heals (its retry timers are
    already pending — the nudge just avoids waiting a full backoff).
    """
    if sdk is not None:
        sdk.attach_faults(injector)
    if player is not None:

        def on_notice(notice: FaultNotice, _player=player, _name=host.name) -> None:
            """Re-drive the player's fetch pipeline after a heal."""
            if notice.kind == "host_up" and notice.host == _name:
                _player.nudge()
            elif notice.kind == "outage_healed":
                _player.nudge()

        injector.add_listener(on_notice)


# ---------------------------------------------------------------------------
# plan generation: seeded random chaos and named presets
# ---------------------------------------------------------------------------


class RandomFaultPlanner:
    """Seeded generator of random-but-reproducible fault plans.

    Both the ``repro chaos`` presets and the property-based test
    generators build on this, so "a random plan at seed S" means the
    same thing everywhere.
    """

    def __init__(self, rand: DeterministicRandom) -> None:
        self.rand = rand

    def _times(self, count: int, horizon: float) -> list[float]:
        return sorted(round(self.rand.uniform(0.0, horizon * 0.8), 3) for _ in range(count))

    def churn(self, hosts: Sequence[str], horizon: float, intensity: float = 1.0) -> FaultPlan:
        """Crash/rejoin cycles plus NAT rebinds across the host set."""
        events: list[FaultEvent] = []
        if hosts:
            count = max(1, int(len(hosts) * intensity * 0.5))
            for at in self._times(count, horizon):
                host = self.rand.choice(list(hosts))
                if self.rand.random() < 0.35:
                    events.append(NatRebind(at=at, host=host))
                else:
                    down_for = round(self.rand.uniform(horizon * 0.05, horizon * 0.3), 3)
                    events.append(HostCrash(at=at, host=host, down_for=down_for))
        return FaultPlan(tuple(events), name="churn")

    def flaky(self, hosts: Sequence[str], horizon: float, intensity: float = 1.0) -> FaultPlan:
        """Lossy, slow, throttled links plus occasional hard flaps."""
        events: list[FaultEvent] = []
        if len(hosts) >= 2:
            count = max(1, int(len(hosts) * intensity))
            for at in self._times(count, horizon):
                a, b = self.rand.sample(list(hosts), 2)
                duration = round(self.rand.uniform(horizon * 0.1, horizon * 0.4), 3)
                if self.rand.random() < 0.25:
                    events.append(LinkFlap(at=at, a=a, b=b, duration=duration))
                else:
                    conditions = LinkConditions(
                        loss=round(self.rand.uniform(0.05, 0.6), 3),
                        extra_latency=round(self.rand.uniform(0.0, 0.25), 3),
                        bandwidth_bytes_per_sec=(
                            float(self.rand.randint(20_000, 200_000))
                            if self.rand.random() < 0.5
                            else None
                        ),
                    )
                    events.append(Degrade(at=at, a=a, b=b, duration=duration,
                                          conditions=conditions))
        return FaultPlan(tuple(events), name="flaky")

    def partitions(self, regions: Sequence[str], horizon: float) -> FaultPlan:
        """Split/heal cycles between region pairs."""
        events: list[FaultEvent] = []
        if len(regions) >= 2:
            for at in self._times(max(1, len(regions) - 1), horizon):
                region_a, region_b = self.rand.sample(list(regions), 2)
                duration = round(self.rand.uniform(horizon * 0.1, horizon * 0.3), 3)
                events.append(Partition(at=at, region_a=region_a, region_b=region_b,
                                        duration=duration))
        return FaultPlan(tuple(events), name="partition")

    def blackout(self, hostnames: Sequence[str], horizon: float) -> FaultPlan:
        """Short HTTP outages against infrastructure hostnames."""
        events: list[FaultEvent] = []
        for hostname in hostnames:
            at = round(self.rand.uniform(0.0, horizon * 0.5), 3)
            duration = round(self.rand.uniform(horizon * 0.05, horizon * 0.2), 3)
            events.append(ServiceOutage(at=at, hostname=hostname, duration=duration))
        return FaultPlan(tuple(events), name="blackout")

    def chaos_mix(
        self,
        hosts: Sequence[str],
        horizon: float,
        regions: Sequence[str] = (),
        hostnames: Sequence[str] = (),
        intensity: float = 1.0,
    ) -> FaultPlan:
        """Everything at once: churn + flaky links + partitions + outages."""
        events: list[FaultEvent] = []
        events.extend(self.churn(hosts, horizon, intensity).events)
        events.extend(self.flaky(hosts, horizon, intensity).events)
        events.extend(self.partitions(list(regions), horizon).events)
        events.extend(self.blackout(list(hostnames), horizon).events)
        return FaultPlan(tuple(events), name="chaos-mix")


#: Named presets resolvable by ``repro chaos --faults NAME``. Each maps
#: the experiment's topology (hosts/regions/hostnames) through a seeded
#: :class:`RandomFaultPlanner`.
PLAN_PRESETS: dict[str, Callable[..., FaultPlan]] = {
    "calm": lambda planner, hosts, horizon, regions, hostnames: FaultPlan((), name="calm"),
    "churn": lambda planner, hosts, horizon, regions, hostnames: planner.churn(hosts, horizon),
    "flaky": lambda planner, hosts, horizon, regions, hostnames: planner.flaky(hosts, horizon),
    "partition": lambda planner, hosts, horizon, regions, hostnames: planner.partitions(
        regions, horizon
    ),
    "blackout": lambda planner, hosts, horizon, regions, hostnames: planner.blackout(
        hostnames, horizon
    ),
    "chaos-mix": lambda planner, hosts, horizon, regions, hostnames: planner.chaos_mix(
        hosts, horizon, regions, hostnames
    ),
}


def load_plan(
    spec: str,
    *,
    planner: RandomFaultPlanner | None = None,
    hosts: Iterable[str] = (),
    horizon: float = 60.0,
    regions: Iterable[str] = (),
    hostnames: Iterable[str] = (),
) -> FaultPlan:
    """Resolve ``--faults SPEC``: a preset name or a JSON plan file.

    A spec naming an existing file (or ending in ``.json``) is parsed
    as an explicit :class:`FaultPlan`; otherwise it must be one of
    :data:`PLAN_PRESETS`, instantiated against the given topology with
    the given seeded planner.
    """
    path = Path(spec)
    if spec.endswith(".json") or path.exists():
        try:
            plan = FaultPlan.from_json(path.read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read fault plan {spec!r}: {exc}") from exc
        return replace(plan, name=plan.name if plan.name != "custom" else path.stem)
    preset = PLAN_PRESETS.get(spec)
    if preset is None:
        known = ", ".join(sorted(PLAN_PRESETS))
        raise ConfigurationError(f"unknown fault plan {spec!r} (presets: {known})")
    if planner is None:
        raise ConfigurationError(f"preset {spec!r} needs a seeded planner")
    return preset(planner, list(hosts), horizon, list(regions), list(hostnames))
