"""Generators for the chaos property suite.

No hypothesis here: every "random" structure (topology, fault plan,
traffic pattern) is drawn from a :class:`DeterministicRandom` keyed by
``CHAOS_SEED`` (an environment variable CI varies across jobs), so a
failing example is reproduced exactly by re-running with the same seed.
"""

from __future__ import annotations

import os

from repro.net.addresses import Endpoint
from repro.net.clock import DEFAULT_WHEEL_SLOTS, EventLoop, TimerHandle
from repro.net.faults import FaultPlan, RandomFaultPlanner
from repro.net.nat import NatType
from repro.net.network import Host, Network, UdpSocket
from repro.util.rand import DeterministicRandom

#: The base seed for this whole test session. CI runs the suite at
#: several values; locally it defaults to 0 (always the same examples).
BASE_SEED = int(os.environ.get("CHAOS_SEED", "0"))

#: Regions generated topologies spread over (partition fault domain).
REGIONS = ("US", "DE")

#: The port every generated host binds (one socket per host).
TRAFFIC_PORT = 500

_NAT_TYPES = (NatType.FULL_CONE, NatType.PORT_RESTRICTED_CONE, NatType.SYMMETRIC)

#: Datagrams in one :func:`schedule_burst`: more than a default wheel's
#: depth gate (``2 * DEFAULT_WHEEL_SLOTS`` live entries) can hold, so a
#: burst carries a shallow loop onto the wheel and, as its deliveries
#: fire, back off it.
BURST_DATAGRAMS = 2 * DEFAULT_WHEEL_SLOTS + 400

#: When :func:`pad_past_depth_gate` parks its idle timers: later than
#: any test runs, so the pads never fire unless a test drains them.
PAD_AT = 1e6


def chaos_rand(salt: str) -> DeterministicRandom:
    """The generator stream for one test, independent per ``salt``."""
    return DeterministicRandom(f"chaos:{BASE_SEED}:{salt}")


def chaos_seeds(n: int, salt: str) -> list[int]:
    """``n`` example seeds for a parametrized property test."""
    rand = chaos_rand(salt)
    return [rand.randint(0, 2**31 - 1) for _ in range(n)]


def random_topology(
    rand: DeterministicRandom,
    network: Network,
    min_hosts: int = 3,
    max_hosts: int = 8,
) -> list[Host]:
    """A mixed public/NATed host set, each with one bound socket."""
    hosts: list[Host] = []
    for i in range(rand.randint(min_hosts, max_hosts)):
        region = rand.choice(list(REGIONS))
        if rand.random() < 0.4:
            nat = network.add_nat(rand.choice(_NAT_TYPES))
            host = network.add_host(f"h{i}", nat=nat, region=region)
        else:
            host = network.add_host(f"h{i}", region=region)
        host.bind_udp(TRAFFIC_PORT, handler=None)
        hosts.append(host)
    return hosts


def random_plan(
    rand: DeterministicRandom,
    hosts: list[Host],
    horizon: float = 30.0,
    hostnames: tuple[str, ...] = (),
) -> FaultPlan:
    """A full chaos-mix plan over the generated topology."""
    planner = RandomFaultPlanner(rand.fork("plan"))
    return planner.chaos_mix(
        [h.name for h in hosts], horizon, regions=REGIONS, hostnames=hostnames
    )


def pump_random_traffic(
    rand: DeterministicRandom,
    network: Network,
    hosts: list[Host],
    count: int = 200,
    horizon: float = 25.0,
) -> None:
    """Schedule ``count`` datagram sends at random times between hosts.

    A small fraction aims at an unroutable address and another at a
    NATed host's unmapped external port, so the route-failure drop paths
    are exercised alongside fault-induced ones.
    """
    for _ in range(count):
        at = round(rand.uniform(0.0, horizon), 3)
        src = rand.choice(hosts)
        dst = rand.choice(hosts)
        if rand.random() < 0.05:
            target = Endpoint("198.51.100.7", 999)  # TEST-NET-2: unroutable
        else:
            target = Endpoint(dst.public_ip, TRAFFIC_PORT)
        payload = rand.bytes(rand.randint(8, 400))
        network.loop.schedule(at, network.send_datagram, src, TRAFFIC_PORT, target, payload)


def assert_conserved(network: Network) -> None:
    """The conservation invariant every chaos run must satisfy."""
    assert network.datagrams_sent == (
        network.datagrams_delivered + network.datagrams_dropped + network.datagrams_in_flight
    ), (
        f"sent={network.datagrams_sent} != delivered={network.datagrams_delivered}"
        f" + dropped={network.datagrams_dropped} + in_flight={network.datagrams_in_flight}"
    )
    assert sum(network.drops_by_reason.values()) == network.datagrams_dropped


def schedule_burst(network: Network, at: float, count: int = BURST_DATAGRAMS) -> None:
    """At ``at``, send ``count`` datagrams at once between two new hosts.

    The pair is public, regionless and outside every generated fault
    plan, so each datagram stays queued until it is delivered: the loop
    holds at least ``count`` live entries right after the burst and
    drains back to its usual depth within one latency band.
    """
    src = network.add_host("burst-src")
    dst = network.add_host("burst-dst")
    dst.bind_udp(TRAFFIC_PORT)
    target = Endpoint(dst.ip, TRAFFIC_PORT)

    def burst() -> None:
        for i in range(count):
            network.send_datagram(src, TRAFFIC_PORT, target, i.to_bytes(2, "big"))

    network.loop.schedule_at(at, burst)


def push_delivery(network: Network, sock: UdpSocket, when: float, payload: bytes = b"") -> None:
    """Queue one delivery to ``sock`` at exactly ``when``, as a send would.

    It goes through the loop's datagram enqueue, so it lands on the
    wheel or the heap by the same rules as a sent datagram, and it
    counts in ``datagrams_sent`` and ``datagrams_in_flight`` so
    conservation holds once it is delivered.
    """
    network.datagrams_sent += 1
    network.datagrams_in_flight += 1
    network.loop._push_datagram(when, sock.host, sock.port, payload, sock.endpoint)


def _idle() -> None:
    """The callback of a pad timer."""


def pad_past_depth_gate(loop: EventLoop) -> list[TimerHandle]:
    """Park idle timers at :data:`PAD_AT` until the loop is at its depth gate.

    The wheel only takes deliveries from a loop holding ``2 * slots``
    live entries, so a test of wheel mechanics pads its loop first: the
    next delivery it queues goes on the wheel. The pads themselves are
    timers, so they go to the heap. Cancel them before draining the
    loop, or let them fire as no-ops.
    """
    return [loop.schedule_at(PAD_AT, _idle)
            for _ in range(2 * loop._wheel_slots - loop.pending)]


def cancel_all(handles: list[TimerHandle]) -> None:
    """Cancel every handle (a test's pads, once it is done with them)."""
    for handle in handles:
        handle.cancel()
