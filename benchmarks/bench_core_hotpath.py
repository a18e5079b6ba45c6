"""Core hot-path scenarios: EventLoop scheduling and the datagram plane.

Unlike the other benchmarks (which regenerate one of the paper's tables),
these scenarios measure the *simulator core itself* at swarm scale: raw
scheduling through :class:`~repro.net.clock.EventLoop`, and datagrams
through :meth:`~repro.net.network.Network.send_datagram` at 1k/10k/100k
synthetic viewers, unsharded and sharded over a worker ladder.

``benchmarks/bench_paper_scale.py`` runs each scenario in a fresh child
and gates a change against its parent::

    python benchmarks/bench_paper_scale.py swarm_1k swarm_1k_shard --runs 9 \\
        --tree parent=../parent-checkout --tree change=.

One child runs one scenario; ``PYTHONPATH`` picks the ``repro`` it
measures::

    PYTHONPATH=src python benchmarks/bench_core_hotpath.py swarm_1k

The child prints one JSON line: the scenario's wall time, build
included, its events, result digest and peak RSS. The traffic is fully
seeded, so two runs on the same tree do identical work and give one
digest — only the wall clock differs.
"""

from __future__ import annotations

import hashlib
import json
import sys

from bench_paper_scale import scenario_main
from repro.net.capture import TrafficCapture
from repro.net.clock import EventLoop
from repro.net.network import Network
from repro.net.shard import SwarmWorkload, run_workload
from repro.util.rand import DeterministicRandom

REGIONS = ("us", "eu", "asia", "sa")

_PAYLOAD = b"\x00" * 200  # one shared segment-chunk-sized datagram body


def digest_of(*parts) -> str:
    """SHA-256 over the JSON of ``parts``: a run's result digest."""
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def bench_event_loop(n_events: int = 100_000) -> str:
    """Pure scheduler throughput: schedule, cancel 10%, drain.

    Each timer records its index as it fires, so the digest is the
    dispatch order.
    """
    loop = EventLoop()
    rand = DeterministicRandom("bench-loop")
    delays = [rand.uniform(0.0, 60.0) for _ in range(n_events)]
    fired: list[int] = []
    handles = [loop.schedule(delay, fired.append, i) for i, delay in enumerate(delays)]
    for handle in handles[:: 10]:  # every 10th timer is cancelled
        handle.cancel()
    loop.run_all(max_events=n_events + 1)
    return digest_of(loop.events_fired, fired)


def bench_swarm(viewers: int, datagrams: int, capture: bool = False) -> str:
    """Datagram-plane throughput across a ``viewers``-host swarm.

    ``viewers`` public hosts bind one socket each, and each host sends
    in turn to a seeded pseudo-random neighbor; the loop drains in waves
    so the heap stays at realistic in-flight depths instead of holding
    every datagram at once. The digest covers every host's received
    bytes and the network's counters.
    """
    net = Network(rand=DeterministicRandom("bench-swarm"))
    sockets = [
        net.add_host(f"v{i}", region=REGIONS[i % len(REGIONS)]).bind_udp(4000)
        for i in range(viewers)
    ]
    if capture:
        net.add_capture(TrafficCapture("bench-tap"))
    rand = DeterministicRandom("bench-traffic")
    endpoints = [sock.endpoint for sock in sockets]
    senders = [sockets[k % viewers] for k in range(datagrams)]
    dests = [endpoints[rand.randint(0, viewers - 1)] for _ in range(datagrams)]
    wave = max(1, min(datagrams, 10 * viewers))
    sent = 0
    payload = _PAYLOAD
    while sent < datagrams:
        batch = min(wave, datagrams - sent)
        for sock, dst in zip(senders[sent:sent + batch], dests[sent:sent + batch]):
            sock.send(dst, payload)
        sent += batch
        net.loop.run_all(max_events=batch + 1)
    return digest_of(
        net.datagrams_sent, net.datagrams_delivered, net.datagrams_dropped,
        [sock.bytes_received for sock in sockets],
    )


def bench_swarm_sharded(viewers: int, datagrams: int, ladder: tuple[int, ...],
                        arrivals: str = "uniform") -> str:
    """One :class:`~repro.net.shard.SwarmWorkload` at every worker count in ``ladder``.

    Exits non-zero if two rungs disagree on the K-invariant digest, so
    every bench run doubles as a PDES correctness check.
    """
    workload = SwarmWorkload(viewers=viewers, datagrams=datagrams, arrivals=arrivals)
    digests = {workers: run_workload(workload, workers).digest for workers in ladder}
    if len(set(digests.values())) != 1:
        raise SystemExit(f"sharded digest diverged across workers: {digests}"
                         " — the window protocol is broken")
    return digests[ladder[0]]


#: Every scenario by name. The 100k swarms push one million datagrams
#: through the data plane; the capture variant prices the wire tap; the
#: flash-crowd swarm runs the workload engine's join burst at one worker.
SCENARIOS = {
    "events_loop": bench_event_loop,
    "swarm_1k": lambda: bench_swarm(1_000, 50_000),
    "swarm_10k": lambda: bench_swarm(10_000, 200_000),
    "swarm_100k": lambda: bench_swarm(100_000, 1_000_000),
    "swarm_10k_capture": lambda: bench_swarm(10_000, 200_000, capture=True),
    "swarm_10k_flash": lambda: bench_swarm_sharded(10_000, 200_000, (1,), "flash-crowd"),
    "swarm_1k_shard": lambda: bench_swarm_sharded(1_000, 50_000, (1, 2)),
    "swarm_100k_shard": lambda: bench_swarm_sharded(100_000, 1_000_000, (1, 4)),
}


if __name__ == "__main__":
    raise SystemExit(scenario_main(SCENARIOS, sys.argv[1:]))
