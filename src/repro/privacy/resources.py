"""Container resource accounting (the Docker Engine stats analog).

The analyzer monitors each peer container's CPU, memory, and network I/O
once per second (§IV-A "Monitoring PDN activities"). Real numbers come
from a browser doing real crypto; here a :class:`ResourceModel` converts
the browser's activity counters into CPU/memory figures whose *structure*
matches the paper's findings: P2P transfer costs CPU because every byte
is DTLS-encrypted or decrypted, the PDN runtime and its segment cache
cost memory, and IM hashing (the §V-B defense) adds a small increment on
top — reproducing the Fig. 4 (+15% CPU, +10% memory) and Table VI
(1.11→1.14 CPU, 1.21→1.24 memory) ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.net.clock import EventLoop
from repro.util.metrics import TimeSeries


@dataclass(frozen=True)
class ActivitySnapshot:
    """Cumulative activity counters a monitored target exposes."""

    playing: bool = False
    pdn_active: bool = False
    integrity_active: bool = False
    bytes_cdn: int = 0
    bytes_p2p_down: int = 0
    bytes_p2p_up: int = 0
    hash_bytes: int = 0
    cache_bytes: int = 0
    net_in: int = 0
    net_out: int = 0


class Monitorable(Protocol):
    """Monitorable."""
    def resource_activity(self) -> ActivitySnapshot:  # pragma: no cover
        """Resource activity."""
        ...


@dataclass(frozen=True)
class ResourceModel:
    """Cost coefficients mapping activity rates to CPU % and memory MB."""

    cpu_idle: float = 2.0
    cpu_playback: float = 18.0
    cpu_pdn_runtime: float = 0.4  # signaling keepalive, swarm bookkeeping
    cpu_per_cdn_mb: float = 2.0  # plain HTTPS download, per MB/s
    cpu_per_p2p_mb: float = 18.0  # DTLS encrypt/decrypt, per MB/s
    cpu_per_hash_mb: float = 2.5  # IM hashing, per MB/s
    mem_base_mb: float = 180.0
    mem_playback_mb: float = 120.0
    mem_pdn_runtime_mb: float = 22.0
    mem_integrity_runtime_mb: float = 9.0
    mem_per_cache_mb: float = 0.8

    def cpu_percent(self, prev: ActivitySnapshot, cur: ActivitySnapshot, dt: float) -> float:
        """Cpu percent."""
        cdn_rate = (cur.bytes_cdn - prev.bytes_cdn) / dt / 1e6
        p2p_rate = (
            (cur.bytes_p2p_down - prev.bytes_p2p_down)
            + (cur.bytes_p2p_up - prev.bytes_p2p_up)
        ) / dt / 1e6
        hash_rate = (cur.hash_bytes - prev.hash_bytes) / dt / 1e6
        cpu = self.cpu_idle
        if cur.playing:
            cpu += self.cpu_playback
        if cur.pdn_active:
            cpu += self.cpu_pdn_runtime
        cpu += cdn_rate * self.cpu_per_cdn_mb
        cpu += p2p_rate * self.cpu_per_p2p_mb
        cpu += hash_rate * self.cpu_per_hash_mb
        return cpu

    def memory_mb(self, cur: ActivitySnapshot) -> float:
        """Memory mb."""
        mem = self.mem_base_mb
        if cur.playing:
            mem += self.mem_playback_mb
        if cur.pdn_active:
            mem += self.mem_pdn_runtime_mb + cur.cache_bytes / 1e6 * self.mem_per_cache_mb
        if cur.integrity_active:
            mem += self.mem_integrity_runtime_mb
        return mem


@dataclass
class ResourceSample:
    """ResourceSample."""
    at: float
    cpu_percent: float
    memory_mb: float
    net_in_delta: int
    net_out_delta: int


class ResourceMonitor:
    """Samples a target once per ``interval`` simulated seconds."""

    def __init__(
        self,
        loop: EventLoop,
        target: Monitorable,
        model: ResourceModel | None = None,
        interval: float = 1.0,
        name: str = "container",
    ) -> None:
        self.loop = loop
        self.target = target
        self.model = model or ResourceModel()
        self.interval = interval
        self.name = name
        self.samples: list[ResourceSample] = []
        self.cpu = TimeSeries(f"{name}.cpu")
        self.memory = TimeSeries(f"{name}.memory")
        self.net_in = TimeSeries(f"{name}.net_in")
        self.net_out = TimeSeries(f"{name}.net_out")
        self._prev: ActivitySnapshot | None = None
        self._timer = None
        self._running = False

    def start(self) -> None:
        """Start this component."""
        if self._running:
            return
        self._running = True
        self._prev = self.target.resource_activity()
        self._timer = self.loop.call_every(self.interval, self._sample)

    def stop(self) -> None:
        """Stop this component."""
        self._running = False
        if self._timer is not None:
            self._timer.cancel()

    def _sample(self) -> None:
        if not self._running:
            return
        cur = self.target.resource_activity()
        prev = self._prev or cur
        cpu = self.model.cpu_percent(prev, cur, self.interval)
        mem = self.model.memory_mb(cur)
        sample = ResourceSample(
            at=self.loop.now,
            cpu_percent=cpu,
            memory_mb=mem,
            net_in_delta=cur.net_in - prev.net_in,
            net_out_delta=cur.net_out - prev.net_out,
        )
        self.samples.append(sample)
        self.cpu.record(sample.at, cpu)
        self.memory.record(sample.at, mem)
        self.net_in.record(sample.at, sample.net_in_delta)
        self.net_out.record(sample.at, sample.net_out_delta)
        self._prev = cur

    # -- summaries -----------------------------------------------------------

    def total_net_in(self) -> float:
        """Total net in."""
        return self.net_in.total()

    def total_net_out(self) -> float:
        """Total net out."""
        return self.net_out.total()
