"""tcpdump-style traffic capture.

The §III-C dynamic confirmer starts a capture scoped to its probes'
virtual interfaces (the paper dumps ``docker0``), then parses the
captured datagrams for STUN binding requests followed by DTLS
handshakes between candidate peer pairs. A capture keeps every payload
it records until it is dropped, so only code that reads one registers
it; analyzer peer containers hold none.

Memory: a capture is append-only by default, but ``max_packets``
enables a ring-buffer mode mirroring the ``inbox_limit`` design on
:class:`~repro.net.network.UdpSocket` — once over the cap, the oldest
half is evicted in one batched ``del`` (amortised O(1)) and counted in
:attr:`TrafficCapture.dropped_records`. :meth:`TrafficCapture.
total_bytes` is a streaming counter covering every recorded packet,
evicted ones included, so it stays O(1) at swarm scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.net.addresses import Endpoint


@dataclass(frozen=True, slots=True)
class CapturedPacket:
    """One on-the-wire datagram as seen by the capture point.

    Slotted: captures at swarm scale hold millions of these, and the
    network allocates one per datagram whenever any capture is live.
    """

    time: float
    src: Endpoint
    dst: Endpoint
    payload: bytes
    dropped: bool = False  # True if the network dropped it (loss, faults, or routing)

    @property
    def size(self) -> int:
        """Payload length in bytes (the UDP payload, no IP/UDP headers)."""
        return len(self.payload)


class TrafficCapture:
    """A packet log with an optional ring bound.

    A capture may be *scoped* to a set of host IPs (a container's
    interface) via ``interface_ips``; unscoped captures see everything
    (the network-wide tap used in controlled experiments). Pass
    ``max_packets`` to bound :attr:`packets` as a ring buffer; the
    default ``None`` keeps the historical append-only behaviour.
    """

    def __init__(
        self,
        name: str = "capture",
        interface_ips: Iterable[str] | None = None,
        max_packets: int | None = None,
    ) -> None:
        self.name = name
        self.interface_ips: frozenset[str] | None = (
            frozenset(interface_ips) if interface_ips is not None else None
        )
        self.packets: list[CapturedPacket] = []
        self.max_packets = max_packets
        #: Packets evicted by the ring bound (never silently lost).
        self.dropped_records = 0
        self._running = True
        self._total_bytes = 0
        # Networks this capture is registered with (via
        # Network.add_capture); stop() deregisters from each so the
        # data plane's no-tap fast branch re-engages.
        self._taps: list = []

    def wants(self, packet: CapturedPacket) -> bool:
        """Whether :meth:`record` keeps ``packet``.

        False once stopped; otherwise True for an unscoped capture, and
        for a scoped one when either wire endpoint's IP is on its
        interface.
        """
        if not self._running:
            return False
        if self.interface_ips is None:
            return True
        return packet.src.ip in self.interface_ips or packet.dst.ip in self.interface_ips

    def record(self, packet: CapturedPacket) -> None:
        """Record one packet, evicting the oldest half past the ring cap."""
        if self.wants(packet):
            self._total_bytes += len(packet.payload)
            packets = self.packets
            packets.append(packet)
            limit = self.max_packets
            if limit is not None and len(packets) > limit:
                evicted = len(packets) - limit // 2
                self.dropped_records += evicted
                del packets[:evicted]

    def stop(self) -> None:
        """Stop recording and detach from every registered network.

        Deregistering matters for throughput, not just semantics: a
        stopped-but-registered capture would keep the data plane
        constructing a :class:`CapturedPacket` per datagram only for
        :meth:`wants` to refuse it. Idempotent.
        """
        self._running = False
        for network in self._taps:
            if self in network.captures:
                network.captures.remove(self)
        self._taps.clear()

    # -- queries ---------------------------------------------------------

    def total_bytes(self) -> int:
        """Payload bytes recorded over the capture's lifetime (O(1)).

        A streaming counter, so ring-evicted packets still count —
        matching what a real tcpdump byte counter reports. With the
        default unbounded mode this equals ``sum(p.size for p in
        self.packets)`` exactly.
        """
        return self._total_bytes

    def __len__(self) -> int:
        return len(self.packets)
