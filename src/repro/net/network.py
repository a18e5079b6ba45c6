"""The datagram network: hosts, sockets, routing, latency, loss.

The network routes by *public* address: each routable IP belongs either
to a public :class:`Host` or to a :class:`~repro.net.nat.NatBox` whose
attached hosts carry private addresses. Sending through the network
performs NAT translation, captures the wire-level packet for every
interested :class:`~repro.net.capture.TrafficCapture`, applies loss,
and schedules delivery on the event loop after a latency drawn from the
region-aware latency model.

This is the simulator's data plane and must stay fast and
memory-bounded at million-datagram scale: wire capture objects are only
built when a capture is registered, per-packet classes use
``__slots__``, and socket inboxes are ring buffers (see
``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import itertools
from array import array
from heapq import heappop
from typing import Callable

from repro.net.addresses import Endpoint, int_to_ip, ip_to_int
from repro.net.capture import CapturedPacket, TrafficCapture
from repro.net.clock import EventLoop
from repro.net.nat import NatBox, NatType
from repro.util.errors import AddressInUseError, ConfigurationError, NetworkError
from repro.util.rand import DeterministicRandom

DatagramHandler = Callable[[bytes, Endpoint, "UdpSocket"], None]

#: Default :attr:`UdpSocket.inbox` ring-buffer capacity. Handlers are the
#: production delivery path; the inbox exists so tests and bare swarms
#: can poll a socket that has no handler, and a bounded ring keeps long
#: swarm runs from accumulating every datagram ever delivered. A socket
#: with a handler queues nothing, and setting a handler later leaves
#: the datagrams already queued in the inbox. Pass ``inbox_limit=None``
#: to :meth:`Host.bind_udp` for an unbounded inbox.
DEFAULT_INBOX_LIMIT = 4096


class UdpSocket:
    """A bound UDP port on a host.

    Incoming datagrams are passed to ``handler(payload, src, socket)``
    when one is set, and appended to :attr:`inbox` only when none is,
    so tests can poll without wiring callbacks and a handled payload
    lives no longer than its handler keeps it. Setting a handler later
    leaves the datagrams already queued in the inbox. Every delivery
    counts in :attr:`bytes_received` either way. The inbox is bounded
    at ``inbox_limit`` entries — once full, the oldest half is evicted
    in one batch (amortised O(1), and a plain list stays ~10x smaller
    per idle socket than a deque ring). ``None`` disables the cap, and
    ``0`` counts the bytes and queues nothing.
    """

    __slots__ = ("host", "port", "handler", "inbox", "closed",
                 "bytes_sent", "bytes_received", "inbox_limit", "_net_send",
                 "_wire_src")

    def __init__(
        self,
        host: "Host",
        port: int,
        handler: DatagramHandler | None = None,
        inbox_limit: int | None = DEFAULT_INBOX_LIMIT,
    ) -> None:
        self.host = host
        self.port = port
        self.handler = handler
        self.inbox: list[tuple[bytes, Endpoint]] = []
        self.inbox_limit = inbox_limit
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        # Pre-bound data-plane entry point: send() is per-datagram hot.
        self._net_send = host.network.send_datagram
        # Public hosts have one fixed wire-source endpoint per port, so
        # the socket resolves it once at bind time and send() skips the
        # per-datagram lookup. NATed sockets pass None: their wire
        # source depends on the destination (NAT outbound mapping).
        if host.nat is None:
            wire = host._wire_endpoints.get(port)
            if wire is None:
                wire = Endpoint(host.ip, port)
                host._wire_endpoints[port] = wire
            self._wire_src: Endpoint | None = wire
        else:
            self._wire_src = None

    @property
    def endpoint(self) -> Endpoint:
        """The socket's local (possibly private) address."""
        return Endpoint(self.host.ip, self.port)

    def send(self, dst: Endpoint, payload: bytes) -> None:
        """Send ``payload`` to ``dst`` from this socket's port.

        Counts the bytes in :attr:`bytes_sent` and hands the datagram to
        :meth:`Network.send_datagram`, which translates through the
        host's NAT, records captures, and drops or schedules delivery.
        Raises :class:`~repro.util.errors.NetworkError` once closed.
        """
        if self.closed:
            raise NetworkError(f"socket {self.endpoint} is closed")
        self.bytes_sent += len(payload)
        self._net_send(self.host, self.port, dst, payload, self._wire_src)

    def deliver(self, payload: bytes, src: Endpoint) -> None:
        """Hand a datagram to the handler, or queue it when there is none."""
        if self.closed:
            return
        handler = self.push(payload, src)
        if handler is not None:
            handler(payload, src, self)

    def push(self, payload: bytes, src: Endpoint) -> DatagramHandler | None:
        """Count the bytes; queue them in the inbox ring only without a handler.

        Returns the handler the caller must call, or ``None`` once the
        datagram is queued (or, under a zero limit, only counted). This
        is the one place that chooses between handler and inbox:
        :meth:`deliver`, ``Network._deliver`` and the batched drain all
        call it, so neither that rule nor the ring semantics — evict
        the oldest half in one batch ``del`` once past the cap — can
        drift between call sites. Calling the handler
        stays with the callers: the batched drain must flush its
        accounting before re-entrant handler code runs.
        """
        self.bytes_received += len(payload)
        handler = self.handler
        if handler is None:
            limit = self.inbox_limit
            if limit != 0:
                inbox = self.inbox
                inbox.append((payload, src))
                if limit is not None and len(inbox) > limit:
                    del inbox[: len(inbox) - limit // 2]
        return handler

    def close(self) -> None:
        """Close and release resources."""
        self.closed = True
        self.host.release_port(self.port)


class Host:
    """A machine on the network, optionally behind a NAT."""

    __slots__ = ("network", "name", "ip", "nat", "region",
                 "uplink_bytes_per_sec", "_uplink_busy_until",
                 "sockets", "_ephemeral", "_wire_endpoints")

    def __init__(
        self,
        network: "Network",
        name: str,
        ip: str,
        nat: NatBox | None = None,
        region: str | None = None,
        uplink_bytes_per_sec: float | None = None,
    ) -> None:
        self.network = network
        self.name = name
        self.ip = ip
        self.nat = nat
        self.region = region
        # Residential uplinks are finite; None = unconstrained (the
        # default, matching the original latency-only model).
        self.uplink_bytes_per_sec = uplink_bytes_per_sec
        self._uplink_busy_until = 0.0
        self.sockets: dict[int, UdpSocket] = {}
        self._ephemeral = itertools.count(10000)
        # port -> wire-source Endpoint, for non-NATed sends. A host's own
        # ip never changes (NAT rebinds move the *external* address), so
        # entries stay valid across rebinds and never need invalidation.
        self._wire_endpoints: dict[int, Endpoint] = {}

    @property
    def public_ip(self) -> str:
        """The address the rest of the Internet sees for this host."""
        return self.nat.external_ip if self.nat else self.ip

    def bind_udp(
        self,
        port: int = 0,
        handler: DatagramHandler | None = None,
        inbox_limit: int | None = DEFAULT_INBOX_LIMIT,
    ) -> UdpSocket:
        """Bind a UDP socket; port 0 picks a free ephemeral port."""
        if port == 0:
            port = next(self._ephemeral)
            while port in self.sockets:
                port = next(self._ephemeral)
        if port in self.sockets:
            raise AddressInUseError(f"{self.name}: port {port} already bound")
        sock = UdpSocket(self, port, handler, inbox_limit=inbox_limit)
        self.sockets[port] = sock
        return sock

    def release_port(self, port: int) -> None:
        """Unbind ``port`` so it can be bound again; unbound ports are ignored.

        :meth:`UdpSocket.close` calls this. Datagrams still in flight to
        the port are then dropped at delivery as ``no_socket``.
        """
        self.sockets.pop(port, None)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Host({self.name}, {self.ip}, nat={self.nat is not None})"


class Network:
    """The simulated Internet."""

    def __init__(
        self,
        loop: EventLoop | None = None,
        rand: DeterministicRandom | None = None,
        base_latency: float = 0.02,
        cross_region_latency: float = 0.12,
        jitter: float = 0.004,
        loss_rate: float = 0.0,
    ) -> None:
        self.loop = loop or EventLoop()
        self.rand = (rand or DeterministicRandom(0)).fork("network")
        # Direct assignment (not the property setters): the setters
        # retune the loop's timing wheel, which wants every latency knob
        # in place first — one _tune_wheel() call below covers them all.
        self._base_latency = base_latency
        self._cross_region_latency = cross_region_latency
        self.jitter = jitter
        self.loss_rate = loss_rate
        self.hosts: dict[str, Host] = {}  # keyed by the host's own ip
        self._routable: dict[str, Host | NatBox] = {}  # public address space
        self.captures: list[TrafficCapture] = []
        self._next_public_ip = ip_to_int("5.0.0.1")
        self._next_nat_subnet = itertools.count(1)
        self.datagrams_sent = 0
        self.datagrams_dropped = 0
        self.datagrams_delivered = 0
        self.datagrams_in_flight = 0
        #: Datagrams dropped *after* capture time. ``send_datagram``
        #: records each :class:`CapturedPacket` with the outcome known
        #: at send — but ``host_down``/``no_socket``/``socket_closed``
        #: are decided at delivery, once every registered capture has
        #: already seen ``dropped=False``. Captures reconcile their
        #: delivered totals by subtracting this counter (see
        #: ``tests/chaos/test_capture_reconciliation.py``).
        self.in_flight_drops = 0
        self.drops_by_reason: dict[str, int] = {}
        # Installed by repro.net.faults.FaultInjector; None = no chaos.
        self.faults = None
        # Pre-bound delivery callback, installed once as the datagram
        # plane's per-datagram callable (heap-resident deliveries carry
        # it). _rand_random is the raw C-level draw behind self.rand,
        # for the inline jitter computation.
        self._deliver_cb = self._deliver
        self._rand_random = self.rand.random
        self.loop.set_datagram_plane(self._drain_cursor, self._deliver_cb)
        self._tune_wheel()

    # -- latency model knobs ---------------------------------------------

    # Both knobs are settable mid-run (experiments tune them after
    # construction), so the setters re-derive the timing wheel's bucket
    # geometry from the new band.

    @property
    def base_latency(self) -> float:
        """Same-region one-way base latency in seconds."""
        return self._base_latency

    @base_latency.setter
    def base_latency(self, value: float) -> None:
        self._base_latency = value
        self._tune_wheel()

    @property
    def cross_region_latency(self) -> float:
        """Cross-region one-way base latency in seconds."""
        return self._cross_region_latency

    @cross_region_latency.setter
    def cross_region_latency(self, value: float) -> None:
        self._cross_region_latency = value
        self._tune_wheel()

    def _tune_wheel(self) -> None:
        """Size the loop's timing wheel from the latency knobs.

        The in-flight-datagram delay band runs from the 1 ms floor up to
        the larger base latency plus folded jitter, whatever traffic
        flows. Reconfiguring mid-run is order-safe (see
        :meth:`~repro.net.clock.EventLoop.configure_wheel`).
        """
        band = max(self._base_latency, self._cross_region_latency) + self.jitter
        self.loop.configure_wheel_for_band(band)

    # -- topology --------------------------------------------------------

    def allocate_public_ip(self) -> str:
        """Return the next public address from a counter starting at 5.0.0.1.

        Public hosts and NAT boxes created without an explicit address
        take theirs from here, and so does a NAT rebind's fresh mapping.
        The counter never returns the same address twice; it does not
        skip addresses that callers assigned explicitly.
        """
        ip = int_to_ip(self._next_public_ip)
        self._next_public_ip += 1
        return ip

    def add_host(
        self,
        name: str,
        ip: str | None = None,
        nat: NatBox | None = None,
        region: str | None = None,
        uplink_bytes_per_sec: float | None = None,
    ) -> Host:
        """Create a host. Behind a NAT it gets a private subnet address."""
        if nat is not None:
            if ip is not None:
                raise ConfigurationError("cannot set explicit ip for a NATed host")
            ip = nat.allocate_internal_ip()
        elif ip is None:
            ip = self.allocate_public_ip()
        if ip in self.hosts:
            raise ConfigurationError(f"duplicate host ip {ip}")
        host = Host(self, name, ip, nat=nat, region=region,
                    uplink_bytes_per_sec=uplink_bytes_per_sec)
        self.hosts[ip] = host
        if nat is None:
            self._routable[ip] = host
        return host

    def add_nat(
        self,
        nat_type: NatType = NatType.PORT_RESTRICTED_CONE,
        external_ip: str | None = None,
    ) -> NatBox:
        """Create a NAT box with its own public address and subnet."""
        if external_ip is None:
            external_ip = self.allocate_public_ip()
        subnet_index = next(self._next_nat_subnet)
        subnet = f"192.168.{subnet_index % 256}" if subnet_index < 256 else (
            f"10.{subnet_index // 256}.{subnet_index % 256}"
        )
        nat = NatBox(external_ip, nat_type, subnet_prefix=subnet)
        self._routable[external_ip] = nat
        return nat

    def rebind_nat(self, nat: NatBox, new_external_ip: str | None = None) -> tuple[str, str]:
        """Give a NAT box a fresh public mapping (lease expiry / renumber).

        Returns ``(old_ip, new_ip)``. The old external address leaves
        the public address space, every existing port mapping is voided
        (established flows must re-punch), and the box reappears at the
        new address — the churn event the paper's ICE layer must survive.
        """
        if self._routable.get(nat.external_ip) is not nat:
            raise ConfigurationError(f"NAT {nat.external_ip} is not attached to this network")
        if new_external_ip is None:
            new_external_ip = self.allocate_public_ip()
        if new_external_ip in self._routable or new_external_ip in self.hosts:
            raise ConfigurationError(f"address {new_external_ip} already in use")
        old_ip = nat.external_ip
        del self._routable[old_ip]
        nat.rebind(new_external_ip)
        self._routable[new_external_ip] = nat
        return old_ip, new_external_ip

    def is_routable(self, ip: str) -> bool:
        """True when ``ip`` is claimed in the public address space.

        A routable address belongs either to a public :class:`Host` or
        to a :class:`~repro.net.nat.NatBox`'s external side. Callers
        allocating addresses (e.g. geo-located viewer hosts) use this
        to avoid collisions instead of reaching into the private
        routing table.
        """
        return ip in self._routable

    def add_capture(self, capture: TrafficCapture) -> TrafficCapture:
        """Register a traffic capture observing every sent datagram.

        The capture remembers this network as a tap point, so
        :meth:`TrafficCapture.stop` deregisters it here and the no-tap
        fast branch in :meth:`send_datagram` re-engages.
        """
        self.captures.append(capture)
        capture._taps.append(self)
        return capture

    # -- data plane ------------------------------------------------------

    def _drop(self, reason: str) -> None:
        """Count one dropped datagram, under exactly one reason.

        Every drop path funnels through here, so ``datagrams_dropped ==
        sum(drops_by_reason.values())`` holds by construction — the
        conservation invariant the chaos suite pins.
        """
        self.datagrams_dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1

    def _resolve_nat(
        self, nat: NatBox, dst: Endpoint, wire_src: Endpoint
    ) -> tuple[Host | None, int, str | None]:
        """Route a NAT-bound wire destination to ``(host, port, drop_reason)``.

        Read-only (NAT ``inbound`` never mutates), so it is safe to call
        before the loss decision without perturbing the seeded stream.
        """
        internal = nat.inbound(dst.port, wire_src)
        if internal is None:
            return None, 0, "nat_filtered"
        dest_host = self.hosts.get(internal.ip)
        if dest_host is None:
            return None, 0, "no_host"
        return dest_host, internal.port, None

    def send_datagram(
        self,
        src_host: Host,
        src_port: int,
        dst: Endpoint,
        payload: bytes,
        wire_src: Endpoint | None = None,
    ) -> None:
        """Send one datagram. NAT-translates, captures, drops, delivers.

        ``wire_src`` lets a :class:`UdpSocket` on a public host pass its
        bind-time wire endpoint and skip the per-datagram resolution;
        NATed sockets and direct callers pass ``None``.
        """
        self.datagrams_sent += 1
        if wire_src is None:
            nat = src_host.nat
            if nat is not None:
                wire_src = nat.outbound(Endpoint(src_host.ip, src_port), dst)
            else:
                wire_src = src_host._wire_endpoints.get(src_port)
                if wire_src is None:
                    wire_src = Endpoint(src_host.ip, src_port)
                    src_host._wire_endpoints[src_port] = wire_src

        # Routing: public-host targets (the vast majority at swarm
        # scale) resolve without a helper call; only NAT targets take
        # _resolve_nat.
        route_fail: str | None = None
        target = self._routable.get(dst.ip)
        if target is None:
            # Unroutable destination (e.g. a bogon candidate): black-hole.
            dest_host: Host | None = None
            dest_port = 0
            route_fail = "unroutable"
        elif isinstance(target, NatBox):
            dest_host, dest_port, route_fail = self._resolve_nat(target, dst, wire_src)
        else:
            dest_host, dest_port = target, dst.port

        # The global loss trial draws first (and only when loss_rate is
        # set), exactly as before faults existed, so legacy seeded runs
        # replay unchanged. Fault-layer trials draw from the injector's
        # own forked stream.
        reason: str | None = None
        if self.loss_rate > 0 and self.rand.random() < self.loss_rate:
            reason = "loss"
        conditions = None
        faults = self.faults
        if reason is None and faults is not None:
            if faults.host_is_down(src_host):
                reason = "host_down"
            elif dest_host is not None and faults.host_is_down(dest_host):
                reason = "host_down"
            else:
                conditions = faults.conditions_for(src_host, dest_host)
                if conditions is not None:
                    if conditions.blocked:
                        reason = "link_down"
                    elif conditions.loss > 0 and faults.rand.random() < conditions.loss:
                        reason = "fault_loss"

        if self.captures:
            # dropped reflects the *final* outcome, route failures
            # included — a capture must never show an unroutable or
            # NAT-filtered datagram as delivered.
            packet = CapturedPacket(self.loop.now, wire_src, dst, payload,
                                    dropped=reason is not None or route_fail is not None)
            for capture in self.captures:
                capture.record(packet)
        if reason is not None:
            self._drop(reason)
            return
        if route_fail is not None:
            self._drop(route_fail)
            return

        # The region rule, allocation-free: no (src, dst) key tuple is
        # built per send (every container allocated here advances the
        # gen-0 GC counter), and the region strings are shared objects
        # so == takes the pointer fast path.
        # The jitter expression is bit-exact with uniform(-j, j) — it is
        # random.Random.uniform's ``a + (b - a) * random()`` with the
        # constants folded — and consumes exactly one draw, so replays
        # are unchanged.
        src_region = src_host.region
        dst_region = dest_host.region
        if src_region == dst_region or src_region is None or dst_region is None:
            base = self._base_latency
        else:
            base = self._cross_region_latency
        jitter = self.jitter
        delay = base + ((jitter + jitter) * self._rand_random() - jitter)
        if delay <= 0.001:
            delay = 0.001
        if src_host.uplink_bytes_per_sec is not None:
            delay += self._uplink_queue_delay(src_host, len(payload))
        if conditions is not None:
            delay += conditions.extra_latency
            delay += faults.link_queue_delay(src_host, dest_host, len(payload), conditions,
                                             self.loop.now)
        self.datagrams_in_flight += 1
        loop = self.loop
        loop._push_datagram(loop.now + delay, dest_host, dest_port, payload, wire_src)

    def _uplink_queue_delay(self, src_host: Host, size: int) -> float:
        """Serialisation + queueing on a capacity-limited uplink.

        Each datagram occupies the sender's uplink for size/rate seconds;
        concurrent sends queue behind it (how a seeder saturates when too
        many leechers pull from it at once)."""
        rate = src_host.uplink_bytes_per_sec
        if rate is None or rate <= 0:
            return 0.0
        start = max(self.loop.now, src_host._uplink_busy_until)
        src_host._uplink_busy_until = start + size / rate
        return src_host._uplink_busy_until - self.loop.now

    def _drop_in_flight(self, reason: str) -> None:
        """Count a drop decided at delivery time, after capture.

        By the time a ``host_down``/``no_socket``/``socket_closed``
        verdict is reachable, every registered capture has already
        recorded the packet with ``dropped=False`` (the send-path
        capture reflects only what is knowable at send). The extra
        :attr:`in_flight_drops` counter is what lets captures reconcile:
        ``capture.not_dropped - net.in_flight_drops`` == true deliveries.
        """
        self.in_flight_drops += 1
        self._drop(reason)

    def _deliver(self, host: Host, port: int, payload: bytes, src: Endpoint) -> None:
        self.datagrams_in_flight -= 1
        if self.faults is not None and self.faults.host_is_down(host):
            # The host crashed while the datagram was in flight.
            self._drop_in_flight("host_down")
            return
        sock = host.sockets.get(port)
        if sock is None:
            self._drop_in_flight("no_socket")
            return
        if sock.closed:
            self._drop_in_flight("socket_closed")
            return
        self.datagrams_delivered += 1
        handler = sock.push(payload, src)
        if handler is not None:
            handler(payload, src, sock)

    def _drain_cursor(self, deadline: float, budget: int) -> int:
        """Fire the cursor's leading run of batched datagram rows.

        Installed on the loop as its datagram plane
        (:meth:`EventLoop.set_datagram_plane`): the loop's fire kernel
        calls it whenever the cursor's top row is the next due event,
        and one call frame here drains every *consecutive* due row —
        merging per item against the heap top and honouring ``deadline``
        and ``budget``, so dispatch order and ``run_until``/``run_all``/
        ``step`` semantics stay bit-identical to a pure-heap loop. A
        heap-top delivery that falls inside the run (one queued while
        the loop was below the wheel's depth gate) fires here too, in
        its ``(when, seq)`` place; any other heap entry ends the run.
        Returns the number of deliveries fired (0 only when the cursor
        minimum lies beyond ``deadline``).

        Accounting (``loop._live``, ``datagrams_in_flight``,
        ``datagrams_delivered``) accumulates in locals and is flushed
        before any handler runs and again on exit, so re-entrant user
        code (and the conservation invariant) always sees consistent
        counters. The per-(host, port) socket lookup is cached across a
        run of rows to the same destination — the per-destination
        batching the columns exist for — and invalidated whenever a
        handler runs, since handlers may close or rebind sockets.
        """
        loop = self.loop
        loop.wheel_batch_drains += 1
        cursor = loop._cursor
        heap = loop._heap
        faults = self.faults
        fired = 0
        live = 0          # loop._live decrements owed
        in_flight = 0     # datagrams_in_flight decrements owed
        delivered = 0     # datagrams_delivered increments owed
        prev_host: Host | None = None
        prev_port = -1
        sock: UdpSocket | None = None
        callback = self._deliver_cb
        try:
            while fired < budget and cursor:
                top = cursor[-1]
                if top[0] > deadline:
                    break
                if heap and heap[0] < top:
                    top = heap[0]
                    if top[2] is not callback:
                        break
                    heappop(heap)
                    when, _, _, (host, port, payload, src) = top
                else:
                    cursor.pop()
                    when, _, host, port, payload, src = top
                fired += 1
                live += 1
                in_flight += 1
                loop.now = when
                # Observers see the legacy entry shape (same callsite
                # fingerprint as a heap-resident delivery), synthesized
                # only when someone is watching. Re-read per event,
                # exactly like the loop's fire kernel, so an observer
                # armed by a handler mid-drain takes effect immediately.
                if EventLoop._observers:
                    entry = top if len(top) == 4 else loop._datagram_entry(top)
                    for observe in EventLoop._observers:
                        observe(loop, entry)
                if host is not prev_host or port != prev_port:
                    prev_host = host
                    prev_port = port
                    sock = host.sockets.get(port)
                if faults is not None and faults.host_is_down(host):
                    self._drop_in_flight("host_down")
                elif sock is None:
                    self._drop_in_flight("no_socket")
                elif sock.closed:
                    self._drop_in_flight("socket_closed")
                else:
                    delivered += 1
                    handler = sock.push(payload, src)
                    if handler is not None:
                        loop._live -= live
                        self.datagrams_in_flight -= in_flight
                        self.datagrams_delivered += delivered
                        live = in_flight = delivered = 0
                        handler(payload, src, sock)
                        # Handler code can bind/close sockets, install
                        # faults, or nest a drain that replaces the
                        # cursor: re-read all cached state.
                        prev_host = None
                        sock = None
                        faults = self.faults
                        cursor = loop._cursor
                        heap = loop._heap
        finally:
            loop._live -= live
            self.datagrams_in_flight -= in_flight
            self.datagrams_delivered += delivered
        return fired


class RemoteHostRef:
    """A fault-layer stand-in for a host that lives on another shard.

    Under sharding every shard applies the *whole* fault plan (that is
    what keeps ``host_is_down``/``conditions_for`` answers identical at
    any worker count), so the injector must be able to resolve hosts it
    does not own. A ref carries exactly the attributes the fault layer
    reads or writes — ``name``, ``ip``/``public_ip``, ``region``,
    ``nat`` (always ``None``: sharded swarm hosts are public) and the
    settable ``_uplink_busy_until`` a crash zeroes — and nothing a data
    plane could accidentally deliver into.
    """

    __slots__ = ("name", "ip", "region", "nat", "_uplink_busy_until")

    def __init__(self, name: str, ip: str, region: str | None) -> None:
        self.name = name
        self.ip = ip
        self.region = region
        self.nat = None
        self._uplink_busy_until = 0.0

    @property
    def public_ip(self) -> str:
        """Public hosts are their own wire address."""
        return self.ip

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"RemoteHostRef({self.name}, {self.ip}, region={self.region})"


class ShardNetwork(Network):
    """A :class:`Network` owning one shard of an indexed swarm.

    The sharded swarm addresses hosts by a dense integer index: viewer
    ``i`` is ``v{i}`` at ``ip_base + i`` in region ``regions[i % R]``,
    and regions map to shards as ``shard_of(i) = (i % R) % K``. That
    arithmetic replaces the routing table for swarm traffic —
    :meth:`send_indexed` resolves the destination shard with two
    modulos, queues local deliveries through the loop's datagram enqueue
    (:meth:`EventLoop._push_datagram`, as :meth:`Network.send_datagram`
    does), and diverts cross-shard sends into per-destination-shard
    *egress columns* (parallel ``when``/``dst``/``src`` arrays, no
    per-datagram objects) that the coordinator exchanges at window
    barriers. Every non-swarm facility (NATs,
    captures, explicit ``send_datagram``) is untouched.

    Randomness discipline: swarm sends pass *pre-drawn* uniforms in
    (``u_latency``, ``u_fault``) so no shard-local stream is consumed
    on the send path — the precomputed per-region programs are what
    make digests worker-count-invariant (see ``docs/SHARDING.md``).
    """

    def __init__(
        self,
        shard_id: int,
        num_shards: int,
        regions: tuple[str, ...],
        *,
        ip_base: str = "5.0.0.1",
        port: int = 4000,
        payload: bytes = b"",
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0 <= shard_id < num_shards:
            raise ConfigurationError(f"shard_id {shard_id} outside 0..{num_shards - 1}")
        if num_shards > len(regions):
            raise ConfigurationError(
                f"{num_shards} shards need at least as many regions (got {len(regions)})"
            )
        self.shard_id = shard_id
        self.num_shards = num_shards
        self.regions = tuple(regions)
        self.shard_port = port
        self.shard_payload = payload
        self._ip_base_int = ip_to_int(ip_base)
        #: idx -> local Host, the shard's slice of the swarm.
        self._local_index: dict[int, Host] = {}
        #: idx -> RemoteHostRef, built lazily (fault queries only).
        self._remote_refs: dict[int, RemoteHostRef] = {}
        #: Per-destination-shard egress columns: (when, dst_idx, src_idx).
        self._egress: list[tuple[array, array, array]] = [
            (array("d"), array("q"), array("q")) for _ in range(num_shards)
        ]
        self.egress_sent = 0
        self.remote_injected = 0

    # -- indexed topology ------------------------------------------------

    def region_of(self, idx: int) -> str:
        """The region viewer ``idx`` lives in."""
        return self.regions[idx % len(self.regions)]

    def shard_of(self, idx: int) -> int:
        """The shard that owns viewer ``idx``."""
        return (idx % len(self.regions)) % self.num_shards

    def indexed_ip(self, idx: int) -> str:
        """The public address of viewer ``idx`` (dense from ``ip_base``)."""
        return int_to_ip(self._ip_base_int + idx)

    def add_indexed_host(self, idx: int) -> Host:
        """Create the local host for viewer ``idx``."""
        host = self.add_host(f"v{idx}", ip=self.indexed_ip(idx), region=self.region_of(idx))
        self._local_index[idx] = host
        return host

    def host_ref(self, idx: int) -> "Host | RemoteHostRef":
        """Viewer ``idx`` as the fault layer sees it: Host or remote ref."""
        host = self._local_index.get(idx)
        if host is not None:
            return host
        ref = self._remote_refs.get(idx)
        if ref is None:
            ref = RemoteHostRef(f"v{idx}", self.indexed_ip(idx), self.region_of(idx))
            self._remote_refs[idx] = ref
        return ref

    # -- sharded data plane ----------------------------------------------

    def send_indexed(self, src_idx: int, dst_idx: int, u_latency: float, u_fault: float,
                     at: float) -> None:
        """Send one swarm datagram from viewer ``src_idx`` to ``dst_idx`` at ``at``.

        Follows :meth:`send_datagram`'s fault checks, latency
        computation and datagram enqueue, with four deliberate
        differences. (1) Randomness comes from the caller's pre-drawn
        uniforms, not ``self.rand`` — the same draws feed the same send
        at any worker count. (2) The global ``loss_rate`` trial and
        captures are unsupported (the sharded swarm drives loss through
        fault plans; both would consume or observe shard-local state).
        (3) A cross-shard destination appends ``(when, dst, src)`` to
        the egress columns instead of scheduling: the datagram counts as
        sent here and enters ``datagrams_in_flight`` only on the owning
        shard at injection time, so the *global* conservation invariant
        ``sent == delivered + dropped + in_flight`` holds after merge.
        (4) The send happens at ``at``, the caller's instant, not at the
        loop's ``now``: a shard replays a stretch of its traffic program
        before its loop fires that stretch's deliveries (see
        ``ShardWorker.run_window``), so ``at >= loop.now`` and the loop
        clock is never touched here.
        """
        self.datagrams_sent += 1
        src_host = self._local_index[src_idx]
        src_region = src_host.region
        dst_region = self.regions[dst_idx % len(self.regions)]
        payload = self.shard_payload

        conditions = None
        faults = self.faults
        if faults is not None:
            dst_ref = self.host_ref(dst_idx)
            if faults.host_is_down(src_host) or faults.host_is_down(dst_ref):
                self._drop("host_down")
                return
            conditions = faults.conditions_for(src_host, dst_ref)
            if conditions is not None:
                if conditions.blocked:
                    self._drop("link_down")
                    return
                if conditions.loss > 0 and u_fault < conditions.loss:
                    self._drop("fault_loss")
                    return

        # Inline latency: bit-exact with send_datagram's folded uniform.
        if src_region == dst_region:
            base = self._base_latency
        else:
            base = self._cross_region_latency
        jitter = self.jitter
        delay = base + ((jitter + jitter) * u_latency - jitter)
        if delay <= 0.001:
            delay = 0.001
        if conditions is not None:
            delay += conditions.extra_latency
            # Stateful, but K-invariant: all sends for an ordered host
            # pair originate on the sender's shard in time order, so the
            # per-pair busy clock replays identically at any K.
            delay += faults.link_queue_delay(src_host, dst_ref, len(payload), conditions, at)
        when = at + delay

        dst_shard = (dst_idx % len(self.regions)) % self.num_shards
        if dst_shard != self.shard_id:
            cols = self._egress[dst_shard]
            cols[0].append(when)
            cols[1].append(dst_idx)
            cols[2].append(src_idx)
            self.egress_sent += 1
            return

        port = self.shard_port
        wire_src = src_host._wire_endpoints.get(port)
        if wire_src is None:
            wire_src = Endpoint(src_host.ip, port)
            src_host._wire_endpoints[port] = wire_src
        self.datagrams_in_flight += 1
        self.loop._push_datagram(when, self._local_index[dst_idx], port, payload, wire_src)

    def flush_egress(self) -> dict[int, tuple[array, array, array]]:
        """Detach and return the non-empty egress columns, keyed by shard."""
        out: dict[int, tuple[array, array, array]] = {}
        for shard, cols in enumerate(self._egress):
            if cols[0]:
                out[shard] = cols
                self._egress[shard] = (array("d"), array("q"), array("q"))
        return out

    def inject_batches(self, batches: list[tuple[array, array, array]]) -> int:
        """Merge remote arrivals into the local queue (seq re-keying).

        ``batches`` arrive in source-shard-ascending order; rows are
        stable-sorted by delivery time and each gets a *fresh local*
        sequence number in that order, so the ``(when, seq)`` dispatch
        order the wheel and heap share also totally orders remote
        arrivals. The window protocol guarantees every ``when`` is at or
        past the barrier the loop just reached — validated once against
        the earliest row. ``when == now`` is legal: an arrival exactly
        on the barrier fires in the next window.
        """
        rows: list[tuple[float, int, int]] = []
        for when_col, dst_col, src_col in batches:
            rows.extend(zip(when_col, dst_col, src_col))
        if not rows:
            return 0
        rows.sort(key=lambda row: row[0])
        loop = self.loop
        if rows[0][0] < loop.now:
            raise ConfigurationError(
                f"cannot inject at {rows[0][0]} < now {loop.now} (window protocol violated)"
            )
        port = self.shard_port
        payload = self.shard_payload
        base = self._ip_base_int
        local = self._local_index
        push = loop._push_datagram
        self.datagrams_in_flight += len(rows)
        for when, dst_idx, src_idx in rows:
            push(when, local[dst_idx], port, payload, Endpoint(int_to_ip(base + src_idx), port))
        self.remote_injected += len(rows)
        return len(rows)
