"""Tests for the datagram network: routing, NAT, capture, loss."""

import pytest

from repro.net import Endpoint, EventLoop, NatType, Network, TrafficCapture
from repro.net.network import ShardNetwork
from repro.util.errors import AddressInUseError, ConfigurationError
from repro.util.rand import DeterministicRandom
from tests.chaos.gen import cancel_all, pad_past_depth_gate


def make_network(**kwargs) -> Network:
    return Network(EventLoop(), rand=DeterministicRandom(1), **kwargs)


class TestTopology:
    def test_public_ip_autoassignment(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        assert a.ip != b.ip
        assert a.public_ip == a.ip

    def test_nated_host_gets_private_ip(self):
        net = make_network()
        nat = net.add_nat(NatType.FULL_CONE)
        host = net.add_host("h", nat=nat)
        assert host.ip.startswith("192.168.")
        assert host.public_ip == nat.external_ip

    def test_explicit_ip_conflict_rejected(self):
        net = make_network()
        net.add_host("a", ip="9.9.9.9")
        with pytest.raises(ConfigurationError):
            net.add_host("b", ip="9.9.9.9")

    def test_nated_host_rejects_explicit_ip(self):
        net = make_network()
        nat = net.add_nat()
        with pytest.raises(ConfigurationError):
            net.add_host("h", ip="1.2.3.4", nat=nat)


class TestSockets:
    def test_bind_duplicate_port_rejected(self):
        net = make_network()
        host = net.add_host("h")
        host.bind_udp(1000)
        with pytest.raises(AddressInUseError):
            host.bind_udp(1000)

    def test_ephemeral_ports_unique(self):
        net = make_network()
        host = net.add_host("h")
        s1, s2 = host.bind_udp(), host.bind_udp()
        assert s1.port != s2.port

    def test_close_releases_port(self):
        net = make_network()
        host = net.add_host("h")
        sock = host.bind_udp(1000)
        sock.close()
        host.bind_udp(1000)  # no error


class TestDelivery:
    def test_public_to_public(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        received = []
        b.bind_udp(2000, lambda data, src, sock: received.append((data, src)))
        sa = a.bind_udp(1000)
        sa.send(Endpoint(b.ip, 2000), b"hi")
        net.loop.run(1.0)
        assert received == [(b"hi", Endpoint(a.ip, 1000))]

    def test_nat_translates_source(self):
        net = make_network()
        nat = net.add_nat(NatType.FULL_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        received = []
        b.bind_udp(2000, lambda data, src, sock: received.append(src))
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run(1.0)
        assert received[0].ip == nat.external_ip
        assert received[0].ip != a.ip

    def test_reply_through_nat(self):
        net = make_network()
        nat = net.add_nat(NatType.PORT_RESTRICTED_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        a_received = []
        a.bind_udp(1000, lambda data, src, sock: a_received.append(data))
        b.bind_udp(2000, lambda data, src, sock: sock.send(src, b"reply"))
        a.sockets[1000].send(Endpoint(b.ip, 2000), b"ping")
        net.loop.run(1.0)
        assert a_received == [b"reply"]

    def test_unsolicited_inbound_filtered_by_nat(self):
        net = make_network()
        nat = net.add_nat(NatType.PORT_RESTRICTED_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        received = []
        a.bind_udp(1000, lambda data, src, sock: received.append(data))
        b.bind_udp(2000).send(Endpoint(nat.external_ip, 40000), b"attack")
        net.loop.run(1.0)
        assert received == []

    def test_unroutable_destination_blackholed(self):
        net = make_network()
        a = net.add_host("a")
        a.bind_udp(1000).send(Endpoint("203.0.113.7", 9), b"x")
        net.loop.run(1.0)
        assert net.datagrams_dropped == 1

    def test_unbound_port_drops(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        a.bind_udp(1000).send(Endpoint(b.ip, 7777), b"x")
        net.loop.run(1.0)
        assert net.datagrams_dropped == 1


class TestCaptureAndLoss:
    def test_capture_sees_wire_addresses(self):
        net = make_network()
        cap = net.add_capture(TrafficCapture("all"))
        nat = net.add_nat(NatType.FULL_CONE)
        a = net.add_host("a", nat=nat)
        b = net.add_host("b")
        b.bind_udp(2000, lambda *args: None)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"data")
        net.loop.run(1.0)
        assert len(cap) == 1
        assert cap.packets[0].src.ip == nat.external_ip

    def test_scoped_capture_filters(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        c = net.add_host("c")
        cap = net.add_capture(TrafficCapture("only-c", interface_ips=[c.ip]))
        b.bind_udp(2000, lambda *args: None)
        c.bind_udp(2000, lambda *args: None)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"not captured")
        a.sockets[1000].send(Endpoint(c.ip, 2000), b"captured")
        net.loop.run(1.0)
        assert len(cap) == 1
        assert cap.packets[0].payload == b"captured"

    def test_loss_rate_drops_packets(self):
        net = make_network(loss_rate=1.0)
        a = net.add_host("a")
        b = net.add_host("b")
        received = []
        b.bind_udp(2000, lambda data, src, sock: received.append(data))
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run(1.0)
        assert received == []
        assert net.datagrams_dropped == 1

    def test_cross_region_latency_larger(self):
        loop = EventLoop()
        net = Network(loop, rand=DeterministicRandom(1), jitter=0.0)
        a = net.add_host("a", region="us")
        b = net.add_host("b", region="cn")
        c = net.add_host("c", region="us")
        times = {}
        b.bind_udp(2000, lambda data, src, sock: times.__setitem__("cross", loop.now))
        c.bind_udp(2000, lambda data, src, sock: times.__setitem__("same", loop.now))
        start = loop.now
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        a.sockets[1000].send(Endpoint(c.ip, 2000), b"x")
        loop.run(1.0)
        assert times["cross"] - start > times["same"] - start


class TestUplinkCapacity:
    def test_unlimited_by_default(self):
        net = make_network()
        host = net.add_host("h")
        assert host.uplink_bytes_per_sec is None
        assert net._uplink_queue_delay(host, 10**9) == 0.0

    def test_serialization_delay(self):
        net = Network(EventLoop(), rand=DeterministicRandom(1), jitter=0.0)
        sender = net.add_host("s", uplink_bytes_per_sec=1000.0)
        receiver = net.add_host("r")
        times = []
        receiver.bind_udp(2000, lambda data, src, sock: times.append(net.loop.now))
        sock = sender.bind_udp(1000)
        sock.send(Endpoint(receiver.ip, 2000), b"x" * 1000)  # 1 second on the wire
        net.loop.run(10.0)
        assert times and times[0] >= 1.0

    def test_concurrent_sends_queue(self):
        net = Network(EventLoop(), rand=DeterministicRandom(1), jitter=0.0)
        sender = net.add_host("s", uplink_bytes_per_sec=1000.0)
        receiver = net.add_host("r")
        times = []
        receiver.bind_udp(2000, lambda data, src, sock: times.append(net.loop.now))
        sock = sender.bind_udp(1000)
        for _ in range(3):
            sock.send(Endpoint(receiver.ip, 2000), b"x" * 1000)
        net.loop.run(20.0)
        assert len(times) == 3
        # back-to-back 1-second serializations: ~1s, ~2s, ~3s
        assert times[1] - times[0] >= 0.9
        assert times[2] - times[1] >= 0.9

    def test_receiver_uplink_irrelevant(self):
        net = Network(EventLoop(), rand=DeterministicRandom(1), jitter=0.0)
        sender = net.add_host("s")
        receiver = net.add_host("r", uplink_bytes_per_sec=1.0)  # tiny uplink
        times = []
        receiver.bind_udp(2000, lambda data, src, sock: times.append(net.loop.now))
        sender.bind_udp(1000).send(Endpoint(receiver.ip, 2000), b"x" * 10000)
        net.loop.run(5.0)
        assert times and times[0] < 1.0  # downloads unaffected


class TestCaptureDroppedFlag:
    """Regression: a capture must show the datagram's *final* outcome.

    Route-failed packets (unroutable / nat_filtered / no_host) used to be
    recorded with ``dropped=False``, so a wire trace disagreed with
    ``drops_by_reason``. Only in-flight drops — decided after the packet
    was already on the wire, like an unbound destination port — may
    legitimately stay ``dropped=False``.
    """

    def _tap(self, net):
        return net.add_capture(TrafficCapture("tap"))

    def test_unroutable_marked_dropped(self):
        net = make_network()
        a = net.add_host("a")
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint("203.0.113.7", 9999), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"unroutable": 1}
        assert [p.dropped for p in cap.packets] == [True]

    def test_nat_filtered_marked_dropped(self):
        net = make_network()
        a = net.add_host("a")
        nat = net.add_nat(NatType.PORT_RESTRICTED_CONE)
        net.add_host("h", nat=nat).bind_udp(2000)
        cap = self._tap(net)
        # Unsolicited inbound to the NAT's external side: filtered.
        a.bind_udp(1000).send(Endpoint(nat.external_ip, 4000), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"nat_filtered": 1}
        assert [p.dropped for p in cap.packets] == [True]

    def test_loss_marked_dropped(self):
        net = make_network(loss_rate=1.0)
        a = net.add_host("a")
        b = net.add_host("b")
        b.bind_udp(2000)
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"loss": 1}
        assert [p.dropped for p in cap.packets] == [True]

    def test_delivered_marked_not_dropped(self):
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        b.bind_udp(2000)
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint(b.ip, 2000), b"x")
        net.loop.run_all()
        assert net.datagrams_delivered == 1
        assert [p.dropped for p in cap.packets] == [False]

    def test_in_flight_drop_stays_not_dropped(self):
        """No socket on the destination port: the packet really was on
        the wire when captured, so the capture says dropped=False and the
        drop is visible only in drops_by_reason."""
        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")  # no socket bound
        cap = self._tap(net)
        a.bind_udp(1000).send(Endpoint(b.ip, 4000), b"x")
        net.loop.run_all()
        assert net.drops_by_reason == {"no_socket": 1}
        assert [p.dropped for p in cap.packets] == [False]

    def test_capture_agrees_with_drop_accounting(self):
        """Across a mixed workload, pre-flight drops in the capture equal
        the pre-flight entries of drops_by_reason."""
        net = make_network(loss_rate=0.5)
        hosts = [net.add_host(f"h{i}") for i in range(4)]
        for host in hosts:
            host.bind_udp(2000)
        cap = self._tap(net)
        for i, src in enumerate(hosts):
            for j, dst in enumerate(hosts):
                if i != j:
                    src.sockets[2000].send(Endpoint(dst.ip, 2000), b"x")
            src.sockets[2000].send(Endpoint("203.0.113.9", 1), b"x")
        net.loop.run_all()
        preflight = sum(
            count for reason, count in net.drops_by_reason.items()
            if reason in {"unroutable", "nat_filtered", "no_host", "loss"}
        )
        assert sum(1 for p in cap.packets if p.dropped) == preflight
        assert preflight >= 4  # at least the four unroutable sends


class TestInboxBounds:
    def test_inbox_is_bounded_by_default(self):
        from repro.net.network import DEFAULT_INBOX_LIMIT

        net = make_network()
        a = net.add_host("a")
        b = net.add_host("b")
        sock = b.bind_udp(2000)
        assert sock.inbox_limit == DEFAULT_INBOX_LIMIT
        src = a.bind_udp(1000)
        for i in range(3 * 16):
            src.send(Endpoint(b.ip, 2000), b"x")
        net.loop.run_all()
        assert len(sock.inbox) <= DEFAULT_INBOX_LIMIT

    def test_eviction_keeps_newest(self):
        net = make_network()
        host = net.add_host("h")
        sock = host.bind_udp(2000, inbox_limit=8)
        src = Endpoint("5.0.0.99", 1)
        for i in range(9):
            sock.deliver(b"%d" % i, src)
        # One batched eviction at 9 > 8: the oldest go, newest half stay.
        kept = [payload for payload, _ in sock.inbox]
        assert kept == [b"5", b"6", b"7", b"8"]
        assert sock.bytes_received == 9  # accounting unaffected by eviction

    def test_inbox_limit_none_is_unbounded(self):
        net = make_network()
        host = net.add_host("h")
        sock = host.bind_udp(2000, inbox_limit=None)
        src = Endpoint("5.0.0.99", 1)
        for i in range(10_000):
            sock.deliver(b"x", src)
        assert len(sock.inbox) == 10_000

    def test_zero_limit_counts_and_queues_nothing(self):
        net = make_network()
        a = net.add_host("a")
        sock = net.add_host("b").bind_udp(2000, inbox_limit=0)
        src = a.bind_udp(1000)
        for i in range(9):
            src.send(sock.endpoint, bytes(i + 1))
        net.loop.run_all()
        assert net.datagrams_delivered == 9
        assert sock.bytes_received == sum(range(1, 10))
        assert sock.inbox == []


class TestDeliveryRule:
    """A socket with a handler hands each datagram to it and queues none.

    Each delivery path makes the same choice: a handled datagram lives
    only as long as its handler keeps it, while a handlerless socket on
    the same network still queues into its bounded inbox. Both sockets
    count every delivery in ``bytes_received``.
    """

    COUNT = 11

    @staticmethod
    def _sockets(net):
        a = net.add_host("a")
        b = net.add_host("b")
        seen = []
        handled = b.bind_udp(2000, lambda payload, src, sock: seen.append(payload))
        polled = b.bind_udp(2001, inbox_limit=4)
        return a.bind_udp(1000), handled, polled, seen

    def _send(self, src, handled, polled):
        for i in range(self.COUNT):
            src.send(handled.endpoint, bytes([i]))
            src.send(polled.endpoint, bytes([i]))

    def _check(self, handled, polled, seen):
        sent = [bytes([i]) for i in range(self.COUNT)]
        assert seen == sent
        assert handled.inbox == []
        assert handled.bytes_received == self.COUNT
        # 11 appends through a limit-4 ring evict at the 5th, 8th and
        # 11th, leaving the last two: the eviction handlerless sockets
        # have always had.
        assert [payload for payload, _ in polled.inbox] == sent[-2:]
        assert polled.bytes_received == self.COUNT

    def test_heap_resident_delivery(self):
        net = make_network(jitter=0.0)  # arrival order == send order
        src, handled, polled, seen = self._sockets(net)
        self._send(src, handled, polled)
        assert net.loop.wheel_batched == 0  # shallow loop: all on the heap
        net.loop.run_all()
        assert net.datagrams_delivered == 2 * self.COUNT
        self._check(handled, polled, seen)

    def test_batched_drain(self):
        net = make_network(jitter=0.0)  # arrival order == send order
        src, handled, polled, seen = self._sockets(net)
        pads = pad_past_depth_gate(net.loop)
        self._send(src, handled, polled)
        assert net.loop.wheel_batched == 2 * self.COUNT
        cancel_all(pads)
        net.loop.run_all()
        assert net.datagrams_delivered == 2 * self.COUNT
        self._check(handled, polled, seen)

    def test_socket_deliver(self):
        net = make_network(jitter=0.0)  # arrival order == send order
        src, handled, polled, seen = self._sockets(net)
        for i in range(self.COUNT):
            handled.deliver(bytes([i]), src.endpoint)
            polled.deliver(bytes([i]), src.endpoint)
        self._check(handled, polled, seen)

    def test_handler_set_later_leaves_queued_datagrams(self):
        net = make_network()
        src, _, polled, seen = self._sockets(net)
        polled.deliver(b"queued", src.endpoint)
        polled.handler = lambda payload, _src, _sock: seen.append(payload)
        polled.deliver(b"handled", src.endpoint)
        assert [payload for payload, _ in polled.inbox] == [b"queued"]
        assert seen == [b"handled"]
        assert polled.bytes_received == len(b"queued") + len(b"handled")


class TestWheelSizing:
    """The timing wheel's geometry follows the latency knobs alone."""

    def knob_width(self, net: Network) -> float:
        band = max(net.base_latency, net.cross_region_latency) + net.jitter
        return 2.0 * band / net.loop._wheel_slots

    def test_same_region_traffic_keeps_the_knob_band(self):
        # Same-region datagrams alone never narrow the wheel: the band
        # covers the cross-region knob however the traffic looks.
        net = make_network()
        a = net.add_host("a", region="us")
        sock = net.add_host("b", region="us").bind_udp(9000)
        for _ in range(8192):
            net.send_datagram(a, 40000, sock.endpoint, b"x")
        assert net.loop._wheel_width == self.knob_width(net)

    def test_knob_assignment_resizes_the_band(self):
        # After same-region traffic too, a knob assignment sizes the
        # band from the knobs, the cross-region one included.
        net = make_network()
        a = net.add_host("a", region="us")
        sock = net.add_host("b", region="us").bind_udp(9000)
        net.send_datagram(a, 40000, sock.endpoint, b"x")
        net.base_latency = 0.03
        assert net.loop._wheel_width == pytest.approx(self.knob_width(net))
        net.cross_region_latency = 0.3
        assert net.loop._wheel_width == pytest.approx(self.knob_width(net))

    def test_network_sizes_its_wheel_once(self, monkeypatch):
        # A bare loop starts with the wheel off, so building a network
        # allocates the wheel's columns once, at the knob band.
        calls = []
        configure = EventLoop.configure_wheel

        def spy(loop, *args):
            calls.append(args)
            configure(loop, *args)

        monkeypatch.setattr(EventLoop, "configure_wheel", spy)
        loop = EventLoop()
        assert calls == [] and loop.wheel_stats()["slots"] == 0
        for build in (lambda: Network(loop), Network, lambda: ShardNetwork(0, 1, ("us",))):
            net = build()
            assert calls == [(self.knob_width(net), net.loop._wheel_slots)]
            calls.clear()

    def test_unchanged_geometry_short_circuits(self):
        # configure_wheel_for_band with the same derived band must not
        # rebuild the wheel and flush its columns for nothing.
        net = make_network()
        loop = net.loop
        geometry = (loop._wheel_width, loop._wheel_slots)
        columns = loop._bwhen  # a rebuild allocates fresh columns
        net._tune_wheel()
        assert (loop._wheel_width, loop._wheel_slots) == geometry
        assert loop._bwhen is columns
