"""Batched delivery equivalence: the columnar drain is order-invisible.

The batched datagram plane (the loop's per-slot column rings, drained
by ``Network._drain_cursor``) is, like the timing wheel whose slots it
fills, a pure performance structure: one drain frame fires a whole run
of due datagrams, but the selection still merges per item against the
heap by ``(when, seq)``. Disabling the wheel removes the plane, so the
pure-heap oracle is the one ``tests/chaos/test_timing_wheel.py``
defines; these property tests run it over their own chaos scenario
stream (each with the burst that crosses the depth gate both ways) and
over an experiment run that reaches the columns, plus boundary tests
for the drain mechanics (step/run_until/run_all semantics, mid-run
reconfigure flush, inbox eviction parity, counter exposure).
Datagrams reach the columns only while the loop is past the wheel's
depth gate, so each drain test pads its loop past the gate first.
"""

import pytest

import repro.experiments  # noqa: F401  - triggers @experiment registration
from repro.harness import registry
from repro.harness.runner import execute_spec
from repro.net.addresses import Endpoint
from repro.net.clock import FIRED_TOTAL
from repro.net.network import Network
from repro.util.rand import DeterministicRandom

from tests.chaos.gen import (
    TRAFFIC_PORT,
    assert_conserved,
    cancel_all,
    chaos_seeds,
    pad_past_depth_gate,
)
from tests.chaos.test_timing_wheel import assert_heap_equivalent, run_heap_only


class TestBatchedEquivalence:
    """Same seed, same plan => same dispatch order, batched or pure heap."""

    @pytest.mark.parametrize("seed", chaos_seeds(3, "batched-delivery"))
    @pytest.mark.parametrize("faults", [False, True], ids=["calm", "chaos-mix"])
    def test_dispatch_trace_is_bit_identical(self, seed, faults):
        assert_heap_equivalent("batched-eq", seed, faults)

    @pytest.mark.parametrize("arrivals", ["uniform", "flash-crowd"])
    def test_experiment_digest_survives_batching_removal(self, arrivals, monkeypatch):
        """An experiment's result digest does not depend on the batched plane.

        No quick-size experiment fills a loop past the depth gate, so
        this runs ``swarm-scale`` with its 4,000 datagrams sent inside
        half a simulated second, which does.
        """
        params = registry.get("swarm-scale").resolve_params(quick=True)
        params.update(datagrams=4_000, horizon=0.5, arrivals=arrivals)
        loops = []
        tune = Network._tune_wheel

        def spy(self):
            tune(self)
            loops.append(self.loop)

        monkeypatch.setattr(Network, "_tune_wheel", spy)
        batched = execute_spec("swarm-scale", 2024, params)
        assert batched.record.ok, batched.record.error
        assert any(loop.wheel_batched for loop in loops)  # the columns carried traffic
        heap = run_heap_only("swarm-scale", params, monkeypatch)
        assert batched.record.result_digest == heap.record.result_digest


def one_host_net(**bind_kwargs):
    """A two-host network with one bound destination socket.

    Its loop is padded past the depth gate, so the datagrams a test
    sends go into the batched columns; the pads are returned last.
    """
    net = Network(rand=DeterministicRandom("batched-unit"), jitter=0.0)
    a = net.add_host("a", region="US")
    b = net.add_host("b", region="US")
    sock = b.bind_udp(TRAFFIC_PORT, **bind_kwargs)
    return net, a, b, sock, pad_past_depth_gate(net.loop)


class TestDrainMechanics:
    def test_step_fires_exactly_one_batched_row(self):
        net, a, b, sock, pads = one_host_net()
        for i in range(5):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        assert net.loop.wheel_batched == 5
        assert net.loop.pending == 5 + len(pads)
        assert net.loop.step() is True
        assert net.datagrams_delivered == 1
        assert net.loop.pending == 4 + len(pads)
        assert net.loop.events_fired == 1
        cancel_all(pads)
        net.loop.run_all()
        assert [payload for payload, _ in sock.inbox] == [bytes([i]) for i in range(5)]

    def test_run_until_deadline_splits_a_batched_bucket(self):
        net, a, b, sock, pads = one_host_net()
        # Same-region base latency is 20 ms (jitter 0): both land at a
        # deterministic `when`; a deadline between them fires only one.
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"early")
        net.loop.now = 0.005
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"late")
        assert net.loop.wheel_batched == 2
        net.loop.run_until(0.021)
        assert [p for p, _ in sock.inbox] == [b"early"]
        assert net.loop.pending == 1 + len(pads)
        net.loop.run_until(0.03)
        assert [p for p, _ in sock.inbox] == [b"early", b"late"]

    def test_run_all_max_events_bound_is_exact_for_batched_rows(self):
        net, a, b, sock, pads = one_host_net()
        for i in range(6):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        assert net.loop.wheel_batched == 6
        cancel_all(pads)
        with pytest.raises(RuntimeError, match="exceeded 3 events"):
            net.loop.run_all(max_events=3)
        # Exactly 3 fired — the drain stopped mid-run, no 4th event.
        assert net.datagrams_delivered == 3
        assert net.loop.events_fired == 3
        assert net.loop.pending == 3
        net.loop.run_all()
        assert net.datagrams_delivered == 6

    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "heap"])
    def test_a_raising_handler_leaves_earlier_deliveries_counted(self, batched):
        net, a, b, sock, pads = one_host_net()
        if not batched:
            net.loop.configure_wheel(None, 0)
        calls = []

        def handler(payload, src, s):
            calls.append(payload)
            if len(calls) == 3:
                raise ValueError("third delivery")

        sock.handler = handler
        for i in range(5):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        assert net.loop.wheel_batched == (5 if batched else 0)
        before = FIRED_TOTAL[0]
        with pytest.raises(ValueError, match="third delivery"):
            net.loop.run_until(1.0)
        # Two deliveries completed; the one whose handler raised does
        # not count, on either tier.
        assert len(calls) == 3
        assert net.loop.events_fired == 2
        assert FIRED_TOTAL[0] - before == 2

    def test_heap_event_interleaves_into_a_batched_run(self):
        """A heap timer due mid-run fires between two same-bucket rows."""
        net, a, b, sock, pads = one_host_net()
        order = []
        sock.handler = lambda payload, src, s: order.append(payload)
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"first")
        # Repeating handles are heap-class by design, and `until` ends
        # the chain after its one due tick. Same `when` as both rows
        # (jitter is 0, base latency 20 ms), seq strictly between
        # theirs: the drain must stop mid-run to let it fire.
        net.loop.call_every(0.02, order.append, "timer", until=0.02)
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"second")
        assert net.loop.wheel_batched == 2
        cancel_all(pads)
        net.loop.run_all()
        assert order == [b"first", "timer", b"second"]

    def test_heap_resident_delivery_fires_inside_the_batched_run(self):
        """A delivery queued below the depth gate sits on the heap; when it
        falls between two rows of a batched run, the same drain fires it."""
        net = Network(rand=DeterministicRandom("batched-unit"), jitter=0.0)
        fast = net.add_host("fast", region="US")
        # A 100 kB/s uplink queues each 1-2 byte datagram by 10-20 us,
        # so all three deliveries share one 0.47 ms bucket.
        slow = net.add_host("slow", region="US", uplink_bytes_per_sec=100_000)
        sock = net.add_host("b", region="US").bind_udp(TRAFFIC_PORT)
        net.send_datagram(slow, TRAFFIC_PORT, sock.endpoint, b"h")  # heap, 20.01 ms
        pads = pad_past_depth_gate(net.loop)
        net.send_datagram(fast, TRAFFIC_PORT, sock.endpoint, b"r1")  # columns, 20 ms
        net.send_datagram(slow, TRAFFIC_PORT, sock.endpoint, b"r2")  # columns, 20.03 ms
        assert net.loop.wheel_batched == 2
        cancel_all(pads)
        net.loop.run_all()
        assert [p for p, _ in sock.inbox] == [b"r1", b"h", b"r2"]
        assert net.loop.wheel_batch_drains == 1

    def test_pending_matches_queue_scan_with_column_residents(self):
        net, a, b, sock, pads = one_host_net()
        for i in range(4):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        net.loop.schedule(5.0, lambda: None)  # far-future heap resident
        queued = list(net.loop._iter_queued())
        assert net.loop.wheel_batched == 4
        assert net.loop.pending == 5 + len(pads) == len(queued)
        # Column rows surface in the legacy 4-tuple vocabulary.
        fast = [e for e in queued if len(e) == 4]
        assert len(fast) == 4
        for entry in fast:
            assert entry[2] == net._deliver_cb
            assert entry[3][0] is b and entry[3][1] == TRAFFIC_PORT

    def test_configure_wheel_flushes_column_rows_order_intact(self):
        net, a, b, sock, pads = one_host_net()
        for i in range(4):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        assert net.loop.wheel_batched == 4
        cancel_all(pads)
        net.loop.configure_wheel(None, 0)  # flush columns to the heap
        assert net.loop.wheel_occupancy == 0
        assert net.loop.pending == 4
        net.loop.run_all()
        assert [p for p, _ in sock.inbox] == [bytes([i]) for i in range(4)]
        assert net.datagrams_delivered == 4

    def test_inbox_eviction_parity_batched_vs_unbatched(self):
        """Per-item eviction: a batched burst evicts exactly like N singles
        (pure-heap deliveries, one classic entry each)."""
        inboxes = []
        for batched in (True, False):
            net = Network(rand=DeterministicRandom("evict"), jitter=0.0)
            if not batched:
                net.loop.configure_wheel(None, 0)
            pad_past_depth_gate(net.loop)  # no pads once the wheel is off
            a = net.add_host("a", region="US")
            b = net.add_host("b", region="US")
            sock = b.bind_udp(TRAFFIC_PORT, inbox_limit=4)
            for i in range(11):
                net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
            assert net.loop.wheel_batched == (11 if batched else 0)
            net.loop.run_all()
            inboxes.append(list(sock.inbox))
        assert inboxes[0] == inboxes[1]
        # 11 per-item appends through a limit-4 ring: evictions at the
        # 5th, 8th and 11th append leave exactly the last two datagrams
        # — a batch-extend + single eviction would have kept more.
        assert [p for p, _ in inboxes[0]] == [bytes([9]), bytes([10])]

    def test_handler_sending_into_the_draining_bucket_stays_ordered(self):
        """Re-entrant sends from a handler keep the merged order."""
        net, a, b, sock, pads = one_host_net()
        got = []

        def reply_once(payload, src, s):
            got.append(payload)
            if payload == b"ping":
                # Lands ~20 ms later: a fresh (later) event, fired after
                # the remainder of the current batched run.
                net.send_datagram(b, TRAFFIC_PORT, Endpoint(a.ip, TRAFFIC_PORT), b"pong")

        sock.handler = reply_once
        a.bind_udp(TRAFFIC_PORT, handler=lambda p, s, sk: got.append(p))
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"ping")
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"after")
        assert net.loop.wheel_batched == 2
        net.loop.run_all()
        assert got == [b"ping", b"after", b"pong"]
        assert_conserved(net)

    def test_wheel_stats_expose_batching_counters(self):
        net, a, b, sock, pads = one_host_net()
        for i in range(3):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        cancel_all(pads)
        net.loop.run_all()
        stats = net.loop.wheel_stats()
        assert stats["batched"] == 3
        assert stats["batch_drains"] >= 1
        assert net.datagrams_delivered == 3
