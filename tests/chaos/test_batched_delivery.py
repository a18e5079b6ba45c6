"""Batched delivery equivalence: the columnar drain is order-invisible.

The batched datagram plane (the loop's per-slot column rings, drained
by ``Network._drain_cursor``) is, like the timing wheel before it, a
pure performance structure: one drain frame fires a whole run of due
datagrams, but the selection still merges per item against the heap by
``(when, seq)``. These property tests mirror
``tests/chaos/test_timing_wheel.py`` — whole chaos scenarios run two
ways (batched, and the pure-heap oracle with the wheel disabled) and
must produce bit-equal dispatch traces and counters — plus seed-2024
digest-pin equality at the experiment level and boundary tests for the
drain mechanics (step/run_until/run_all semantics, mid-run reconfigure
flush, inbox eviction parity, counter exposure).
"""

import pytest

import repro.experiments  # noqa: F401  - triggers @experiment registration
from repro.harness import registry
from repro.harness.runner import execute_spec
from repro.net.addresses import Endpoint
from repro.net.clock import EventLoop
from repro.net.faults import FaultInjector
from repro.net.network import Network
from repro.util.rand import DeterministicRandom

from tests.chaos.gen import (
    TRAFFIC_PORT,
    assert_conserved,
    chaos_seeds,
    pump_random_traffic,
    random_plan,
    random_topology,
)
from tests.chaos.test_timing_wheel import OrderTrace


def run_scenario(seed: int, mode: str, faults: bool) -> tuple[list, dict]:
    """One full seeded chaos run; returns (dispatch trace, counters).

    ``mode`` picks the delivery machinery: ``batched`` (the default
    columnar plane) or ``heap`` (wheel disabled outright — the
    pure-heap control, where every delivery is a classic entry).
    """
    net = Network(rand=DeterministicRandom(seed))
    if mode == "heap":
        net.loop.configure_wheel(None, 0)
    else:
        assert mode == "batched"
    rand = DeterministicRandom(f"batched-eq:{seed}")
    hosts = random_topology(rand.fork("topo"), net)
    if faults:
        FaultInjector(net).arm(random_plan(rand.fork("faults"), hosts, horizon=30.0))
    pump_random_traffic(rand.fork("traffic"), net, hosts, count=300, horizon=25.0)
    trace = OrderTrace()
    EventLoop.add_sink(trace)
    try:
        net.loop.run_until(40.0)
    finally:
        EventLoop.remove_sink(trace)
    assert_conserved(net)
    if mode == "batched":
        assert net.loop.wheel_batched > 0  # the columns actually carried traffic
    else:
        assert net.loop.wheel_scheduled == 0  # control run truly heap-only
        assert net.loop.wheel_batched == 0
        assert net.loop.wheel_batch_drains == 0
    counters = {
        "sent": net.datagrams_sent,
        "delivered": net.datagrams_delivered,
        "dropped": net.datagrams_dropped,
        "by_reason": dict(net.drops_by_reason),
        "events": net.loop.events_fired,
    }
    return trace.events, counters


class TestBatchedEquivalence:
    """Same seed, same plan => same dispatch order, batched or pure heap."""

    @pytest.mark.parametrize("seed", chaos_seeds(3, "batched-delivery"))
    @pytest.mark.parametrize("faults", [False, True], ids=["calm", "chaos-mix"])
    def test_dispatch_trace_is_bit_identical(self, seed, faults):
        batched_trace, batched_counts = run_scenario(seed, "batched", faults)
        heap_trace, heap_counts = run_scenario(seed, "heap", faults)
        assert batched_trace == heap_trace
        assert batched_counts == heap_counts
        assert len(batched_trace) == batched_counts["events"]

    @pytest.mark.parametrize("name", ["bandwidth", "chaos"])
    def test_experiment_digest_survives_batching_removal(self, name, monkeypatch):
        """The pinned seed-2024 digests do not depend on the batched plane."""
        params = registry.get(name).resolve_params(quick=True)
        batched = execute_spec(name, 2024, params)
        assert batched.record.ok, batched.record.error
        # Every Network tunes its loop's wheel at construction and on
        # each latency-knob change: route all of those to a disabled
        # wheel, so every delivery the experiment makes is a heap entry.
        loops = []

        def heap_only(self):
            self.loop.configure_wheel(None, 0)
            loops.append(self.loop)

        monkeypatch.setattr(Network, "_tune_wheel", heap_only)
        heap = execute_spec(name, 2024, params)
        assert heap.record.ok, heap.record.error
        assert loops and all(loop.wheel_batched == 0 for loop in loops)
        assert batched.record.result_digest == heap.record.result_digest


def one_host_net(**bind_kwargs):
    """A two-host network with one bound destination socket."""
    net = Network(rand=DeterministicRandom("batched-unit"), jitter=0.0)
    a = net.add_host("a", region="US")
    b = net.add_host("b", region="US")
    sock = b.bind_udp(TRAFFIC_PORT, **bind_kwargs)
    return net, a, b, sock


class TestDrainMechanics:
    def test_step_fires_exactly_one_batched_row(self):
        net, a, b, sock = one_host_net()
        for i in range(5):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        assert net.loop.pending == 5
        assert net.loop.step() is True
        assert net.datagrams_delivered == 1
        assert net.loop.pending == 4
        assert net.loop.events_fired == 1
        net.loop.run_all()
        assert [payload for payload, _ in sock.inbox] == [bytes([i]) for i in range(5)]

    def test_run_until_deadline_splits_a_batched_bucket(self):
        net, a, b, sock = one_host_net()
        # Same-region base latency is 20 ms (jitter 0): both land at a
        # deterministic `when`; a deadline between them fires only one.
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"early")
        net.loop.now = 0.005
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"late")
        net.loop.run_until(0.021)
        assert [p for p, _ in sock.inbox] == [b"early"]
        assert net.loop.pending == 1
        net.loop.run_until(0.03)
        assert [p for p, _ in sock.inbox] == [b"early", b"late"]

    def test_run_all_max_events_bound_is_exact_for_batched_rows(self):
        net, a, b, sock = one_host_net()
        for i in range(6):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        with pytest.raises(RuntimeError, match="exceeded 3 events"):
            net.loop.run_all(max_events=3)
        # Exactly 3 fired — the drain stopped mid-run, no 4th event.
        assert net.datagrams_delivered == 3
        assert net.loop.events_fired == 3
        assert net.loop.pending == 3
        net.loop.run_all()
        assert net.datagrams_delivered == 6

    def test_heap_event_interleaves_into_a_batched_run(self):
        """A heap timer due mid-run fires between two same-bucket rows."""
        net, a, b, sock = one_host_net()
        order = []
        sock.handler = lambda payload, src, s: order.append(payload)
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"first")
        # Repeating handles are heap-class by design, and `until` ends
        # the chain after its one due tick. Same `when` as both rows
        # (jitter is 0, base latency 20 ms), seq strictly between
        # theirs: the drain must stop mid-run to let it fire.
        net.loop.call_every(0.02, order.append, "timer", until=0.02)
        net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), b"second")
        net.loop.run_all()
        assert order == [b"first", "timer", b"second"]

    def test_pending_matches_queue_scan_with_column_residents(self):
        net, a, b, sock = one_host_net()
        for i in range(4):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        net.loop.schedule(5.0, lambda: None)  # far-future heap resident
        queued = list(net.loop._iter_queued())
        assert net.loop.pending == 5 == len(queued)
        # Column rows surface in the legacy 4-tuple vocabulary.
        fast = [e for e in queued if len(e) == 4]
        assert len(fast) == 4
        for entry in fast:
            assert entry[2] == net._deliver_cb
            assert entry[3][0] is b and entry[3][1] == TRAFFIC_PORT

    def test_configure_wheel_flushes_column_rows_order_intact(self):
        net, a, b, sock = one_host_net()
        for i in range(4):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        net.auto_retune = False
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
        net, a, b, sock = one_host_net()
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
        net.loop.run_all()
        assert got == [b"ping", b"after", b"pong"]
        assert_conserved(net)

    def test_wheel_stats_expose_batching_counters(self):
        net, a, b, sock = one_host_net()
        for i in range(3):
            net.send_datagram(a, TRAFFIC_PORT, Endpoint(b.ip, TRAFFIC_PORT), bytes([i]))
        net.loop.run_all()
        stats = net.loop.wheel_stats()
        assert stats["batched"] == 3
        assert stats["scheduled"] == 3  # batched appends still count as scheduled
        assert stats["batch_drains"] >= 1
        assert net.datagrams_delivered == 3
