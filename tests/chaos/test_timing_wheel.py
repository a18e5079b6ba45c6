"""Timing-wheel equivalence: the two-tier scheduler is order-invisible.

The wheel is a pure performance structure — dispatch merges it with the
heap by ``(when, seq)``, so a wheel-enabled loop must fire the *exact*
same event sequence as a pure-heap loop, seed for seed, fault plan for
fault plan. The property tests here run whole chaos scenarios twice
(wheel on / wheel off) and compare the full dispatch trace and every
network counter; the experiment-level test proves the pinned result
digests are reproduced with the wheel disabled outright. The wheel's
slots are the batched plane's column rings, so the same switch is the
oracle for ``Network._drain_cursor``'s batched delivery too:
``tests/chaos/test_batched_delivery.py`` runs this module's oracle
(``assert_heap_equivalent``, ``run_heap_only``) over its own scenario
stream and over an experiment that reaches the columns.

The wheel holds datagram deliveries only, and only from a loop deep
enough to fill it (the depth gate: ``2 * slots`` live entries). Each
scenario therefore adds a burst that carries the loop past the gate and
drains back below it, so one run crosses the gate both ways. The
boundary tests pin the wheel mechanics the property can miss — bucket
rollover across many laps, FIFO order at a bucket edge, far-future
overflow to the heap, the idle-wheel origin resync, a deadline inside a
bucket and mid-run geometry changes — with deliveries queued at exact
instants on a loop padded past the gate, plus the gate itself and the
rule that timers never go on the wheel.
"""

import pytest

import repro.experiments  # noqa: F401  - triggers @experiment registration
from repro.harness import registry
from repro.harness.runner import execute_spec
from repro.net.clock import EventLoop
from repro.net.faults import FaultInjector
from repro.net.network import Network, UdpSocket
from repro.util.rand import DeterministicRandom

from tests.chaos.gen import (
    BURST_DATAGRAMS,
    TRAFFIC_PORT,
    assert_conserved,
    cancel_all,
    chaos_seeds,
    pad_past_depth_gate,
    pump_random_traffic,
    push_delivery,
    random_plan,
    random_topology,
    schedule_burst,
)


class OrderTrace:
    """A sink recording the exact dispatch sequence, seq numbers included.

    Anonymous fast-path entries expose their ``(when, seq)`` directly;
    handle-based timers contribute ``when`` plus their kind. Two runs
    that schedule in the same order produce identical seq streams, so
    list equality is a bit-exact order comparison.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []

    def record(self, loop: EventLoop, handle) -> None:
        if type(handle) is tuple:
            self.events.append((handle[0], handle[1], "fast"))
        else:
            self.events.append((handle.when, None, type(handle).__name__))


def run_chaos_scenario(salt: str, seed: int, wheel: bool, faults: bool) -> tuple[list, dict]:
    """One full seeded chaos run; returns (dispatch trace, counters).

    ``salt`` names the generator stream the topology, fault plan and
    traffic are drawn from, so each test class keeps its own scenarios.
    """
    net = Network(rand=DeterministicRandom(seed))
    if not wheel:
        # Disable after construction: Network's own tuner sizes the
        # wheel, so a pure-heap control run must switch it off here.
        net.loop.configure_wheel(None, 0)
    rand = DeterministicRandom(f"{salt}:{seed}")
    hosts = random_topology(rand.fork("topo"), net)
    if faults:
        FaultInjector(net).arm(random_plan(rand.fork("faults"), hosts, horizon=30.0))
    pump_random_traffic(rand.fork("traffic"), net, hosts, count=300, horizon=25.0)
    schedule_burst(net, at=12.5)
    trace = OrderTrace()
    EventLoop.add_sink(trace)
    try:
        net.loop.run_until(40.0)
    finally:
        EventLoop.remove_sink(trace)
    assert_conserved(net)
    if wheel:
        # The burst's deep stretch used the wheel; the shallow rest of
        # the run, the burst's first 2 * slots datagrams included, did not.
        assert 0 < net.loop.wheel_batched < BURST_DATAGRAMS
    else:
        # The control run is truly heap-only: no column row, no drain.
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


def assert_heap_equivalent(salt: str, seed: int, faults: bool) -> None:
    """Run one scenario wheel on and wheel off: traces and counters match."""
    wheel_trace, wheel_counts = run_chaos_scenario(salt, seed, wheel=True, faults=faults)
    heap_trace, heap_counts = run_chaos_scenario(salt, seed, wheel=False, faults=faults)
    assert wheel_trace == heap_trace
    assert wheel_counts == heap_counts
    assert len(wheel_trace) == wheel_counts["events"]


def run_heap_only(name: str, params: dict, monkeypatch):
    """Run one experiment at seed 2024 with every network's wheel disabled.

    Every Network sizes its wheel through ``_tune_wheel``, at
    construction and on each latency-knob change: switch all of them
    off, so every delivery the experiment makes is a heap entry.
    """
    loops = []

    def heap_only(self):
        self.loop.configure_wheel(None, 0)
        loops.append(self.loop)

    monkeypatch.setattr(Network, "_tune_wheel", heap_only)
    run = execute_spec(name, 2024, params)
    assert run.record.ok, run.record.error
    assert loops and all(loop.wheel_batched == 0 for loop in loops)
    return run


class TestWheelHeapEquivalence:
    """Same seed, same plan => same dispatch order, wheel on or off."""

    @pytest.mark.parametrize("seed", chaos_seeds(3, "timing-wheel"))
    @pytest.mark.parametrize("faults", [False, True], ids=["calm", "chaos-mix"])
    def test_dispatch_trace_is_bit_identical(self, seed, faults):
        assert_heap_equivalent("wheel-eq", seed, faults)

    @pytest.mark.parametrize("name", ["bandwidth", "chaos"])
    def test_experiment_digest_survives_wheel_removal(self, name, monkeypatch):
        """The pinned digests do not depend on the wheel existing at all."""
        params = registry.get(name).resolve_params(quick=True)
        with_wheel = execute_spec(name, 2024, params)
        assert with_wheel.record.ok, with_wheel.record.error
        without_wheel = run_heap_only(name, params, monkeypatch)
        assert with_wheel.record.result_digest == without_wheel.record.result_digest


def wheel_net() -> tuple[Network, UdpSocket, list]:
    """A network on an 8-slot, 10 ms wheel (80 ms horizon), padded past the
    depth gate, with one handlerless socket to queue deliveries to."""
    net = Network(rand=DeterministicRandom("wheel-unit"), jitter=0.0)
    net.loop.configure_wheel(0.01, 8)
    sock = net.add_host("b").bind_udp(TRAFFIC_PORT)
    return net, sock, pad_past_depth_gate(net.loop)


def inbox(sock: UdpSocket) -> list[bytes]:
    return [payload for payload, _ in sock.inbox]


class TestBucketBoundaries:
    def test_rollover_across_many_laps(self):
        """A self-requeueing delivery chain walks 25 laps of an 8-slot wheel."""
        net, sock, pads = wheel_net()
        loop = net.loop
        fired = []

        def chain(payload, src, s):
            i = payload[0]
            fired.append((i, loop.now))
            if i < 40:
                push_delivery(net, sock, loop.now + 0.05, bytes([i + 1]))

        sock.handler = chain
        push_delivery(net, sock, 0.05, bytes([1]))
        loop.run_until(10.0)
        assert [i for i, _ in fired] == list(range(1, 41))
        for i, when in fired:
            assert when == pytest.approx(0.05 * i)
        assert loop.wheel_batched == 40
        assert loop.wheel_overflow == 0
        cancel_all(pads)
        assert loop.pending == 0
        assert_conserved(net)

    def test_exact_bucket_edge_keeps_seq_order(self):
        """Deliveries landing exactly on a bucket edge stay FIFO by seq."""
        net, sock, pads = wheel_net()
        push_delivery(net, sock, 0.02, b"a")
        push_delivery(net, sock, 0.02, b"b")
        push_delivery(net, sock, 0.01, b"c")
        assert net.loop.wheel_batched == 3
        cancel_all(pads)
        net.loop.run_all()
        assert inbox(sock) == [b"c", b"a", b"b"]

    def test_far_future_overflows_to_heap(self):
        net, sock, pads = wheel_net()
        loop = net.loop
        push_delivery(net, sock, 1.0, b"far")
        push_delivery(net, sock, 0.03, b"near")
        assert loop.wheel_overflow == 1
        assert loop.wheel_batched == 1
        assert loop.pending == 2 + len(pads)
        cancel_all(pads)
        loop.run_all()
        assert inbox(sock) == [b"near", b"far"]
        assert loop.pending == 0
        assert loop.now == 1.0

    def test_idle_wheel_resyncs_origin_to_now(self):
        """Heap-only progress far past the horizon drags the origin along."""
        net, sock, pads = wheel_net()
        loop = net.loop
        push_delivery(net, sock, 1.0, b"early")  # way out of band: heap
        assert loop.wheel_overflow == 1
        loop.run_until(1.0)
        assert loop.now == 1.0
        push_delivery(net, sock, 1.03, b"late")  # in-band again, relative to now
        assert loop.wheel_batched == 1  # resync re-opened the wheel window
        assert loop.wheel_overflow == 1
        cancel_all(pads)
        loop.run_all()
        assert inbox(sock) == [b"early", b"late"]
        assert loop.now == pytest.approx(1.03)

    def test_run_until_leaves_later_bucket_entries_queued(self):
        """A deadline mid-bucket fires only the due half of the bucket."""
        net, sock, pads = wheel_net()
        loop = net.loop
        push_delivery(net, sock, 0.011, b"early")
        push_delivery(net, sock, 0.019, b"late")  # same bucket
        assert loop.wheel_batched == 2
        loop.run_until(0.015)
        assert inbox(sock) == [b"early"]
        assert loop.pending == 1 + len(pads)
        loop.run_until(0.02)
        assert inbox(sock) == [b"early", b"late"]

    def test_configure_wheel_mid_run_preserves_order(self):
        net, sock, pads = wheel_net()
        loop = net.loop
        fired = []
        sock.handler = lambda payload, src, s: fired.append(loop.now)
        for when in (0.011, 0.034, 0.052):
            push_delivery(net, sock, when)
        loop.configure_wheel(0.002, 16)  # flushes residents to the heap
        pads += pad_past_depth_gate(loop)  # the gate grew with the wheel
        for when in (0.005, 0.04):
            push_delivery(net, sock, when)
        assert loop.wheel_occupancy == 1  # 0.04 lies past the 32 ms horizon
        cancel_all(pads)
        loop.run_all()
        assert fired == [0.005, 0.011, 0.034, 0.04, 0.052]
        assert loop.pending == 0
        assert_conserved(net)


class TestDepthGate:
    """The wheel takes deliveries only from a loop holding ``2 * slots``."""

    def test_shallow_loop_puts_nothing_on_the_wheel(self):
        net = Network(rand=DeterministicRandom("shallow"), jitter=0.0)
        loop = net.loop
        a = net.add_host("a", region="US")
        b = net.add_host("b", region="US")
        sock = b.bind_udp(TRAFFIC_PORT)
        for i in range(loop._wheel_slots - 1):
            net.send_datagram(a, TRAFFIC_PORT, sock.endpoint, bytes([i % 256]))
            loop.schedule(0.01, lambda: None)
        # Out-of-band timers, which a deep loop would count as overflow.
        loop.schedule(60.0, lambda: None)
        loop.schedule(120.0, lambda: None)
        assert loop.pending == 2 * loop._wheel_slots  # at the gate, not past it
        loop.run_all()
        assert loop.wheel_stats() == {
            "slots": loop._wheel_slots,
            "bucket_width": loop._wheel_width,
            "overflow": 0,
            "occupancy": 0,
            "batched": 0,
            "batch_drains": 0,
        }
        assert net.datagrams_delivered == loop._wheel_slots - 1

    def test_gate_opens_past_two_slots_and_closes_below(self):
        net = Network(rand=DeterministicRandom("gate"), jitter=0.0)
        loop = net.loop
        loop.configure_wheel(0.01, 8)
        sock = net.add_host("b").bind_udp(TRAFFIC_PORT)
        handles = [loop.schedule_at(0.05, lambda: None) for _ in range(15)]
        push_delivery(net, sock, 0.05, b"at-gate")  # the 16th live entry
        assert loop.wheel_batched == 0 and loop.wheel_overflow == 0
        push_delivery(net, sock, 0.05, b"past-gate")  # the 17th
        assert loop.wheel_batched == 1
        cancel_all(handles)  # back below the gate
        push_delivery(net, sock, 0.05, b"below-gate")
        assert loop.wheel_batched == 1
        assert loop.wheel_overflow == 0
        loop.run_all()
        assert inbox(sock) == [b"at-gate", b"past-gate", b"below-gate"]
        assert loop.events_fired == 3

    def test_timers_never_go_on_the_wheel(self):
        """Past the gate, an in-band timer still goes on the heap."""
        loop = EventLoop()
        loop.configure_wheel(0.01, 8)
        pads = pad_past_depth_gate(loop)
        fired = []
        victim = loop.schedule(0.01, fired.append, "victim")
        loop.schedule(0.02, fired.append, "keeper")
        assert loop.wheel_occupancy == 0
        assert loop.wheel_overflow == 0
        victim.cancel()
        assert loop.pending == 1 + len(pads)
        cancel_all(pads)
        loop.run_all()
        assert fired == ["keeper"]
        assert loop.pending == 0
