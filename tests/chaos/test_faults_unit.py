"""Unit tests for the fault-injection primitives (plans, events, presets)."""

import json

import pytest

from repro.net.clock import EventLoop
from repro.net.faults import (
    CLEAR,
    Degrade,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    HostCrash,
    LinkConditions,
    LinkFlap,
    NatRebind,
    Partition,
    PLAN_PRESETS,
    RandomFaultPlanner,
    ServiceOutage,
    load_plan,
)
from repro.net.network import Network
from repro.util.errors import ConfigurationError
from repro.util.rand import DeterministicRandom

from tests.chaos.gen import chaos_rand, chaos_seeds


class TestLinkConditions:
    def test_losses_compose_as_independent_trials(self):
        stacked = LinkConditions(loss=0.5).stacked(LinkConditions(loss=0.5))
        assert stacked.loss == pytest.approx(0.75)

    def test_latencies_add_and_narrower_bandwidth_wins(self):
        a = LinkConditions(extra_latency=0.1, bandwidth_bytes_per_sec=50_000)
        b = LinkConditions(extra_latency=0.2, bandwidth_bytes_per_sec=20_000)
        stacked = a.stacked(b)
        assert stacked.extra_latency == pytest.approx(0.3)
        assert stacked.bandwidth_bytes_per_sec == 20_000

    def test_bandwidth_none_means_unconstrained(self):
        assert LinkConditions().stacked(LinkConditions()).bandwidth_bytes_per_sec is None
        one_sided = LinkConditions(bandwidth_bytes_per_sec=9_000).stacked(LinkConditions())
        assert one_sided.bandwidth_bytes_per_sec == 9_000

    def test_blocked_from_either_side_blocks(self):
        assert LinkConditions(blocked=True).stacked(CLEAR).blocked
        assert CLEAR.stacked(LinkConditions(blocked=True)).blocked
        assert not CLEAR.stacked(CLEAR).blocked

    def test_clear_is_identity_for_stacking(self):
        conditions = LinkConditions(loss=0.3, extra_latency=0.05,
                                    bandwidth_bytes_per_sec=1_000)
        assert conditions.stacked(CLEAR) == conditions

    def test_round_trip(self):
        conditions = LinkConditions(loss=0.25, extra_latency=0.1,
                                    bandwidth_bytes_per_sec=4_096, blocked=False)
        assert LinkConditions.from_dict(conditions.to_dict()) == conditions


class TestFaultEvents:
    EXAMPLES = [
        LinkFlap(at=1.0, a="a", b="b", duration=2.0),
        Degrade(at=2.0, a="a", b="b", duration=3.0,
                conditions=LinkConditions(loss=0.5)),
        Degrade(at=2.5, a="a", b=None, duration=1.0,
                conditions=LinkConditions(extra_latency=0.2)),
        HostCrash(at=3.0, host="a", down_for=5.0),
        HostCrash(at=3.5, host="b", down_for=None),
        NatRebind(at=4.0, host="a"),
        Partition(at=5.0, region_a="US", region_b="DE", duration=6.0),
        ServiceOutage(at=6.0, hostname="cdn.test", duration=2.0),
    ]

    @pytest.mark.parametrize("event", EXAMPLES, ids=lambda e: e.kind)
    def test_every_kind_round_trips(self, event):
        rebuilt = FaultEvent.from_dict(event.to_dict())
        assert rebuilt == event
        assert rebuilt.kind == event.kind

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault kind"):
            FaultEvent.from_dict({"kind": "meteor_strike", "at": 1.0})


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan((HostCrash(at=9.0, host="b"), HostCrash(at=1.0, host="a")))
        assert [e.at for e in plan.events] == [1.0, 9.0]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="in the past"):
            FaultPlan((HostCrash(at=-1.0, host="a"),))

    def test_json_round_trip_preserves_digest(self):
        plan = FaultPlan(tuple(TestFaultEvents.EXAMPLES), name="example")
        rebuilt = FaultPlan.from_json(plan.to_json())
        assert rebuilt == plan
        assert rebuilt.digest() == plan.digest()

    def test_digest_independent_of_authoring_order(self):
        a, b = HostCrash(at=1.0, host="a"), HostCrash(at=2.0, host="b")
        assert FaultPlan((a, b)).digest() == FaultPlan((b, a)).digest()

    def test_digest_sensitive_to_content(self):
        base = FaultPlan((HostCrash(at=1.0, host="a"),))
        other = FaultPlan((HostCrash(at=1.0, host="b"),))
        assert base.digest() != other.digest()

    def test_len(self):
        assert len(FaultPlan(())) == 0
        assert len(FaultPlan((NatRebind(at=0.0, host="x"),))) == 1


class TestRandomFaultPlanner:
    @pytest.mark.parametrize("seed", chaos_seeds(3, "planner-determinism"))
    def test_same_seed_same_plan(self, seed):
        hosts = ["v0", "v1", "v2", "v3"]
        one = RandomFaultPlanner(DeterministicRandom(seed)).chaos_mix(
            hosts, 60.0, regions=("US", "DE"), hostnames=("cdn.test",)
        )
        two = RandomFaultPlanner(DeterministicRandom(seed)).chaos_mix(
            hosts, 60.0, regions=("US", "DE"), hostnames=("cdn.test",)
        )
        assert one.digest() == two.digest()

    def test_different_seeds_differ(self):
        hosts = ["v0", "v1", "v2", "v3"]
        digests = {
            RandomFaultPlanner(DeterministicRandom(seed)).chaos_mix(hosts, 60.0).digest()
            for seed in range(5)
        }
        assert len(digests) > 1

    def test_every_event_inside_horizon(self):
        rand = chaos_rand("planner-horizon")
        plan = RandomFaultPlanner(rand).chaos_mix(
            ["a", "b", "c"], 40.0, regions=("US", "DE"), hostnames=("cdn.x",)
        )
        assert all(0.0 <= e.at <= 40.0 for e in plan.events)


class TestLoadPlan:
    def _planner(self):
        return RandomFaultPlanner(chaos_rand("load-plan"))

    def test_every_preset_resolves(self):
        for name in PLAN_PRESETS:
            plan = load_plan(name, planner=self._planner(), hosts=["a", "b"],
                             horizon=30.0, regions=("US", "DE"), hostnames=("cdn.x",))
            assert plan.name == name

    def test_calm_preset_is_empty(self):
        plan = load_plan("calm", planner=self._planner(), hosts=["a"], horizon=10.0)
        assert len(plan) == 0

    def test_json_file_loads_with_stem_name(self, tmp_path):
        plan = FaultPlan((HostCrash(at=1.0, host="a", down_for=2.0),))
        path = tmp_path / "my-chaos.json"
        path.write_text(plan.to_json())
        loaded = load_plan(str(path))
        assert loaded.name == "my-chaos"
        assert loaded.events == plan.events

    def test_json_file_keeps_explicit_name(self, tmp_path):
        plan = FaultPlan((NatRebind(at=0.5, host="x"),), name="named")
        path = tmp_path / "whatever.json"
        path.write_text(plan.to_json())
        assert load_plan(str(path)).name == "named"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault plan"):
            load_plan("nope", planner=self._planner())

    def test_preset_without_planner_rejected(self):
        with pytest.raises(ConfigurationError, match="needs a seeded planner"):
            load_plan("churn")


class TestFaultInjector:
    def _network(self):
        loop = EventLoop()
        return Network(loop, rand=DeterministicRandom(7))

    def test_double_install_rejected(self):
        network = self._network()
        FaultInjector(network)
        with pytest.raises(ConfigurationError, match="already has a fault injector"):
            FaultInjector(network)

    def test_host_crash_marks_host_down_then_up(self):
        network = self._network()
        host = network.add_host("a", region="US")
        injector = FaultInjector(network)
        injector.arm(FaultPlan((HostCrash(at=1.0, host="a", down_for=2.0),)))
        network.loop.run(1.5)
        assert injector.host_is_down(host)
        network.loop.run(2.0)
        assert not injector.host_is_down(host)
        assert [n.kind for n in injector.log] == ["host_down", "host_up"]

    def test_overlapping_degrades_stack(self):
        network = self._network()
        a = network.add_host("a", region="US")
        b = network.add_host("b", region="US")
        injector = FaultInjector(network)
        injector.arm(FaultPlan((
            Degrade(at=0.0, a="a", b="b", duration=10.0,
                    conditions=LinkConditions(loss=0.5)),
            Degrade(at=1.0, a="a", b=None, duration=10.0,
                    conditions=LinkConditions(loss=0.5)),
        )))
        network.loop.run(2.0)
        conditions = injector.conditions_for(a, b)
        assert conditions is not None
        assert conditions.loss == pytest.approx(0.75)

    def test_conditions_clear_after_heal(self):
        network = self._network()
        a = network.add_host("a", region="US")
        b = network.add_host("b", region="US")
        injector = FaultInjector(network)
        injector.arm(FaultPlan((LinkFlap(at=0.0, a="a", b="b", duration=1.0),)))
        network.loop.run(0.5)
        assert injector.conditions_for(a, b).blocked
        network.loop.run(1.0)
        assert injector.conditions_for(a, b) is None

    def test_partition_blocks_only_cross_region(self):
        network = self._network()
        us_a = network.add_host("us-a", region="US")
        us_b = network.add_host("us-b", region="US")
        de = network.add_host("de", region="DE")
        injector = FaultInjector(network)
        injector.arm(FaultPlan((Partition(at=0.0, region_a="US", region_b="DE",
                                          duration=5.0),)))
        network.loop.run(1.0)
        assert injector.conditions_for(us_a, de).blocked
        assert injector.conditions_for(us_a, us_b) is None

    def test_throttle_serialises_consecutive_sends(self):
        network = self._network()
        a = network.add_host("a", region="US")
        b = network.add_host("b", region="US")
        injector = FaultInjector(network)
        conditions = LinkConditions(bandwidth_bytes_per_sec=1_000)
        first = injector.link_queue_delay(a, b, 1_000, conditions, network.loop.now)
        second = injector.link_queue_delay(a, b, 1_000, conditions, network.loop.now)
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)  # queued behind the first

    def test_listener_sees_every_notice(self):
        network = self._network()
        network.add_host("a", region="US")
        injector = FaultInjector(network)
        seen = []
        injector.add_listener(seen.append)
        injector.arm(FaultPlan((HostCrash(at=0.5, host="a", down_for=1.0),)))
        network.loop.run(2.0)
        assert [n.kind for n in seen] == ["host_down", "host_up"]
        assert seen == injector.log

    def test_unknown_host_crash_skipped_not_fatal(self):
        network = self._network()
        injector = FaultInjector(network)
        injector.arm(FaultPlan((HostCrash(at=0.1, host="ghost"),)))
        network.loop.run(1.0)
        assert [n.kind for n in injector.log] == ["skipped"]
        assert injector.events_applied == 1


class TestHttpInterception:
    def test_outage_returns_503_then_heals(self):
        from repro.environment import Environment

        env = Environment(seed=5)
        server = env.add_server_host("web.test")

        class Echo:
            def handle_request(self, request):
                from repro.streaming.http import HttpResponse
                return HttpResponse(200, b"ok")

        env.urlspace.register("web.test", Echo())
        client = env.http_client(server)
        injector = env.inject_faults(
            FaultPlan((ServiceOutage(at=0.0, hostname="web.test", duration=5.0),))
        )
        env.run(1.0)
        assert client.get("https://web.test/").status == 503
        env.run(10.0)
        assert client.get("https://web.test/").status == 200
        assert [n.kind for n in injector.log] == ["outage", "outage_healed"]

    def test_crashed_client_gets_503(self):
        from repro.environment import Environment

        env = Environment(seed=6)
        viewer = env.add_viewer_host("viewer-x")
        server = env.add_server_host("web.test")

        class Echo:
            def handle_request(self, request):
                from repro.streaming.http import HttpResponse
                return HttpResponse(200, b"ok")

        env.urlspace.register("web.test", Echo())
        env.inject_faults(FaultPlan((HostCrash(at=0.0, host="viewer-x", down_for=5.0),)))
        env.run(1.0)
        assert env.http_client(viewer).get("https://web.test/").status == 503
        assert env.http_client(server).get("https://web.test/").status == 200
        env.run(10.0)
        assert env.http_client(viewer).get("https://web.test/").status == 200


class TestCrashClearsUplinkBacklog:
    """Regression: a crash clears the host's queued-uplink backlog.

    ``Host._uplink_busy_until`` used to survive a HostCrash, so a host
    that died with a deep send queue and rejoined would serialise its
    first post-rejoin datagram behind phantom pre-crash traffic.
    """

    def test_rejoined_host_does_not_inherit_queued_uplink(self):
        from repro.net import Endpoint

        loop = EventLoop()
        net = Network(loop, rand=DeterministicRandom(7), jitter=0.0)
        sender = net.add_host("s", uplink_bytes_per_sec=1000.0)
        receiver = net.add_host("r")
        times = []
        receiver.bind_udp(2000, lambda d, src, sock: times.append(loop.now))
        sock = sender.bind_udp(1000)
        injector = FaultInjector(net)
        # 10 x 1000B at 1000 B/s: ~10 simulated seconds of uplink backlog.
        for _ in range(10):
            sock.send(Endpoint(receiver.ip, 2000), b"x" * 1000)
        assert sender._uplink_busy_until >= 9.0
        injector.arm(FaultPlan(events=[HostCrash(at=0.5, host="s", down_for=1.0)]))
        loop.run(2.0)  # crash at 0.5, rejoin at 1.5
        assert not injector.host_is_down(sender)
        assert sender._uplink_busy_until == 0.0

        times.clear()
        t0 = loop.now
        sock.send(Endpoint(receiver.ip, 2000), b"y" * 10)
        loop.run(1.0)
        # Without the reset this delivery queues ~8s behind dead traffic.
        assert times and times[0] - t0 < 0.5

    def test_crash_while_idle_is_a_no_op_for_uplink(self):
        loop = EventLoop()
        net = Network(loop, rand=DeterministicRandom(7), jitter=0.0)
        host = net.add_host("h", uplink_bytes_per_sec=1000.0)
        injector = FaultInjector(net)
        injector.arm(FaultPlan(events=[HostCrash(at=0.1, host="h", down_for=0.5)]))
        loop.run(1.0)
        assert host._uplink_busy_until == 0.0
