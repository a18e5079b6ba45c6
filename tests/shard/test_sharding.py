"""Sharded-simulation correctness: the worker-count-invariance oracle.

The whole design of :mod:`repro.net.shard` reduces to one testable
claim: the digest of a :class:`SwarmWorkload` run is a function of the
workload alone, never of how many shards computed it or whether they
shared an address space. These tests pin that claim at seed 2024 across
calm and chaos-mix plans, with the shards in forked workers and in
this process, and at the protocol's edges — arrivals landing exactly on
a window barrier, hosts crashing with cross-shard traffic in flight,
and workers that raise, die or stop replying.
"""

import gc
import multiprocessing
import os
import signal
import time
from array import array

import pytest

from repro.harness.profile import capture_events
from repro.net import shard as shard_module
from repro.net.faults import FaultPlan, HostCrash
from repro.net.network import Host, RemoteHostRef, ShardNetwork
from repro.net.shard import (
    DEFAULT_REGIONS,
    ShardWorker,
    SwarmWorkload,
    build_fault_plan,
    run_workload,
    shard_of,
)
from repro.util.errors import ConfigurationError, ShardWorkerError
from repro.util.rand import DeterministicRandom

#: Small enough to keep the whole module fast, big enough that every
#: region sends, receives, and exchanges cross-shard traffic.
SMALL = dict(viewers=400, datagrams=2_000, seed=2024)


def run_at(workers: int, **overrides):
    params = dict(SMALL)
    params.update(overrides)
    return run_workload(SwarmWorkload(**params), workers)


class TestDigestInvariance:
    """Shards 1 vs 2 vs 4 must agree bit-for-bit at seed 2024."""

    @pytest.mark.parametrize("faults", ["calm", "chaos-mix"])
    def test_worker_ladder_same_digest(self, faults):
        reports = [run_at(workers, faults=faults) for workers in (1, 2, 4)]
        digests = {report.digest for report in reports}
        assert len(digests) == 1
        for report in reports:
            assert report.conservation_ok
            assert report.totals["sent"] == SMALL["datagrams"]
        if faults == "calm":
            # Every shard applies the whole fault plan, so only a calm
            # run fires the same number of events at any worker count.
            assert len({report.events_fired for report in reports}) == 1

    def test_chaos_actually_dropped_something(self):
        report = run_at(2, faults="chaos-mix")
        assert report.totals["dropped"] > 0
        assert set(report.drops_by_reason) & {"host_down", "link_down", "fault_loss"}

    def test_flash_crowd_invariant_and_distinct(self):
        flash = [run_at(workers, arrivals="flash-crowd") for workers in (1, 2, 4)]
        assert len({report.digest for report in flash}) == 1
        assert flash[0].digest != run_at(1).digest

    def test_seed_changes_digest(self):
        assert run_at(2).digest != run_at(2, seed=2025).digest

    @pytest.mark.parametrize("faults", ["calm", "chaos-mix"])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_mode_matches_inline(self, workers, faults):
        workload = SwarmWorkload(**SMALL, faults=faults)
        forked = run_workload(workload, workers)
        # An armed observer keeps the shards in this process.
        with capture_events(lambda loop, entry: None):
            inline = run_workload(workload, workers)
        assert inline.mode == "inline" and forked.mode == "process"
        assert forked.digest == inline.digest
        assert forked.totals == inline.totals
        assert forked.events_fired == inline.events_fired

    def test_single_worker_auto_inline(self):
        report = run_at(1)
        assert report.mode == "inline"
        assert report.workers == 1

    def test_workers_clamp_to_region_count(self):
        report = run_at(16)
        assert report.workers == len(DEFAULT_REGIONS)


class TestWindowEdges:
    """The lookahead barrier is exact: arrivals may land *on* it."""

    def test_injection_on_the_barrier_is_legal(self):
        net = ShardNetwork(0, 2, DEFAULT_REGIONS, rand=DeterministicRandom(7))
        loop = net.loop
        fired = []
        net.add_indexed_host(0).bind_udp(4000, handler=lambda *_: fired.append(loop.now))
        loop.run_until(0.116)
        assert loop.now == 0.116
        cols = (array("d", [0.116]), array("q", [0]), array("q", [1]))  # exactly at the barrier
        assert net.inject_batches([cols]) == 1
        assert fired == []  # delivered in the next window, not this one
        loop.run_until(0.232)
        assert fired == [0.116]
        assert loop.now == 0.232

    def test_injection_into_the_past_is_a_protocol_violation(self):
        # The stale row sits in the second source batch: the check runs
        # on the earliest row after the merge sort, and rejects the
        # whole injection before anything is enqueued.
        net = ShardNetwork(0, 2, DEFAULT_REGIONS, rand=DeterministicRandom(7))
        net.add_indexed_host(0).bind_udp(4000)
        net.loop.run_until(0.116)
        on_time = (array("d", [0.2]), array("q", [0]), array("q", [1]))
        stale = (array("d", [0.1]), array("q", [0]), array("q", [3]))
        with pytest.raises(ConfigurationError, match="window protocol"):
            net.inject_batches([on_time, stale])
        assert net.loop.pending == 0
        assert net.datagrams_in_flight == 0

    def test_stale_batch_rejected_by_inject_batches(self):
        net = ShardNetwork(0, 2, DEFAULT_REGIONS, rand=DeterministicRandom(7))
        net.add_indexed_host(0).bind_udp(4000)
        net.loop.run_until(1.0)
        cols = (array("d", [0.5]), array("q", [0]), array("q", [1]))
        with pytest.raises(ConfigurationError, match="window protocol"):
            net.inject_batches([cols])

    def test_cross_shard_send_lands_in_egress_not_wheel(self):
        net = ShardNetwork(0, 2, DEFAULT_REGIONS, rand=DeterministicRandom(7))
        net.add_indexed_host(0).bind_udp(4000)
        # Viewer 1 lives in region index 1 -> shard 1: remote from shard 0.
        assert shard_of(1, len(DEFAULT_REGIONS), 2) == 1
        net.send_indexed(0, 1, 0.5, 0.9, net.loop.now)
        assert net.egress_sent == 1
        assert net.datagrams_sent == 1
        assert net.datagrams_in_flight == 0  # receiver-side accounting
        flushed = net.flush_egress()
        assert list(flushed) == [1] and len(flushed[1][0]) == 1
        assert net.flush_egress() == {}  # drained


class TestCrashWithInFlightTraffic:
    """A host crash while cross-shard datagrams are in flight."""

    @pytest.fixture(scope="class")
    def plan_path(self, tmp_path_factory):
        plan = FaultPlan(
            events=(HostCrash(at=5.0, host="v1"),), name="crash-v1"
        )
        path = tmp_path_factory.mktemp("plans") / "crash.json"
        path.write_text(plan.to_json())
        return str(path)

    def test_digest_invariant_and_drops_counted(self, plan_path):
        # Low locality maximises cross-shard traffic around the crash.
        reports = [
            run_at(workers, faults=plan_path, locality=0.5)
            for workers in (1, 2, 4)
        ]
        assert len({report.digest for report in reports}) == 1
        for report in reports:
            assert report.conservation_ok
            assert report.drops_by_reason.get("host_down", 0) >= 1

    def test_viewer_names_resolve_across_shards(self):
        net = ShardNetwork(0, 2, DEFAULT_REGIONS, rand=DeterministicRandom(7))
        local = net.add_indexed_host(0)
        seeder = net.add_host("seeder", ip="9.9.9.9")
        assert isinstance(local, Host) and net.host_by_name("v0") is local
        # Viewer 1 lives on shard 1: a stand-in the fault layer can mark down.
        remote = net.host_by_name("v1")
        assert isinstance(remote, RemoteHostRef)
        assert (remote.name, remote.ip) == ("v1", net.indexed_ip(1))
        assert net.host_by_name("v1") is remote
        # Any other name is found by scanning the shard's own hosts.
        assert net.host_by_name("seeder") is seeder
        assert net.host_by_name("vip") is None

    def test_every_shard_applies_the_whole_plan(self, plan_path):
        report = run_at(4, faults=plan_path, locality=0.5)
        applied = [shard["fault_events_applied"] for shard in report.per_shard]
        assert applied == [1, 1, 1, 1]


class TestWindowReplay:
    """Sends replay from the program, cut at every fault change."""

    def test_send_at_a_fault_instant_goes_after_the_fault(self, tmp_path):
        plan = FaultPlan(events=(HostCrash(at=5.0, host="v0"),), name="crash-v0")
        path = tmp_path / "crash.json"
        path.write_text(plan.to_json())
        worker = ShardWorker(SwarmWorkload(viewers=4, datagrams=0, faults=str(path)), 0, 1)
        # Two hand-made rows from v0 to v1: one just before the crash
        # instant, one exactly on it.
        program = worker.program
        program.when.extend([5.0 - 1e-9, 5.0])
        program.src.extend([0, 0])
        program.dst.extend([1, 1])
        program.u_latency.extend([0.5, 0.5])
        program.u_fault.extend([0.5, 0.5])
        barrier = 0.0
        while worker.pending:
            barrier += worker.workload.lookahead
            worker.run_window(barrier)
        stats = worker.stats()
        assert stats["sent"] == 2
        assert stats["delivered"] == 1  # sent before the crash, to a live host
        assert stats["drops_by_reason"] == {"host_down": 1}  # sent after it
        assert worker.loop.events_fired == 2  # the crash and one delivery

    def test_pending_counts_unsent_rows(self):
        worker = ShardWorker(SwarmWorkload(**SMALL), 0, 1)
        assert worker.loop.pending == 0
        assert worker.pending == SMALL["datagrams"]
        worker.run_window(10.0)
        assert 0 < worker.pending < SMALL["datagrams"]


class TestShardBuild:
    """Building a shard leaves the collector and the sockets as it found them."""

    @staticmethod
    def _count_collections(build) -> list[int]:
        """Collections per generation while ``build()`` runs."""
        counts = [0, 0, 0]

        def count(phase, info):
            if phase == "stop":
                counts[info["generation"]] += 1

        gc.collect()
        gc.callbacks.append(count)
        try:
            build()
        finally:
            gc.callbacks.remove(count)
        return counts

    def test_host_directory_costs_one_full_collection(self):
        # The directory is ~8 tracked objects per host: a collector left
        # running during the build walks it ~230 times at this size.
        workload = SwarmWorkload(viewers=20_000, datagrams=20_000)
        assert gc.isenabled()
        young, middle, full = self._count_collections(lambda: ShardWorker(workload, 0, 1))
        assert young + middle < 10
        assert full == 1  # the build's own promotion pass
        assert gc.isenabled()

    def test_a_disabled_collector_stays_off_and_idle(self):
        workload = SwarmWorkload(viewers=2_000, datagrams=2_000)
        gc.disable()
        try:
            counts = self._count_collections(lambda: ShardWorker(workload, 0, 1))
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert counts == [0, 0, 0]

    def test_swarm_sockets_queue_nothing(self):
        worker = ShardWorker(SwarmWorkload(**SMALL), 0, 1)
        barrier = 0.0
        while worker.pending:
            barrier += worker.workload.lookahead
            worker.run_window(barrier)
        sockets = [host.sockets[worker.workload.port]
                   for host in worker.net._local_index.values()]
        assert len(sockets) == SMALL["viewers"]
        assert all(sock.inbox == [] for sock in sockets)
        delivered = worker.stats()["delivered"]
        assert delivered > 0
        assert sum(sock.bytes_received for sock in sockets) == (
            delivered * worker.workload.payload_bytes)


class TestWorkerFailures:
    """A failed worker process is named, and no worker outlives the run."""

    def test_raising_window_names_shard_window_and_traceback(self, monkeypatch):
        real = ShardWorker.run_window

        def failing(self, barrier):
            if self.shard_id == 1 and barrier > 0.3:
                raise ValueError("injected window failure")
            return real(self, barrier)

        monkeypatch.setattr(ShardWorker, "run_window", failing)
        with pytest.raises(ShardWorkerError) as caught:
            run_workload(SwarmWorkload(**SMALL), 2)
        error = caught.value
        assert (error.shard, error.window) == (1, 3)
        assert error.barrier == pytest.approx(3 * SwarmWorkload(**SMALL).lookahead)
        message = str(error)
        assert "shard worker 1 failed in window 3" in message
        assert "Traceback (most recent call last)" in message
        assert "ValueError: injected window failure" in message
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_reported_with_its_exit_code(self, monkeypatch):
        real = ShardWorker.run_window

        def killed(self, barrier):
            if self.shard_id == 0 and barrier > 0.2:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(self, barrier)

        monkeypatch.setattr(ShardWorker, "run_window", killed)
        with pytest.raises(ShardWorkerError) as caught:
            run_workload(SwarmWorkload(**SMALL), 2)
        error = caught.value
        assert (error.shard, error.window) == (0, 2)
        assert f"exited with code {-signal.SIGKILL} without replying" in str(error)
        assert multiprocessing.active_children() == []

    def test_hung_worker_is_terminated_at_the_reply_deadline(self, monkeypatch):
        real = ShardWorker.run_window

        def hung(self, barrier):
            if self.shard_id == 1 and barrier > 0.3:
                time.sleep(600)
            return real(self, barrier)

        monkeypatch.setattr(ShardWorker, "run_window", hung)
        monkeypatch.setattr(shard_module, "_reply_timeout", lambda workload, workers: 1.0)
        started = time.monotonic()
        with pytest.raises(ShardWorkerError) as caught:
            run_workload(SwarmWorkload(**SMALL), 2)
        assert time.monotonic() - started < 10
        error = caught.value
        assert (error.shard, error.window) == (1, 3)
        assert error.barrier == pytest.approx(3 * SwarmWorkload(**SMALL).lookahead)
        assert "no reply within 1 s" in str(error)
        assert multiprocessing.active_children() == []


class TestShardStats:
    """Per-shard diagnostics and their cross-shard aggregation."""

    def test_egress_matches_injection_globally(self):
        report = run_at(4, locality=0.5)
        egress = sum(shard["egress_sent"] for shard in report.per_shard)
        injected = sum(shard["remote_injected"] for shard in report.per_shard)
        assert egress == injected > 0

    def test_fault_plan_identical_for_any_caller(self):
        workload = SwarmWorkload(**SMALL, faults="chaos-mix")
        assert build_fault_plan(workload).digest() == build_fault_plan(workload).digest()
