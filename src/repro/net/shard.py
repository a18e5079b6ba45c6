"""Sharded multi-process swarm simulation: conservative PDES by region.

The single-process core tops out around 120–140k events/sec at 100k
hosts (``docs/PERFORMANCE.md``), so the only way up is out. This module
partitions an indexed swarm across worker processes **by region** and
runs the shards in parallel under a conservative parallel-discrete-event
time-window protocol:

* every cross-shard datagram is cross-region (regions map to shards as
  ``shard_of(i) = (i % R) % K``), so its delivery delay is at least the
  **lookahead** ``L = max(0.001, cross_region_latency - jitter)``;
* each shard therefore runs its :class:`~repro.net.clock.EventLoop`
  freely up to the next window barrier ``W_k = W_{k-1} + L`` — nothing
  another shard does during the window can schedule an event inside it
  — replaying its precomputed sends in bulk between fault changes
  (:meth:`ShardWorker.run_window`), so a datagram costs one loop event,
  its delivery;
* at the barrier, shards exchange their egress columns (the PR 9
  array-of-columns record layout — parallel ``when``/``dst``/``src``
  arrays, no per-datagram objects on the wire) over pipes, and each
  shard merges remote arrivals through the existing ``(when, seq)``
  timing-wheel/heap order with fresh local sequence numbers
  (:meth:`~repro.net.network.ShardNetwork.inject_batches`).

Worker-count invariance (the digest oracle) rests on three rules, all
enforced here and spelled out in ``docs/SHARDING.md``:

1. **Randomness is precomputed per region.** A region's traffic program
   (send times, destinations, latency and fault-loss uniforms) is drawn
   from ``DeterministicRandom(seed).fork(f"traffic:{r}")`` before the
   clock starts, so the draws a send consumes never depend on which
   process executes it.
2. **Every shard applies the whole fault plan.** Each worker builds the
   identical :class:`~repro.net.faults.FaultPlan` from the same seeded
   planner and applies every event — remote hosts resolve to
   :class:`~repro.net.network.RemoteHostRef` stubs — so
   ``host_is_down``/``conditions_for`` answers match at any K.
3. **The digest is composed of K-invariant quantities only**: global
   datagram totals, drops by reason, per-region delivery aggregates and
   a commutative per-host checksum. Window counts, worker counts and
   per-shard event counts are diagnostics, never digest inputs.

``run_workload`` is the entry point. One barrier loop drives every
shard, and one command handler serves each :class:`ShardWorker`, in a
forked worker process or in this one. The shards run in this process
("inline") when the run needs a single address space — one worker, or
an armed event-loop observer (``verify --sanitize`` and ``--profile``
must see every shard's events in one
:class:`~repro.analysis.sanitizer.DispatchTrace` or
:class:`~repro.harness.profile.SiteProfiler`) — and in forked
processes otherwise.
"""

from __future__ import annotations

import gc
import hashlib
import json
import multiprocessing
import traceback
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from repro.net.clock import FIRED_TOTAL, EventLoop
from repro.net.faults import FaultInjector, FaultPlan, RandomFaultPlanner, load_plan
from repro.net.network import ShardNetwork
from repro.scenarios.arrivals import FlashCrowdArrivals
from repro.util.errors import ConfigurationError, ShardWorkerError
from repro.util.perf import peak_rss_kb
from repro.util.rand import DeterministicRandom

#: Fault plans draw target hosts from a bounded hostname prefix, so a
#: million-viewer swarm does not materialise a million-string host list
#: per worker (and plans stay comparable across swarm sizes ≥ the cap).
FAULT_PLAN_HOSTS = 1024

#: Default region ring. Four regions is the paper's coarse geography
#: and lets ``--shard-workers`` scale to 4 (K may not exceed R).
DEFAULT_REGIONS = ("us", "eu", "asia", "sa")

_CHECKSUM_MASK = 0xFFFFFFFFFFFFFFFF

ARRIVAL_MODES = ("uniform", "flash-crowd")


@dataclass(frozen=True)
class SwarmWorkload:
    """A fully seeded indexed-swarm description (the digest's identity).

    Everything that affects simulation *outcome* lives here; worker
    count deliberately does not, so ``to_dict()`` — and therefore the
    run digest — is identical at any ``--shard-workers``.
    """

    viewers: int = 5_000
    datagrams: int = 25_000
    seed: int = 2024
    regions: tuple[str, ...] = DEFAULT_REGIONS
    locality: float = 0.95
    payload_bytes: int = 200
    arrivals: str = "uniform"
    faults: str = "calm"
    horizon: float = 60.0
    base_latency: float = 0.02
    cross_region_latency: float = 0.12
    jitter: float = 0.004
    port: int = 4000
    ip_base: str = "5.0.0.1"

    def __post_init__(self) -> None:
        if self.viewers < 1:
            raise ConfigurationError("a swarm needs at least one viewer")
        if self.datagrams < 0:
            raise ConfigurationError("datagrams must be non-negative")
        if not self.regions:
            raise ConfigurationError("a swarm needs at least one region")
        if not 0.0 <= self.locality <= 1.0:
            raise ConfigurationError("locality must be within [0, 1]")
        if self.arrivals not in ARRIVAL_MODES:
            known = ", ".join(ARRIVAL_MODES)
            raise ConfigurationError(
                f"unknown arrival mode {self.arrivals!r} (known: {known})")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if self.base_latency <= 0 or self.jitter < 0:
            raise ConfigurationError("latency knobs out of range")
        if self.cross_region_latency < self.base_latency:
            raise ConfigurationError(
                "cross-region latency must be at least the same-region base")

    @property
    def lookahead(self) -> float:
        """The conservative window width: the cross-region delay floor.

        Cross-region one-way delay is ``cross + uniform(-j, j)`` clamped
        above 1 ms, so it can never undercut ``max(0.001, cross - j)``
        — the same float expression, evaluated once here. Fault
        impairments only *add* delay, so the floor survives chaos.
        """
        return max(0.001, self.cross_region_latency - self.jitter)

    def to_dict(self) -> dict:
        """Serialise to plain JSON types (the digest form)."""
        return {
            "viewers": self.viewers,
            "datagrams": self.datagrams,
            "seed": self.seed,
            "regions": list(self.regions),
            "locality": self.locality,
            "payload_bytes": self.payload_bytes,
            "arrivals": self.arrivals,
            "faults": self.faults,
            "horizon": self.horizon,
            "base_latency": self.base_latency,
            "cross_region_latency": self.cross_region_latency,
            "jitter": self.jitter,
            "port": self.port,
            "ip_base": self.ip_base,
        }


def shard_of(idx: int, num_regions: int, num_shards: int) -> int:
    """The shard owning viewer ``idx`` under the region ring mapping."""
    return (idx % num_regions) % num_shards


class _TrafficProgram:
    """One shard's precomputed send schedule, columnar."""

    __slots__ = ("when", "src", "dst", "u_latency", "u_fault")

    def __init__(self) -> None:
        self.when = array("d")
        self.src = array("q")
        self.dst = array("q")
        self.u_latency = array("d")
        self.u_fault = array("d")

    def __len__(self) -> int:
        return len(self.when)


def _region_member_count(viewers: int, num_regions: int, region_index: int) -> int:
    """How many viewer indices below ``viewers`` land in this region."""
    if viewers <= region_index:
        return 0
    return (viewers - region_index + num_regions - 1) // num_regions


def _region_program(workload: SwarmWorkload, region_index: int) -> _TrafficProgram:
    """Materialise one region's sends from its own forked stream.

    Per-region streams are the worker-count-invariance seam: region
    ``r``'s draws depend only on ``(seed, r)``, never on which shard
    executes them or what other regions drew. Draw order per send is
    fixed — arrival time (uniform mode), locality trial, destination,
    latency uniform, fault-loss uniform — and flash-crowd mode adds one
    trailing perturbation draw per send (see below).
    """
    rand = DeterministicRandom(workload.seed).fork(f"traffic:{region_index}")
    num_regions = len(workload.regions)
    viewers = workload.viewers
    members = _region_member_count(viewers, num_regions, region_index)
    program = _TrafficProgram()
    if members == 0 or workload.datagrams == 0:
        return program
    base_share = workload.datagrams // viewers
    remainder = workload.datagrams % viewers
    total = sum(
        base_share + (1 if region_index + j * num_regions < remainder else 0)
        for j in range(members)
    )
    if total == 0:
        return program
    window = workload.horizon * 0.8

    flash_times: list[float] | None = None
    if workload.arrivals == "flash-crowd":
        spike = total // 2
        baseline = max(1.0, (total - spike) / (window / 60.0))
        process = FlashCrowdArrivals(
            base_rate_per_min=baseline,
            spike_at_sec=window * 0.25,
            spike_arrivals=spike,
            spike_width_sec=max(window * 0.1, 0.001),
        )
        flash_times = process.times(rand, window)
        if not flash_times:  # degenerate tiny windows: keep one send time
            flash_times = [window * 0.5]

    when = program.when
    src_col = program.src
    dst_col = program.dst
    u_lat = program.u_latency
    u_fault = program.u_fault
    draw = rand.random
    getrandbits = rand.getrandbits
    # The draws of uniform(0.0, w) and randint(0, n - 1), inlined so a
    # send costs no Python frame: uniform(0.0, w) is w * random() bit
    # for bit, and randint's Random._randbelow(n) draws
    # getrandbits(n.bit_length()) until the value is below n.
    # tests/shard/test_traffic_program.py pins both against the library.
    member_bits = members.bit_length()
    viewer_bits = viewers.bit_length()
    locality = workload.locality
    sent = 0
    for j in range(members):
        src = region_index + j * num_regions
        count = base_share + (1 if src < remainder else 0)
        for _ in range(count):
            if flash_times is None:
                t = window * draw()
            else:
                # Flash-crowd times are rounded to 1 ms by the arrival
                # process, which can collide exactly with 3-decimal
                # fault-plan instants and make (when, seq) tie order
                # depend on K. A sub-microsecond deterministic
                # perturbation keeps the crowd shape and restores
                # measure-zero tie probability.
                t = flash_times[sent % len(flash_times)] + draw() * 1e-6
            if draw() < locality:
                r = getrandbits(member_bits)
                while r >= members:
                    r = getrandbits(member_bits)
                dst = region_index + r * num_regions
            else:
                dst = getrandbits(viewer_bits)
                while dst >= viewers:
                    dst = getrandbits(viewer_bits)
            when.append(t)
            src_col.append(src)
            dst_col.append(dst)
            u_lat.append(draw())
            u_fault.append(draw())
            sent += 1
    return program


def _shard_program(workload: SwarmWorkload, shard_id: int, num_shards: int) -> _TrafficProgram:
    """Concatenate the owned regions' programs and sort by send time.

    Owned regions concatenate in ascending region order at every K, so
    the stable time sort leaves equal-time sends in the same relative
    order a single shard owning all regions would produce — the window
    replay then executes sends in an order independent of K.
    """
    merged = _TrafficProgram()
    for region_index in range(len(workload.regions)):
        if region_index % num_shards != shard_id:
            continue
        part = _region_program(workload, region_index)
        merged.when.extend(part.when)
        merged.src.extend(part.src)
        merged.dst.extend(part.dst)
        merged.u_latency.extend(part.u_latency)
        merged.u_fault.extend(part.u_fault)
    if len(merged) < 2:
        return merged
    # Gather each column through the stable permutation in one C-level
    # call (itemgetter returns a tuple for two or more indices).
    gather = itemgetter(*sorted(range(len(merged)), key=merged.when.__getitem__))
    out = _TrafficProgram()
    out.when = array("d", gather(merged.when))
    out.src = array("q", gather(merged.src))
    out.dst = array("q", gather(merged.dst))
    out.u_latency = array("d", gather(merged.u_latency))
    out.u_fault = array("d", gather(merged.u_fault))
    return out


def build_fault_plan(workload: SwarmWorkload) -> FaultPlan:
    """The workload's fault plan — identical on every shard.

    Presets draw from ``fork("fault-plan")`` of the workload seed over
    the bounded ``v0..v{N-1}`` hostname prefix; a ``.json`` spec loads
    the explicit plan. Either way the result depends only on the
    workload, so every worker arms the same events at the same times.
    """
    hostnames = [f"v{i}" for i in range(min(workload.viewers, FAULT_PLAN_HOSTS))]
    planner = RandomFaultPlanner(DeterministicRandom(workload.seed).fork("fault-plan"))
    return load_plan(
        workload.faults,
        planner=planner,
        hosts=hostnames,
        horizon=workload.horizon,
        regions=workload.regions,
        hostnames=(),
    )


class ShardWorker:
    """One shard: its network slice, traffic program and fault injector."""

    def __init__(self, workload: SwarmWorkload, shard_id: int, num_shards: int) -> None:
        self.workload = workload
        self.shard_id = shard_id
        rand = DeterministicRandom(workload.seed)
        self.net = ShardNetwork(
            shard_id,
            num_shards,
            workload.regions,
            ip_base=workload.ip_base,
            port=workload.port,
            payload=b"\x00" * workload.payload_bytes,
            rand=rand,
            base_latency=workload.base_latency,
            cross_region_latency=workload.cross_region_latency,
            jitter=workload.jitter,
        )
        self.loop = self.net.loop
        num_regions = len(workload.regions)
        # The directory is about eight GC-tracked objects per host and
        # no garbage, so a running collector would only re-walk it as
        # the old generation grows. It is paused for the build, and one
        # full pass then promotes the directory to the oldest
        # generation, where the young passes never walk it again
        # (docs/SHARDING.md, "Building a shard").
        collecting = gc.isenabled()
        gc.disable()
        try:
            for idx in range(workload.viewers):
                if (idx % num_regions) % num_shards == shard_id:
                    host = self.net.add_indexed_host(idx)
                    # stats() reads bytes_received only, so the sockets
                    # count each delivery and queue none.
                    host.bind_udp(workload.port, inbox_limit=0)
        finally:
            if collecting:
                gc.enable()
                gc.collect()
        self.faults: FaultInjector | None = None
        plan = build_fault_plan(workload)
        if len(plan):
            self.faults = FaultInjector(self.net, rand.fork("shard-faults"))
            self.faults.arm(plan)
        self.program = _shard_program(workload, shard_id, num_shards)
        #: Index of the first program row not yet sent.
        self._next_send = 0

    @property
    def pending(self) -> int:
        """Queued loop events plus program sends not yet replayed."""
        return self.loop.pending + len(self.program) - self._next_send

    def run_window(self, barrier: float) -> None:
        """Advance this shard to ``barrier``.

        Sends are not loop events: the traffic program's rows due by the
        barrier go straight through
        :meth:`~repro.net.network.ShardNetwork.send_indexed`, each at its
        row's instant, and the loop then fires what they queued. Only the
        fault injector's timers change what a send reads, so the replay
        is cut at each of them
        (:meth:`~repro.net.faults.FaultInjector.next_change`): rows
        before the change are sent, the loop fires the change, and a row
        at exactly its instant goes after it, at any worker count.
        ``docs/SHARDING.md`` explains why this keeps every digest.
        """
        loop = self.loop
        times = self.program.when
        faults = self.faults
        if faults is not None:
            change = faults.next_change()
            while change <= barrier:
                self._replay(bisect_left(times, change, self._next_send))
                loop.run_until(change)
                change = faults.next_change()
        self._replay(bisect_right(times, barrier, self._next_send))
        loop.run_until(barrier)

    def _replay(self, end: int) -> None:
        """Send program rows ``[_next_send, end)``, each at its own instant."""
        start = self._next_send
        program = self.program
        send = self.net.send_indexed
        for src, dst, u_latency, u_fault, at in zip(
            program.src[start:end],
            program.dst[start:end],
            program.u_latency[start:end],
            program.u_fault[start:end],
            program.when[start:end],
        ):
            send(src, dst, u_latency, u_fault, at)
        self._next_send = end

    def stats(self) -> dict:
        """This shard's digest-facing aggregates (all K-invariant).

        The per-host checksum folds ``(idx, bytes_received)`` pairs
        through a commutative 64-bit mix, so hosts may be summed in any
        order — and cross-shard same-instant delivery ordering (the one
        place sharding may legally reorder equal-time events) cannot
        perturb it.
        """
        net = self.net
        port = self.workload.port
        per_region: dict[str, list[int]] = {}
        checksum = 0
        for idx, host in net._local_index.items():
            sock = host.sockets.get(port)
            received = sock.bytes_received if sock is not None else 0
            cell = per_region.get(host.region)
            if cell is None:
                cell = per_region[host.region] = [0, 0]
            cell[0] += 1
            cell[1] += received
            checksum = (
                checksum
                + ((idx + 0x9E3779B9) * 0xBF58476D1CE4E5B9
                   + received * 0x94D049BB133111EB)
            ) & _CHECKSUM_MASK
        return {
            "sent": net.datagrams_sent,
            "delivered": net.datagrams_delivered,
            "dropped": net.datagrams_dropped,
            "in_flight": net.datagrams_in_flight,
            "drops_by_reason": dict(net.drops_by_reason),
            "per_region": {
                region: {"hosts": cell[0], "bytes_received": cell[1]}
                for region, cell in per_region.items()
            },
            "host_checksum": checksum,
        }

    def final_report(self) -> dict:
        """Stats plus per-shard diagnostics (K-dependent, digest-exempt)."""
        return {
            "shard": self.shard_id,
            "hosts": len(self.net._local_index),
            "stats": self.stats(),
            "egress_sent": self.net.egress_sent,
            "remote_injected": self.net.remote_injected,
            "events_fired": self.loop.events_fired,
            "fault_events_applied": self.faults.events_applied if self.faults else 0,
            "peak_rss_kb": peak_rss_kb(),
        }


@dataclass
class ShardRunReport:
    """The merged outcome of a sharded swarm run."""

    workload: dict
    workers: int
    mode: str
    windows: int
    digest: str
    totals: dict
    drops_by_reason: dict
    per_region: dict
    host_checksum: int
    events_fired: int
    per_shard: list = field(default_factory=list)

    @property
    def conservation_ok(self) -> bool:
        """``sent == delivered + dropped + in_flight`` after the merge."""
        totals = self.totals
        return totals["sent"] == (
            totals["delivered"] + totals["dropped"] + totals["in_flight"]
        )


def _window_cap(workload: SwarmWorkload) -> int:
    """Anti-livelock bound on barrier rounds.

    Sends stop by ``0.8 * horizon``; deliveries, crash rejoins and
    impairment heals all land within a few horizon multiples, so a
    coordinator still moving data past ``8 * horizon + 240`` simulated
    seconds is looping, not finishing.
    """
    return int((workload.horizon * 8.0 + 240.0) / workload.lookahead) + 16


def _merge_reports(
    workload: SwarmWorkload,
    workers: int,
    mode: str,
    windows: int,
    reports: list[dict],
) -> ShardRunReport:
    """Fold per-shard reports into the global, K-invariant digest."""
    totals = {"sent": 0, "delivered": 0, "dropped": 0, "in_flight": 0}
    drops: dict[str, int] = {}
    per_region: dict[str, dict[str, int]] = {}
    checksum = 0
    events_fired = 0
    for report in reports:
        stats = report["stats"]
        for key in totals:
            totals[key] += stats[key]
        for reason, count in stats["drops_by_reason"].items():
            drops[reason] = drops.get(reason, 0) + count
        for region, cell in stats["per_region"].items():
            target = per_region.setdefault(region, {"hosts": 0, "bytes_received": 0})
            target["hosts"] += cell["hosts"]
            target["bytes_received"] += cell["bytes_received"]
        checksum = (checksum + stats["host_checksum"]) & _CHECKSUM_MASK
        events_fired += report["events_fired"]
    payload = {
        "workload": workload.to_dict(),
        "totals": totals,
        "drops_by_reason": dict(sorted(drops.items())),
        "per_region": {region: per_region[region] for region in sorted(per_region)},
        "host_checksum": checksum,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return ShardRunReport(
        workload=workload.to_dict(),
        workers=workers,
        mode=mode,
        windows=windows,
        digest=digest,
        totals=totals,
        drops_by_reason=payload["drops_by_reason"],
        per_region=payload["per_region"],
        host_checksum=checksum,
        events_fired=events_fired,
        per_shard=reports,
    )


def _reply_timeout(workload: SwarmWorkload, workers: int) -> float:
    """Seconds to wait for one reply: 60 plus 0.2 ms per row of a shard's
    share of viewers and datagrams.

    The first reply (fork, build, window 1) is the longest, ~10 s for a
    250k-viewer, 500k-datagram shard on 2 shared CPUs: 20x headroom.
    """
    return 60.0 + 2e-4 * (workload.viewers + workload.datagrams) / workers


def _serve(worker: ShardWorker, message: tuple) -> tuple:
    """The ``("ok", ...)`` reply to one command, for a shard hosted anywhere.

    ``("run", barrier, batches)`` injects the batches, runs the window
    and replies with the egress and pending work; ``("finish",)``
    replies with the final report.
    """
    if message[0] == "finish":
        return ("ok", worker.final_report())
    _, barrier, batches = message
    if batches:
        worker.net.inject_batches(batches)
    worker.run_window(barrier)
    return ("ok", worker.net.flush_egress(), worker.pending)


class _LocalPipe:
    """A shard in this process, behind a worker pipe's send/poll/recv.

    ``poll`` serves the command ``send`` left, so the shards run in
    shard order and a shard's exception reaches the caller unchanged.
    """

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self.message: tuple = ()
        self.frame: tuple = ()

    def send(self, message: tuple) -> None:
        self.message = message

    def poll(self, timeout: float) -> bool:
        self.frame = _serve(self.worker, self.message)
        return True

    def recv(self) -> tuple:
        return self.frame


def _shard_worker_main(
    conn, parent_ends: tuple, workload: SwarmWorkload, shard_id: int, workers: int
) -> None:
    """Child-process loop: build the shard, then serve commands until EOF.

    Every command gets one reply frame: :func:`_serve`'s, or ``("error",
    window, barrier, traceback)`` when building the shard or serving the
    command raised, after which the worker exits. The coordinator's
    pipe ends a fork inherits are closed first, so that closing them in
    the coordinator is an end-of-file every idle worker sees.
    """
    for end in parent_ends:
        end.close()
    window = 0
    barrier = 0.0
    try:
        worker = ShardWorker(workload, shard_id, workers)
        while True:
            try:
                message = conn.recv()
            except EOFError:
                break
            if message[0] == "run":
                window += 1
                barrier = message[1]
            conn.send(_serve(worker, message))
    except Exception:
        try:
            conn.send(("error", window, barrier, traceback.format_exc()))
        except OSError:  # the coordinator has already hung up
            pass
    finally:
        conn.close()


def _reply(conn, proc, shard: int, window: int, barrier: float, timeout: float) -> tuple:
    """The payload of one shard's reply frame; the one place replies are read.

    Raises :class:`ShardWorkerError` for an error frame (the worker's
    window, barrier and traceback), a worker that closed its pipe
    without replying (its exit code), or one that sent nothing within
    ``timeout`` seconds (terminated). ``proc`` is ``None`` for a
    :class:`_LocalPipe`, whose reply is always ready.
    """
    if not conn.poll(timeout):
        proc.terminate()
        raise ShardWorkerError(shard, window, barrier, f"no reply within {timeout:g} s")
    try:
        frame = conn.recv()
    except (EOFError, OSError):
        proc.join(timeout=5)
        raise ShardWorkerError(
            shard, window, barrier,
            f"worker exited with code {proc.exitcode} without replying",
        ) from None
    if frame[0] == "error":
        _, window, barrier, text = frame
        raise ShardWorkerError(shard, window, barrier, text)
    return frame[1:]


def _command(conn, message: tuple) -> None:
    """Send one command; a worker that is gone shows up at its reply."""
    try:
        conn.send(message)
    except OSError:
        pass


def _run_windows(
    workload: SwarmWorkload, conns: list, procs: list, mode: str
) -> ShardRunReport:
    """The barrier loop: drive every shard through the window protocol.

    Each round sends every shard ``("run", barrier, batches)`` before
    reading any reply, files each shard's egress into the next round's
    batches, and stops once no batch moved and no shard has work left.
    """
    workers = len(conns)
    timeout = _reply_timeout(workload, workers)
    lookahead = workload.lookahead
    window_cap = _window_cap(workload)
    inbox: list[list] = [[] for _ in range(workers)]
    windows = 0
    barrier = 0.0
    while True:
        windows += 1
        if windows > window_cap:
            raise RuntimeError(
                f"shard coordinator exceeded {window_cap} windows; likely a livelock"
            )
        # Cumulative, not windows * lookahead: each barrier must equal
        # the previous barrier plus exactly the lookahead float, so a
        # remote arrival at `send + L` can never round below it.
        barrier += lookahead
        for shard, conn in enumerate(conns):
            _command(conn, ("run", barrier, inbox[shard]))
            inbox[shard] = []
        moved = False
        total_pending = 0
        for shard, conn in enumerate(conns):
            egress, pending = _reply(conn, procs[shard], shard, windows, barrier, timeout)
            total_pending += pending
            # dict preserves insertion order and shards flush their
            # egress ascending, so each inbox accumulates batches in
            # source-shard order — the order inject_batches' stable
            # sort preserves for equal delivery times.
            for dst, cols in egress.items():
                inbox[dst].append(cols)
                moved = True
        if not moved and total_pending == 0:
            break
    for conn in conns:
        _command(conn, ("finish",))
    reports = [
        _reply(conn, procs[shard], shard, windows, barrier, timeout)[0]
        for shard, conn in enumerate(conns)
    ]
    return _merge_reports(workload, workers, mode, windows, reports)


def _run_processes(workload: SwarmWorkload, workers: int) -> ShardRunReport:
    """Run one forked worker process per shard through the barrier loop.

    A worker that raises, dies or stops replying stops the run with
    :class:`ShardWorkerError`; every worker is joined, or terminated,
    before this returns or raises. The workers' event counts are added
    to :data:`~repro.net.clock.FIRED_TOTAL`, which their own loops
    cannot reach.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platforms without fork
        context = multiprocessing.get_context("spawn")
    conns = []
    procs = []
    try:
        for shard in range(workers):
            parent_conn, child_conn = context.Pipe()
            conns.append(parent_conn)
            proc = context.Process(
                target=_shard_worker_main,
                args=(child_conn, tuple(conns), workload, shard, workers),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
        report = _run_windows(workload, conns, procs, "process")
    finally:
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
                proc.join(timeout=5)
    FIRED_TOTAL[0] += report.events_fired  # repro: allow[SHARD001] harness-owned observability, not sim state
    return report


def run_workload(workload: SwarmWorkload, workers: int = 1) -> ShardRunReport:
    """Run ``workload`` across ``workers`` shards; digest is K-invariant.

    ``workers`` clamps to ``[1, len(regions)]`` (a shard with no region
    would idle forever). The shards run in forked worker processes,
    or in this process ("inline") for a single worker or while an
    event-loop observer is armed (``verify --sanitize``,
    ``--profile``), since an observer cannot see a worker process's
    loop.
    """
    workers = max(1, min(workers, len(workload.regions)))
    if workers > 1 and not EventLoop._observers:
        return _run_processes(workload, workers)
    conns = [_LocalPipe(ShardWorker(workload, shard, workers)) for shard in range(workers)]
    return _run_windows(workload, conns, [None] * workers, "inline")
