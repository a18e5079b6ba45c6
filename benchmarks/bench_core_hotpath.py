"""Core hot-path benchmark: EventLoop scheduling + the datagram plane.

Unlike the other benchmarks (which regenerate one of the paper's tables),
this one measures the *simulator core itself* at swarm scale: raw
events/sec through :class:`~repro.net.clock.EventLoop` and datagrams/sec
through :meth:`~repro.net.network.Network.send_datagram`, at 1k/10k/100k
synthetic viewers, plus peak RSS. Results are written to
``benchmarks/results/BENCH_core.json`` so the perf-regression CI job can
compare a fresh smoke run against the committed baseline.

Run as a script (this is what CI does)::

    PYTHONPATH=src python benchmarks/bench_core_hotpath.py --smoke \
        --check benchmarks/results/BENCH_core.json --no-write

or under pytest-benchmark along with the other benches::

    PYTHONPATH=src python -m pytest benchmarks/bench_core_hotpath.py

The traffic pattern is fully seeded (DeterministicRandom), so two runs
on the same tree do identical work — only the wall clock differs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys

if __name__ == "__main__":  # allow running without PYTHONPATH=src
    _src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if _src.is_dir() and str(_src) not in sys.path:
        sys.path.insert(0, str(_src))

from repro.harness.profile import WheelStats
from repro.net.capture import TrafficCapture
from repro.net.clock import EventLoop
from repro.net.network import Network
from repro.net.shard import SwarmWorkload, run_workload
from repro.util.perf import WallTimer, peak_rss_kb
from repro.util.rand import DeterministicRandom

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_OUT = RESULTS_DIR / "BENCH_core.json"

#: Scenario definitions: (viewers, datagrams) per swarm scenario. The
#: 100k swarm pushes one million datagrams through the data plane.
SWARM_SCENARIOS = {
    "swarm_1k": (1_000, 50_000),
    "swarm_10k": (10_000, 200_000),
    "swarm_100k": (100_000, 1_000_000),
}
#: Sharded-swarm scenarios: (viewers, datagrams, worker ladder). Each
#: runs the same :class:`~repro.net.shard.SwarmWorkload` at every rung
#: of the ladder, asserts the K-invariant digest matches (the PDES
#: correctness oracle running inside the bench), and records per-rung
#: wall clock so the workers-N-vs-1 speedup lands in the baseline.
#: ``swarm_1m`` is the ROADMAP scale target: one million viewers.
SHARD_SCENARIOS = {
    "swarm_1k_shard": (1_000, 50_000, (1, 2)),
    "swarm_100k_shard": (100_000, 1_000_000, (1, 4)),
    "swarm_1m": (1_000_000, 2_000_000, (1, 4)),
}
SMOKE_SCENARIOS = ("events_loop", "swarm_1k", "swarm_1k_shard")
#: Every runnable scenario, in report order — the vocabulary for
#: ``--scenarios`` (e.g. the CI perf job's targeted swarm_100k run).
ALL_SCENARIOS = ("events_loop", "swarm_1k", "swarm_10k", "swarm_100k",
                 "swarm_10k_capture", "swarm_10k_flash", "swarm_1k_shard",
                 "swarm_100k_shard", "swarm_1m")
REGIONS = ("us", "eu", "asia", "sa")

_PAYLOAD = b"\x00" * 200  # one shared segment-chunk-sized datagram body


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------


def bench_event_loop(n_events: int = 100_000) -> dict:
    """Pure scheduler throughput: schedule, cancel 10%, drain.

    The delay pattern is drawn outside the timed section so the wall
    clock covers only schedule/cancel/dispatch, not the generator.
    """
    loop = EventLoop()
    rand = DeterministicRandom("bench-loop")
    delays = [rand.uniform(0.0, 60.0) for _ in range(n_events)]
    sink: list[float] = []
    with WallTimer() as timer:
        handles = [loop.schedule(delay, sink.append, 0.0) for delay in delays]
        for handle in handles[:: 10]:  # every 10th timer is cancelled
            handle.cancel()
        loop.run_all(max_events=n_events + 1)
    fired = loop.events_fired
    return {
        "events_fired": fired,
        "wall_seconds": timer.elapsed,
        "events_per_sec": fired / timer.elapsed if timer.elapsed else 0.0,
    }


def build_swarm(viewers: int) -> tuple[Network, list]:
    """A synthetic swarm: ``viewers`` public hosts, one bound socket each."""
    net = Network(rand=DeterministicRandom("bench-swarm"))
    hosts = []
    for i in range(viewers):
        host = net.add_host(f"v{i}", region=REGIONS[i % len(REGIONS)])
        host.bind_udp(4000)
        hosts.append(host)
    return net, hosts


def bench_swarm(viewers: int, datagrams: int, capture: bool = False) -> dict:
    """Datagram-plane throughput across a ``viewers``-host swarm.

    Each host sends to a seeded pseudo-random neighbor; the loop drains
    in waves so the heap stays at realistic in-flight depths instead of
    holding every datagram at once.
    """
    net, hosts = build_swarm(viewers)
    if capture:
        net.add_capture(TrafficCapture("bench-tap"))
    rand = DeterministicRandom("bench-traffic")
    n = len(hosts)
    # Traffic pattern fully materialised outside the timer — sender and
    # destination per datagram — so the wall clock covers the
    # simulator's send/deliver path, not the generator or index math.
    sockets = [host.sockets[4000] for host in hosts]
    endpoints = [sock.endpoint for sock in sockets]
    senders = [sockets[k % n] for k in range(datagrams)]
    dests = [endpoints[rand.randint(0, n - 1)] for _ in range(datagrams)]
    wave = max(1, min(datagrams, 10 * n))
    sent = 0
    payload = _PAYLOAD
    with WallTimer() as timer:
        while sent < datagrams:
            batch = min(wave, datagrams - sent)
            for sock, dst in zip(senders[sent:sent + batch],
                                 dests[sent:sent + batch]):
                sock.send(dst, payload)
            sent += batch
            net.loop.run_all(max_events=batch + 1)
    fired = net.loop.events_fired
    return {
        "datagrams": sent,
        "delivered": net.datagrams_delivered,
        "events_fired": fired,
        "wall_seconds": timer.elapsed,
        "events_per_sec": fired / timer.elapsed if timer.elapsed else 0.0,
        "datagrams_per_sec": sent / timer.elapsed if timer.elapsed else 0.0,
        "peak_rss_kb": peak_rss_kb(),
        # Timing-wheel counters: in a healthy run nearly every delivery
        # past the depth gate is in-band (batched >> overflow); a
        # collapsing ratio means the wheel geometry no longer matches
        # the latency band.
        "wheel": net.loop.wheel_stats(),
    }


def bench_swarm_sharded(viewers: int, datagrams: int, ladder: tuple[int, ...],
                        arrivals: str = "uniform") -> dict:
    """Sharded-swarm throughput across a worker-count ladder.

    Runs one :class:`~repro.net.shard.SwarmWorkload` at each worker
    count in ``ladder`` and refuses to report if the K-invariant digests
    disagree — every bench run doubles as a PDES correctness check. The
    headline ``datagrams_per_sec`` (what the CI gate compares) comes
    from the last rung; ``workers`` holds every rung so the committed
    baseline records the workers-N-vs-1 speedup and per-worker RSS.
    Note the speedup is only meaningful on a box with >= ladder[-1]
    cores — ``cpus`` in the top-level report says what this run had.
    """
    workload = SwarmWorkload(viewers=viewers, datagrams=datagrams,
                             arrivals=arrivals)
    rungs: dict[str, dict] = {}
    digest = ""
    report = None
    for workers in ladder:
        with WallTimer() as timer:
            report = run_workload(workload, workers)
        if digest and report.digest != digest:
            raise SystemExit(
                f"sharded digest diverged at workers={report.workers}: "
                f"{report.digest} != {digest} — the window protocol is broken"
            )
        digest = report.digest
        wall = timer.elapsed
        rungs[str(report.workers)] = {
            "mode": report.mode,
            "wall_seconds": wall,
            "events_per_sec": report.events_fired / wall if wall else 0.0,
            "worker_peak_rss_kb": [s["peak_rss_kb"] for s in report.per_shard],
        }
    first = rungs[str(min(int(k) for k in rungs))]
    final = rungs[str(report.workers)]
    wall = final["wall_seconds"]
    # The same merge --profile applies: counters sum, occupancy maxes.
    wheel = WheelStats()
    for shard in report.per_shard:
        wheel.absorb_remote(f"shard:{shard['shard']}", shard["wheel"])
    out = {
        "arrivals": arrivals,
        "datagrams": report.totals["sent"],
        "delivered": report.totals["delivered"],
        "digest": digest,
        "events_fired": report.events_fired,
        "windows": report.windows,
        "workers": rungs,
        "wall_seconds": wall,
        "events_per_sec": final["events_per_sec"],
        "datagrams_per_sec": report.totals["sent"] / wall if wall else 0.0,
        "peak_rss_kb": max(final["worker_peak_rss_kb"]),
        "wheel": wheel.to_dict(),
    }
    if len(rungs) > 1 and "1" in rungs:
        out["speedup_vs_1"] = first["wall_seconds"] / wall if wall else 0.0
    return out


def run_suite(smoke: bool = False, scenarios: list[str] | None = None,
              shard_workers: int | None = None,
              arrivals: str = "uniform") -> dict:
    """Run the selected scenarios (default: all, or the smoke subset).

    ``scenarios`` takes precedence over ``smoke`` for selection (smoke
    still shrinks the events_loop workload), which is how CI targets
    ``swarm_100k`` alone without paying for the full suite.

    ``shard_workers`` collapses every sharded scenario's ladder to that
    single worker count (the CI shard job runs the smoke suite twice —
    ``--shard-workers 1`` then ``2`` — and diffs the digests across
    process boundaries). ``arrivals`` switches the sharded scenarios'
    send-time process; non-uniform runs are reported under a suffixed
    scenario name so they never shadow the uniform baseline entry.
    """
    if scenarios is None:
        selected = SMOKE_SCENARIOS if smoke else ALL_SCENARIOS
    else:
        unknown = sorted(set(scenarios) - set(ALL_SCENARIOS))
        if unknown:
            raise SystemExit(
                f"unknown scenario(s) {', '.join(unknown)}; "
                f"choose from {', '.join(ALL_SCENARIOS)}"
            )
        selected = tuple(scenarios)
    report: dict[str, dict] = {}
    if "events_loop" in selected:
        report["events_loop"] = bench_event_loop(20_000 if smoke else 100_000)
    for name, (viewers, datagrams) in SWARM_SCENARIOS.items():
        if name in selected:
            report[name] = bench_swarm(viewers, datagrams)
    # Capture-attached variant of the mid-size swarm: the cost of the
    # wire tap relative to the no-capture fast path.
    if "swarm_10k_capture" in selected:
        report["swarm_10k_capture"] = bench_swarm(*SWARM_SCENARIOS["swarm_10k"],
                                                  capture=True)
    # Flash-crowd arrivals through the workload engine at one worker:
    # what a scenario-shaped join burst costs vs the uniform ramp.
    if "swarm_10k_flash" in selected:
        report["swarm_10k_flash"] = bench_swarm_sharded(
            10_000, 200_000, (1,), arrivals="flash-crowd")
    for name, (viewers, datagrams, ladder) in SHARD_SCENARIOS.items():
        if name in selected:
            if shard_workers is not None:
                ladder = (shard_workers,)
            key = name if arrivals == "uniform" else f"{name}_{arrivals}"
            report[key] = bench_swarm_sharded(viewers, datagrams, ladder,
                                              arrivals=arrivals)
    mode = "smoke" if smoke else "full"
    return {
        "version": 1,
        "mode": mode if scenarios is None else "select",
        "python": platform.python_version(),
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else (os.cpu_count() or 1),
        "scenarios": report,
        "peak_rss_kb": peak_rss_kb(),
    }


# ---------------------------------------------------------------------------
# baseline comparison (the CI regression gate)
# ---------------------------------------------------------------------------


def compare(report: dict, baseline: dict, threshold: float = 0.30) -> list[str]:
    """Regressions >``threshold`` in throughput vs the baseline, per scenario.

    A scenario that moves datagrams is gated on ``datagrams_per_sec``,
    the work it does. Events per datagram is a property of the code, not
    of the workload, so on events/sec a change that fires fewer events
    for the same datagrams would read as a slowdown. ``events_loop``
    moves no datagrams and keeps ``events_per_sec``. Only scenarios present in both reports are
    compared, so a smoke run checks against a committed full-run
    baseline.
    """
    failures = []
    for name, current in report["scenarios"].items():
        base = baseline.get("scenarios", {}).get(name)
        if base is None:
            continue
        metric = "datagrams_per_sec" if "datagrams_per_sec" in base else "events_per_sec"
        base_rate = base.get(metric, 0.0)
        rate = current.get(metric, 0.0)
        if base_rate > 0 and rate < base_rate * (1.0 - threshold):
            unit = metric.replace("_per_sec", "/sec")
            failures.append(
                f"{name}: {rate:,.0f} {unit} is "
                f"{(1 - rate / base_rate) * 100:.0f}% below baseline {base_rate:,.0f}"
            )
    return failures


def render(report: dict) -> str:
    """Human-readable scenario table for the bench log."""
    lines = [f"core hot-path bench ({report['mode']}, python {report['python']})"]
    for name, s in report["scenarios"].items():
        parts = [f"{s['events_per_sec']:>12,.0f} events/sec"]
        if "datagrams_per_sec" in s:
            parts.append(f"{s['datagrams_per_sec']:>12,.0f} datagrams/sec")
        if "peak_rss_kb" in s:
            parts.append(f"rss {s['peak_rss_kb'] / 1024:,.0f} MiB")
        if "wheel" in s:
            wheel = s["wheel"]
            parts.append(f"wheel {wheel['batched']:,} batched / "
                         f"{wheel['overflow']:,} overflow")
        if "speedup_vs_1" in s:
            ladder = "/".join(sorted(s["workers"], key=int))
            parts.append(f"speedup x{s['speedup_vs_1']:.2f} "
                         f"(workers {ladder})")
        if "digest" in s:
            parts.append(f"digest {s['digest'][:12]}")
        lines.append(f"  {name:<18} " + "  ".join(parts))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small-swarm subset for CI")
    parser.add_argument("--scenarios", type=lambda s: s.split(","), default=None,
                        metavar="A,B,...",
                        help="comma-separated scenario names to run "
                             f"(from: {', '.join(ALL_SCENARIOS)})")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="where to write the JSON report")
    parser.add_argument("--no-write", action="store_true",
                        help="measure and compare only; leave the baseline alone")
    parser.add_argument("--check", type=pathlib.Path, default=None,
                        help="baseline BENCH_core.json to compare against")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="fractional throughput regression (datagrams/sec, or "
                             "events/sec for events_loop) that fails the check")
    parser.add_argument("--shard-workers", type=int, default=None, metavar="N",
                        help="run sharded scenarios at exactly N workers instead "
                             "of their ladder (CI diffs digests across runs)")
    parser.add_argument("--arrivals", choices=("uniform", "flash-crowd"),
                        default="uniform",
                        help="send-time process for the sharded scenarios; "
                             "flash-crowd reports under a suffixed scenario name")
    args = parser.parse_args(argv)
    if args.scenarios is not None and not args.no_write and args.out == DEFAULT_OUT:
        parser.error("--scenarios produces a partial report; committing it as the "
                     "baseline would blind the regression gate — add --no-write "
                     "or point --out elsewhere")
    if ((args.shard_workers is not None or args.arrivals != "uniform")
            and not args.no_write and args.out == DEFAULT_OUT):
        parser.error("--shard-workers/--arrivals change what the sharded "
                     "scenarios measure; committing that as the baseline would "
                     "skew the gate — add --no-write or point --out elsewhere")

    report = run_suite(smoke=args.smoke, scenarios=args.scenarios,
                       shard_workers=args.shard_workers, arrivals=args.arrivals)
    print(render(report))

    status = 0
    if args.check is not None:
        baseline = json.loads(args.check.read_text())
        failures = compare(report, baseline, args.threshold)
        if failures:
            print("\nPERF REGRESSION vs " + str(args.check))
            for failure in failures:
                print("  " + failure)
            status = 1
        else:
            print(f"\nno regression vs {args.check} (threshold {args.threshold:.0%})")
    if not args.no_write:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    return status


# ---------------------------------------------------------------------------
# pytest-benchmark wrappers (collected with the rest of benchmarks/)
# ---------------------------------------------------------------------------


def bench_smoke_suite(save_result) -> dict:
    report = run_suite(smoke=True)
    save_result("core_hotpath_smoke", render(report))
    return report


def test_core_hotpath_smoke(benchmark, save_result):
    """Smoke-scale core bench under the pytest-benchmark timer."""
    report = benchmark.pedantic(bench_smoke_suite, args=(save_result,),
                                rounds=1, iterations=1)
    assert report["scenarios"]["swarm_1k"]["delivered"] > 0
    # bench_swarm_sharded already hard-fails on a digest mismatch
    # between ladder rungs; this just pins that the scenario ran.
    assert report["scenarios"]["swarm_1k_shard"]["digest"]


if __name__ == "__main__":
    raise SystemExit(main())
