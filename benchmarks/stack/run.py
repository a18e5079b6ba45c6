"""The stack benchmark: six paper workloads through the full protocol stack.

Every iteration runs in a fresh child process (``child.py``), one after
another: a closed loop with a single client, never two children at once,
each child single-threaded. End-to-end metrics come from untraced
children; one extra traced child per workload gives the per-layer table.
Metric names, units and regression bounds are declared in the
repository's ``BENCHMARK.json``. See ``README.md`` for the workloads,
the metric definitions and how to read the layer table.

Full report (fixed run counts per workload, written under ``--out``)::

    python benchmarks/stack/run.py [--seed 2024] [--workloads a,b] [--smoke] [--out DIR]

One workload for a fixed time, printing one JSON result line last::

    python benchmarks/stack/run.py --workload matrix --seed 7 --seconds 20 --trace 0

Compare two reports::

    python benchmarks/stack/run.py --compare A.json B.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import PIN_SEED, WORKLOADS, input_seed, load_pins

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
CHILD = HERE / "child.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"

#: Set-up samples per workload: probes top up runs with fewer iterations.
MIN_SETUP_SAMPLES = 5
#: A timed (``--workload``) run must exit within 180 s, children included.
TIMED_RUN_LIMIT_S = 170.0
#: Per-child limit in a full report.
CHILD_TIMEOUT_S = 600.0


def load_declared() -> dict:
    """``BENCHMARK.json``: the declared workloads and metrics."""
    return json.loads(BENCHMARK_JSON.read_text())


def declared_units(declared: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {metric["name"]: metric["unit"] for metric in declared[section]}


# -- children ----------------------------------------------------------------


def child_env() -> dict[str, str]:
    """The children's environment: ``src`` importable, nothing that changes a run.

    ``REPRO_*`` knobs would re-route experiments (worker counts, DetSan),
    the hash seed is fixed so dict layouts repeat, and bytecode caching
    is left on, as a user's repeated runs have it.
    """
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class ChildResult:
    """One child's JSON report plus what the parent measured around it."""

    report: dict | None
    error: str | None
    setup_s: float | None
    elapsed_s: float


def spawn(workload: str, seed: int, mode: str, smoke: bool, timeout: float,
          trace_out: Path | None = None) -> ChildResult:
    """Run one child to completion (killed and reaped on timeout)."""
    cmd = [sys.executable, str(CHILD), workload, str(seed), mode]
    if smoke:
        cmd.append("--smoke")
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return ChildResult(None, f"timed out after {timeout:.0f} s", None,
                           time.monotonic() - spawned)
    elapsed = time.monotonic() - spawned
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return ChildResult(None, f"child exited {proc.returncode}: {tail}", None, elapsed)
    report = json.loads(lines[-1])
    return ChildResult(report, None, report["ready_at"] - spawned, elapsed)


# -- measuring one workload ----------------------------------------------------


@dataclass
class Measurement:
    """Everything one workload's children produced."""

    name: str
    iterations: list[dict] = field(default_factory=list)
    #: Input seed and digest prefix of every untraced run attempted, in order.
    input_seeds: list[int] = field(default_factory=list)
    digests: list[str | None] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traced: dict | None = None
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def fail(self, label: str, problems: list[str]) -> None:
        """Record one failed attempt and every problem it had."""
        self.failed += 1
        self.failures.extend(f"{self.name} {label}: {problem}" for problem in problems)


def measure(name: str, seed: int, *, smoke: bool, trace: bool, runs: int | None = None,
            seconds: float | None = None, trace_out: Path | None = None) -> Measurement:
    """Run ``runs`` untraced iterations, or as many as fit in ``seconds``.

    A discarded set-up-only child first warms the bytecode and page
    caches. With ``trace`` one traced child runs iteration 0's input;
    set-up-only probes top the set-up samples up to MIN_SETUP_SAMPLES.
    """
    started = time.monotonic()
    limit = started + (TIMED_RUN_LIMIT_S if seconds is not None else float("inf"))

    def timeout() -> float:
        return min(CHILD_TIMEOUT_S, limit - time.monotonic())

    result = Measurement(name)
    pins = [] if smoke or seed != PIN_SEED else load_pins().get(name, [])
    warm = spawn(name, seed, "setup", smoke, timeout())
    if warm.error is not None:
        result.fail("set-up", [warm.error])
        return result
    probe_s = warm.elapsed_s

    if trace:
        result.attempted += 1
        child = spawn(name, input_seed(seed, 0), "trace", smoke, timeout(), trace_out)
        problems = [child.error] if child.error else child.report["problems"]
        if problems:
            result.fail("traced run", problems)
        else:
            result.traced = dict(child.report, input_seed=input_seed(seed, 0))

    iteration_s = 0.0
    for index in itertools.count():
        if runs is not None and index >= runs:
            break
        if seconds is not None and index > 0:
            probes_left = max(0, MIN_SETUP_SAMPLES - index - 1)
            if time.monotonic() - started + iteration_s + probes_left * probe_s > seconds:
                break
        result.attempted += 1
        seed_i = input_seed(seed, index)
        child = spawn(name, seed_i, "run", smoke, timeout())
        iteration_s = max(iteration_s, child.elapsed_s)
        report = child.report or {}
        digest = report.get("digest") or ""
        result.input_seeds.append(seed_i)
        result.digests.append(digest[:12] or None)
        label = f"run {index + 1} (input seed {seed_i})"
        if child.error is not None:
            result.fail(label, [child.error])
            continue
        problems = list(report["problems"])
        if index < len(pins) and digest[:12] != pins[index]:
            problems.append(f"digest {digest[:12]} != pinned {pins[index]}")
        if index == 0 and result.traced is not None and result.traced["digest"] != digest:
            problems.append(f"traced digest {result.traced['digest'][:12]} != "
                            f"untraced {digest[:12]}")
        if problems:
            result.fail(label, problems)
            continue
        report["input_seed"] = seed_i
        result.iterations.append(report)
        result.setup_s.append(child.setup_s)

    while len(result.setup_s) < MIN_SETUP_SAMPLES and time.monotonic() + probe_s < limit:
        probe = spawn(name, seed, "setup", smoke, timeout())
        if probe.error is not None:
            result.fail("set-up probe", [probe.error])
            break
        result.setup_s.append(probe.setup_s)
    return result


# -- metrics -------------------------------------------------------------------


#: Timings take the mean of this many best runs (README.md, "Steadiness").
BEST_RUNS = 3


def _fastest(values: list[float]) -> float:
    return statistics.fmean(sorted(values)[:BEST_RUNS])


def _highest(values: list[float]) -> float:
    return statistics.fmean(sorted(values)[-BEST_RUNS:])


#: How one measurement condenses its runs into each metric's value. On a
#: shared host, contention only ever adds time, and in bursts: the best
#: few of a dozen short runs repeat within a few percent where their
#: median swings by a fifth. Averaging three damps the input-to-input
#: variation that the single fastest run carries. Memory does not suffer
#: contention, so it takes the median over the runs' inputs.
VALUE_OF = {"wall_s": _fastest, "work_per_s": _highest, "setup_s": _fastest,
            "peak_rss_mib": statistics.median}


def summarize(values: list[float], value_of) -> dict:
    """The metric's value, with median, quartiles, extremes and sample count.

    At most twenty runs per workload leave no tail percentile above the
    median with ten samples beyond it, so none is reported.
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"value": value_of(ordered), "median": statistics.median(ordered),
            "q1": q1, "q3": q3, "min": ordered[0], "max": ordered[-1], "n": len(ordered)}


def end_to_end(m: Measurement) -> dict[str, dict]:
    """The end-to-end metrics of the untraced runs (empty if none passed)."""
    runs = m.iterations
    if not runs or not m.setup_s:
        return {}
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "work_per_s": [r["work"] / r["wall_s"] for r in runs],
        "setup_s": m.setup_s,
        "peak_rss_mib": [r["rss_mib"] for r in runs],
    }
    return {name: summarize(values, VALUE_OF[name]) for name, values in samples.items()}


def per_layer(m: Measurement) -> dict[str, float]:
    """The traced run's metrics, plus its wall time over the untraced run of
    the same input (iteration 0)."""
    if (m.traced is None or not m.iterations
            or m.iterations[0]["input_seed"] != m.traced["input_seed"]):
        return {}
    metrics = dict(m.traced["metrics"])
    metrics["trace_overhead"] = m.traced["wall_s"] / m.iterations[0]["wall_s"]
    return metrics


# -- reports -------------------------------------------------------------------


def workload_report(m: Measurement) -> dict:
    """One workload's section of a full report."""
    return {
        "work_unit": WORKLOADS[m.name].work_unit,
        "attempted": m.attempted,
        "failed": m.failed,
        "fail_rate": m.failed / m.attempted if m.attempted else 1.0,
        "failures": m.failures,
        "input_seeds": m.input_seeds,
        "digests": m.digests,
        "end_to_end": end_to_end(m),
        "traced_wall_s": m.traced["wall_s"] if m.traced else None,
        "per_layer": per_layer(m),
    }


def render_workload(name: str, section: dict, units: dict[str, dict[str, str]]) -> str:
    """Every metric of one workload, by name with its unit."""
    lines = [f"== {name}: {len(section['digests'])} untraced runs and 1 traced, work unit = "
             f"{section['work_unit']}, input seeds {section['input_seeds'][:3]}..."]
    lines.append(f"  {'end-to-end':<14}{'value':>14}{'median':>14}{'q1':>14}{'q3':>14}"
                 f"{'n':>4}  unit")
    for metric, unit in units["end_to_end"].items():
        s = section["end_to_end"].get(metric)
        if s is None:
            lines.append(f"  {metric:<14}{'-':>14}")
            continue
        shown = f"{unit} ({section['work_unit']}/s)" if metric == "work_per_s" else unit
        lines.append(f"  {metric:<14}{s['value']:>14.6g}{s['median']:>14.6g}{s['q1']:>14.6g}"
                     f"{s['q3']:>14.6g}{s['n']:>4}  {shown}")
    lines.append(f"  {'fail_rate':<14}{section['fail_rate']:>14.6g}"
                 f"{'':>42}{section['attempted']:>4}  fraction "
                 f"({section['failed']} of {section['attempted']} attempted runs failed)")
    layer = section["per_layer"]
    if not layer:
        lines.append("  per-layer: no traced run")
        return "\n".join(lines)
    wall = section["traced_wall_s"]
    shares = {m[:-len(".self_share")]: v for m, v in layer.items() if m.endswith(".self_share")}
    total = sum(shares.values())
    lines.append(f"  per-layer (traced run {wall:.4f} s; layers + other = "
                 f"{total * wall:.4f} s, {total * 100:.2f}%)")
    lines.append(f"  {'layer':<20}{'self s':>12}{'self_share':>12}{'calls':>12}")
    for layer_name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        calls = layer.get(f"{layer_name}.calls")
        lines.append(f"  {layer_name:<20}{share * wall:>12.4f}{share:>12.4f}"
                     f"{'' if calls is None else calls:>12}")
    for metric, unit in units["per_layer"].items():
        if not metric.endswith((".self_share", ".calls")) and metric in layer:
            lines.append(f"  {metric:<38}{layer[metric]:>16.6g}  {unit}")
    return "\n".join(lines)


def run_full(args, declared: dict) -> int:
    """Every selected workload at its fixed run count, plus one traced run each."""
    names = [name.strip() for name in args.workloads.split(",") if name.strip()]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        print(f"error: unknown workloads {unknown} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    units = {section: declared_units(declared, section) for section in ("end_to_end", "per_layer")}
    report = {
        "mode": "smoke" if args.smoke else "full",
        "seed": args.seed,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {},
    }
    failures = []
    for name in names:
        m = measure(name, args.seed, smoke=args.smoke, trace=True,
                    runs=1 if args.smoke else WORKLOADS[name].runs,
                    trace_out=args.out / "trace" / f"{name}.json")
        section = workload_report(m)
        report["workloads"][name] = section
        failures += m.failures
        print(render_workload(name, section, units), flush=True)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(f"report: {args.out / 'report.json'}; traces: {args.out / 'trace'}")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def run_timed(args, declared: dict) -> int:
    """One workload for ``--seconds``; the last stdout line is the JSON result."""
    trace = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else declared["run_seconds"]
    m = measure(args.workload, args.seed, smoke=args.smoke, trace=trace, seconds=seconds,
                trace_out=args.out / "trace" / f"{args.workload}.json" if trace else None)
    section = "per_layer" if trace else "end_to_end"
    values = per_layer(m) if trace else {k: v["value"] for k, v in end_to_end(m).items()}
    units = declared_units(declared, section)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for failure in m.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{args.workload}: {m.failed} failed; wall_s samples "
          f"{[round(r['wall_s'], 4) for r in m.iterations]}, setup_s samples "
          f"{[round(s, 4) for s in m.setup_s]}")
    print(json.dumps({
        "correct": m.failed == 0 and len(metrics) == len(units),
        "attempted": max(1, m.attempted),
        "failed": m.failed,
        "metrics": metrics,
    }))
    return 1 if m.failures else 0


# -- comparing two reports -------------------------------------------------------


def spread(summary: dict) -> float:
    """Run-to-run spread: the quartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def verdict(a: dict, b: dict, metric: dict) -> tuple[float, str]:
    """(relative change A -> B, better / worse / within bound / unresolved)."""
    change = (b["value"] - a["value"]) / a["value"] if a["value"] else 0.0
    worse_by = change if metric["better"] == "lower" else -change
    if max(spread(a), spread(b)) > metric["bound"]:
        return change, "unresolved"
    if worse_by > metric["bound"]:
        return change, "worse"
    if worse_by < -metric["bound"]:
        return change, "better"
    return change, "within bound"


def compare(path_a: Path, path_b: Path, declared: dict) -> int:
    """Print per workload x end-to-end metric verdicts and the layer tables."""
    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    if a["mode"] != b["mode"]:
        print(f"error: cannot compare a {a['mode']} report with a {b['mode']} report",
              file=sys.stderr)
        return 2
    print(f"A = {path_a} ({a['cpus']} cpus, Python {a['python']}); "
          f"B = {path_b} ({b['cpus']} cpus, Python {b['python']})")
    header = (f"{'workload':<12}{'metric':<14}{'A value [q1, q3]':>34}"
              f"{'B value [q1, q3]':>34}{'delta':>9}{'bound':>8}  verdict")
    print(header)

    def shown(s: dict) -> str:
        return f"{s['value']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    common = [name for name in a["workloads"] if name in b["workloads"]]
    for name in common:
        for metric in declared["end_to_end"]:
            sa = a["workloads"][name]["end_to_end"].get(metric["name"])
            sb = b["workloads"][name]["end_to_end"].get(metric["name"])
            if sa is None or sb is None:
                print(f"{name:<12}{metric['name']:<14}{'missing':>34}")
                continue
            change, word = verdict(sa, sb, metric)
            print(f"{name:<12}{metric['name']:<14}{shown(sa):>34}{shown(sb):>34}"
                  f"{change * 100:>8.1f}%{metric['bound'] * 100:>7.0f}%  {word}")
    for name in common:
        la, lb = a["workloads"][name]["per_layer"], b["workloads"][name]["per_layer"]
        print(f"\n{name}: per-layer{'':<27}{'A':>14}{'B':>14}{'delta':>9}")
        for metric in declared["per_layer"]:
            va, vb = la.get(metric["name"]), lb.get(metric["name"])
            if va is None or vb is None:
                continue
            delta = f"{(vb - va) / va * 100:.1f}%" if va else "-"
            print(f"  {metric['name']:<42}{va:>14.6g}{vb:>14.6g}{delta:>9}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Stack benchmark: end-to-end and per-layer metrics for six workloads.",
        allow_abbrev=False,
    )
    parser.add_argument("--seed", type=int, default=PIN_SEED, help="workload seed")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads for a full report")
    parser.add_argument("--smoke", action="store_true",
                        help="quick sizes, one run per workload")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for report.json and trace/<workload>.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two report.json files")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure one workload for --seconds and print one JSON line")
    parser.add_argument("--seconds", type=float, help="measuring time with --workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer metrics")
    args = parser.parse_args(argv)
    if not BENCHMARK_JSON.is_file():
        print(f"error: {BENCHMARK_JSON} is missing", file=sys.stderr)
        return 2
    declared = load_declared()
    if args.compare:
        return compare(*args.compare, declared)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    return run_timed(args, declared) if args.workload else run_full(args, declared)


if __name__ == "__main__":
    sys.exit(main())
