"""The one perf runner: named runs in fresh children, tree against tree.

A name is either a registered experiment, run as a user pays for it::

    python -m repro <name> --full --out <tmp>

or a bench scenario (:data:`SCENARIOS`), run as::

    python benchmarks/<script> <name>

Either way the child starts with ``PYTHONHASHSEED=0``, ``PYTHONPATH``
set to one tree's ``src`` and that tree as its cwd. A scenario script
always comes from this file's own tree, so both sides of a comparison
run identical benchmark code and only ``repro`` differs. An
experiment's manifest gives ``wall_seconds`` (the experiment body,
timed by the harness), ``events_fired``, ``peak_rss_kb`` and
``result_digest``; a sharded run's peak is the larger of the child's
and its largest worker's (``extra["worker_peak_rss_kb"]``). A scenario
child prints one line of the same shape (:func:`scenario_main`), plus
the file it imported ``repro`` from, which must lie under the measured
tree's ``src``.

Given two trees, the runs alternate between them, and which tree goes
first flips every round, so slow phases of a shared machine hit both
sides alike. Each side reports the median and quartiles of its runs;
the record adds the median ratio and how many rounds the second tree
won. A side whose runs disagree on the digest or the event count is an
error, not a measurement. After writing the records, the run exits 1
if any name's median wall time on the second tree is more than
``1 / (1 - GATE)`` times the first's, and prints each such name: the
perf gate CI runs, parent against change, in one job.

Gate the core scenarios and a paper-scale run against a parent
checkout::

    python benchmarks/bench_paper_scale.py events_loop swarm_1k swarm-scale \\
        --runs 9 --tree parent=../parent-checkout --tree change=.

Measure this tree alone::

    python benchmarks/bench_paper_scale.py ip-leak im-checking --runs 3

Results merge into ``benchmarks/results/BENCH_paper_scale.json`` by
name (``--out`` writes elsewhere, e.g. ``BENCH_core.json``), so
recording one name keeps the others' records. The module only defines
functions: pytest collects ``bench_*.py`` files, and importing this one
runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Callable

BENCH_DIR = pathlib.Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
DEFAULT_OUT = RESULTS_DIR / "BENCH_paper_scale.json"
REPO = BENCH_DIR.parent
#: Seconds before a child run counts as wedged.
RUN_TIMEOUT = 3600
#: The gate: a name fails when the second tree's throughput, the inverse
#: of its median wall time, is more than this share below the first's.
GATE = 0.30
#: Bench scenarios by the script under ``benchmarks/`` that runs them;
#: any other name is a registered experiment.
SCENARIOS = {
    "bench_core_hotpath.py": (
        "events_loop", "swarm_1k", "swarm_10k", "swarm_100k", "swarm_10k_capture",
        "swarm_10k_flash", "swarm_1k_shard", "swarm_100k_shard",
    ),
    "bench_detection_stream.py": ("scan_300k", "scan_3m", "full_300k"),
}


def script_for(name: str) -> str | None:
    """The bench script that runs scenario ``name``; None for an experiment."""
    for script, names in SCENARIOS.items():
        if name in names:
            return script
    return None


def run_child(tree: pathlib.Path, name: str) -> dict:
    """Run ``name`` once in a fresh child against ``tree``; return its manifest."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(tree / "src")}
    script = script_for(name)
    with tempfile.TemporaryDirectory(prefix="paper-scale-") as out:
        if script is None:
            command = [sys.executable, "-m", "repro", name, "--full", "--out", out]
        else:
            command = [sys.executable, str(BENCH_DIR / script), name]
        proc = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{name} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        if script is None:
            manifest = json.loads(pathlib.Path(out, f"{name}.manifest.json").read_text())
        else:
            manifest = json.loads(proc.stdout.splitlines()[-1])
    if manifest.get("status", "ok") != "ok":
        raise RuntimeError(f"{name} in {tree} failed: {manifest['error']}")
    return manifest


def scenario_main(scenarios: dict[str, Callable[[], str]], argv: list[str]) -> int:
    """A bench script's child entry: run the one scenario ``argv`` names.

    ``scenarios`` maps a name to a callable that runs it and returns its
    result digest. The printed line gives the call's wall time (build
    included), the events the tree's loops fired during it, its digest,
    the peak RSS of this process or of any worker it waited for, and the
    file ``repro`` came from.
    """
    if len(argv) != 1 or argv[0] not in scenarios:
        raise SystemExit(f"usage: SCENARIO, one of {', '.join(scenarios)}")
    import repro
    from repro.net.clock import FIRED_TOTAL

    fired = FIRED_TOTAL[0]
    started = time.perf_counter()
    digest = scenarios[argv[0]]()
    wall = time.perf_counter() - started
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({
        "wall_seconds": wall,
        "events_fired": FIRED_TOTAL[0] - fired,
        "result_digest": digest,
        "peak_rss_kb": peak,
        "repro": repro.__file__,
    }))
    return 0


def check_origin(manifest: dict, tree: pathlib.Path) -> None:
    """Refuse a scenario run whose ``repro`` was not imported from ``tree``'s ``src``.

    A child that put another tree's ``src`` first on its path would
    measure that tree on both sides, and no gate could ever fail. An
    experiment child runs ``python -m repro`` from ``tree`` with only its
    ``src`` on the path, and its manifest names no file.
    """
    origin = manifest.get("repro")
    if origin is not None and not pathlib.Path(origin).resolve().is_relative_to(tree / "src"):
        raise RuntimeError(f"imported repro from {origin}, not from {tree / 'src'}")


def peak_rss_kb(manifest: dict) -> int:
    """The run's peak RSS, counting a sharded run's worker processes."""
    worker = manifest.get("extra", {}).get("worker_peak_rss_kb", 0)
    return max(manifest["peak_rss_kb"], worker)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``, plus the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(manifests: list[dict]) -> dict:
    """One side's record; its runs must agree on every simulated quantity."""
    for key in ("result_digest", "events_fired"):
        seen = {m[key] for m in manifests}
        if len(seen) != 1:
            raise RuntimeError(f"runs disagree on {key}: {sorted(seen)}")
    return {
        "result_digest": manifests[0]["result_digest"],
        "events_fired": manifests[0]["events_fired"],
        "wall_seconds": spread([m["wall_seconds"] for m in manifests]),
        "peak_rss_kb": spread([peak_rss_kb(m) for m in manifests]),
    }


def measure(name: str, trees: dict[str, pathlib.Path], runs: int) -> dict:
    """Alternate ``runs`` rounds over ``trees``; return the name's record."""
    labels = list(trees)
    manifests: dict[str, list[dict]] = {label: [] for label in labels}
    for round_index in range(runs):
        order = labels if round_index % 2 == 0 else labels[::-1]
        for label in order:
            manifest = run_child(trees[label], name)
            check_origin(manifest, trees[label])
            manifests[label].append(manifest)
            print(f"{name} round {round_index + 1}/{runs} {label}: "
                  f"{manifest['wall_seconds']:.2f} s, {manifest['events_fired']} events, "
                  f"digest {manifest['result_digest'][:12]}", file=sys.stderr)
    script = script_for(name)
    record = {
        "command": (f"python -m repro {name} --full" if script is None
                    else f"python benchmarks/{script} {name}"),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "runs": runs,
        "sides": {label: summarize(manifests[label]) for label in labels},
    }
    if len(labels) == 2:
        first, second = labels
        before = [m["wall_seconds"] for m in manifests[first]]
        after = [m["wall_seconds"] for m in manifests[second]]
        sides = record["sides"]
        record["digests_match"] = (
            sides[first]["result_digest"] == sides[second]["result_digest"]
        )
        record["wall_median_ratio"] = (
            sides[first]["wall_seconds"]["median"] / sides[second]["wall_seconds"]["median"]
        )
        record["rounds_won_by_" + second] = sum(b > a for b, a in zip(before, after))
    return record


def gate_failures(records: dict[str, dict]) -> list[str]:
    """Names whose second tree ran more than ``GATE`` below the first's throughput."""
    return [name for name, record in records.items()
            if record.get("wall_median_ratio", 1.0) < 1.0 - GATE]


def write(path: pathlib.Path, records: dict[str, dict]) -> None:
    """Merge ``records`` into the JSON file at ``path`` by name."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({"benchmark": path.stem.removeprefix("BENCH_"),
                 "env": {"PYTHONHASHSEED": "0"}})
    data.setdefault("experiments", {}).update(records)
    data["experiments"] = dict(sorted(data["experiments"].items()))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def parse_tree(spec: str) -> tuple[str, pathlib.Path]:
    """``LABEL=PATH`` -> (label, resolved path holding ``src/repro``)."""
    label, sep, path = spec.partition("=")
    if not sep or not label:
        raise argparse.ArgumentTypeError(f"expected LABEL=PATH, got {spec!r}")
    tree = pathlib.Path(path).resolve()
    if not (tree / "src" / "repro").is_dir():
        raise argparse.ArgumentTypeError(f"{tree} has no src/repro")
    return label, tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="+", help="registered experiments or bench scenarios")
    parser.add_argument("--runs", type=int, default=5, help="rounds per name")
    parser.add_argument(
        "--tree", type=parse_tree, action="append", default=[], metavar="LABEL=PATH",
        help="a checkout to measure (repeat for before/after; default: this tree)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to give quartiles")
    labels = [label for label, _ in args.tree]
    if len(set(labels)) != len(labels):
        parser.error("tree labels must be unique")
    trees = dict(args.tree) or {"this-tree": REPO}
    records = {name: measure(name, trees, args.runs) for name in args.names}
    write(args.out, records)
    print(json.dumps(records, indent=2, sort_keys=True))
    failures = gate_failures(records)
    for name in failures:
        print(f"PERF GATE: {name} median {1 / records[name]['wall_median_ratio']:.2f}x "
              f"the {labels[0]} tree's wall time (limit {1 / (1 - GATE):.2f}x)",
              file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
