"""Paper-scale runs as a user pays for them: ``python -m repro <name> --full``.

Every run is a fresh child process::

    python -m repro <name> --full --out <tmp>

with ``PYTHONHASHSEED=0`` and ``PYTHONPATH`` pointing at one tree's
``src``. The manifest the child writes gives the run's
``wall_seconds`` (the experiment body, timed by the harness),
``events_fired``, ``peak_rss_kb`` (the child's high-water mark) and
``result_digest``. A sharded run's workers are processes of their own,
so its peak is the larger of the child's and its largest worker's
(``extra["worker_peak_rss_kb"]``).

Given two trees, the runs alternate between them, and which tree goes
first flips every round, so slow phases of a shared machine hit both
sides alike. Each side reports the median and quartiles of its runs;
the record adds the median ratio and how many rounds the second tree
won. A side whose runs disagree on the digest or the event count is an
error, not a measurement.

Record the ``ip-leak`` before/after in a parent checkout and this tree::

    python benchmarks/bench_paper_scale.py ip-leak --runs 5 \\
        --tree parent=../parent-checkout --tree change=.

Measure this tree alone::

    python benchmarks/bench_paper_scale.py ip-leak im-checking --runs 3

Results merge into ``benchmarks/results/BENCH_paper_scale.json`` by
experiment name (``--out`` writes elsewhere), so recording one
experiment keeps the others' records. The module only defines
functions: pytest collects ``bench_*.py`` files, and importing this one
runs nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
DEFAULT_OUT = RESULTS_DIR / "BENCH_paper_scale.json"
REPO = pathlib.Path(__file__).resolve().parent.parent
#: Seconds before a child run counts as wedged.
RUN_TIMEOUT = 3600


def run_child(tree: pathlib.Path, experiment: str) -> dict:
    """Run one ``--full`` experiment in a fresh child; return its manifest."""
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(tree / "src")}
    with tempfile.TemporaryDirectory(prefix="paper-scale-") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", experiment, "--full", "--out", out],
            cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"{experiment} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        manifest = json.loads(pathlib.Path(out, f"{experiment}.manifest.json").read_text())
    if manifest["status"] != "ok":
        raise RuntimeError(f"{experiment} in {tree} failed: {manifest['error']}")
    return manifest


def peak_rss_kb(manifest: dict) -> int:
    """The run's peak RSS, counting a sharded run's worker processes."""
    return max(manifest["peak_rss_kb"], manifest["extra"].get("worker_peak_rss_kb", 0))


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


def measure(experiment: str, trees: dict[str, pathlib.Path], runs: int) -> dict:
    """Alternate ``runs`` rounds over ``trees``; return the experiment's record."""
    labels = list(trees)
    manifests: dict[str, list[dict]] = {label: [] for label in labels}
    for round_index in range(runs):
        order = labels if round_index % 2 == 0 else labels[::-1]
        for label in order:
            manifest = run_child(trees[label], experiment)
            manifests[label].append(manifest)
            print(f"{experiment} round {round_index + 1}/{runs} {label}: "
                  f"{manifest['wall_seconds']:.2f} s, {manifest['events_fired']} events, "
                  f"digest {manifest['result_digest'][:12]}", file=sys.stderr)
    record = {
        "command": f"python -m repro {experiment} --full",
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


def write(path: pathlib.Path, records: dict[str, dict]) -> None:
    """Merge ``records`` into the JSON file at ``path`` by experiment name."""
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update({"benchmark": "paper_scale", "env": {"PYTHONHASHSEED": "0"}})
    data.setdefault("experiments", {}).update(records)
    data["experiments"] = dict(sorted(data["experiments"].items()))
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
    parser.add_argument("experiments", nargs="+", help="registered experiment names")
    parser.add_argument("--runs", type=int, default=5, help="rounds per experiment")
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
    records = {name: measure(name, trees, args.runs) for name in args.experiments}
    write(args.out, records)
    print(json.dumps(records, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
