"""The perf runner's gate and its refusals, with faked children.

``benchmarks/bench_paper_scale.py`` is a script, not a package module,
so it is loaded by path. Its ``run_child`` is replaced by a fake that
returns manifest-shaped records, so these tests start no process.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "benchmarks"


def load_script(name: str):
    """Import ``benchmarks/<name>.py`` under its own module name."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


runner = load_script("bench_paper_scale")


def make_tree(root: Path) -> Path:
    (root / "src" / "repro").mkdir(parents=True)
    return root


@pytest.fixture
def trees(tmp_path):
    return {label: make_tree(tmp_path / label) for label in ("parent", "change")}


def fake_children(monkeypatch, walls: dict, digest=lambda tree, name, run: "d", origin=None):
    """Serve ``walls[(label, name)]`` seconds for each child of the tree ``label``."""
    runs: dict = {}

    def run_child(tree, name):
        run = runs[tree, name] = runs.get((tree, name), 0) + 1
        return {
            "wall_seconds": walls[tree.name, name],
            "events_fired": 1_000,
            "result_digest": digest(tree, name, run),
            "peak_rss_kb": 50_000,
            "repro": str(origin or tree / "src" / "repro" / "__init__.py"),
        }

    monkeypatch.setattr(runner, "run_child", run_child)


def run_main(trees, names, out, runs=3):
    return runner.main([*names, "--runs", str(runs), "--out", str(out),
                        "--tree", f"parent={trees['parent']}",
                        "--tree", f"change={trees['change']}"])


class TestGate:
    def test_trips_only_for_the_name_over_the_margin(self, monkeypatch, trees, tmp_path, capsys):
        fake_children(monkeypatch, {
            ("parent", "slowed"): 1.0, ("change", "slowed"): 1.5,
            ("parent", "steady"): 1.0, ("change", "steady"): 1.4,
        })
        out = tmp_path / "BENCH_gate.json"
        assert run_main(trees, ["slowed", "steady"], out) == 1
        gated = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("PERF GATE")]
        assert len(gated) == 1 and gated[0].startswith("PERF GATE: slowed ")
        data = json.loads(out.read_text())
        assert data["benchmark"] == "gate"
        assert data["experiments"]["slowed"]["rounds_won_by_change"] == 0
        assert data["experiments"]["steady"]["wall_median_ratio"] == pytest.approx(1 / 1.4)

    def test_a_faster_second_tree_passes(self, monkeypatch, trees, tmp_path):
        fake_children(monkeypatch, {("parent", "sped"): 1.5, ("change", "sped"): 1.0})
        assert run_main(trees, ["sped"], tmp_path / "out.json") == 0

    def test_a_single_tree_is_measured_but_not_gated(self, monkeypatch, trees, tmp_path):
        fake_children(monkeypatch, {("change", "alone"): 9.0})
        out = tmp_path / "out.json"
        assert runner.main(["alone", "--runs", "2", "--out", str(out),
                            "--tree", f"change={trees['change']}"]) == 0
        assert "wall_median_ratio" not in json.loads(out.read_text())["experiments"]["alone"]


class TestRefusals:
    def test_repro_imported_from_outside_the_tree_is_an_error(self, monkeypatch, trees, tmp_path):
        fake_children(monkeypatch, {("parent", "swarm_1k"): 1.0, ("change", "swarm_1k"): 1.0},
                      origin=trees["change"] / "src" / "repro" / "__init__.py")
        with pytest.raises(RuntimeError, match="imported repro from"):
            run_main(trees, ["swarm_1k"], tmp_path / "out.json")
        assert not (tmp_path / "out.json").exists()

    def test_runs_disagreeing_on_digest_are_an_error(self, monkeypatch, trees, tmp_path):
        fake_children(monkeypatch, {("parent", "swarm_1k"): 1.0, ("change", "swarm_1k"): 1.0},
                      digest=lambda tree, name, run: f"d{run % 2}")
        with pytest.raises(RuntimeError, match="runs disagree on result_digest"):
            run_main(trees, ["swarm_1k"], tmp_path / "out.json")


class TestChildProtocol:
    def test_scenario_line_is_manifest_shaped_and_names_this_tree(self, capsys):
        assert runner.scenario_main({"tiny": lambda: "abc"}, ["tiny"]) == 0
        line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert line["result_digest"] == "abc" and line["events_fired"] == 0
        assert line["wall_seconds"] >= 0 and line["peak_rss_kb"] > 0
        runner.check_origin(line, ROOT)
        assert runner.peak_rss_kb(line) == line["peak_rss_kb"]

    def test_unknown_scenario_is_refused(self):
        with pytest.raises(SystemExit, match="one of tiny"):
            runner.scenario_main({"tiny": lambda: "abc"}, ["huge"])

    @pytest.mark.parametrize("script", sorted(runner.SCENARIOS))
    def test_runner_table_matches_each_script(self, script):
        module = load_script(script.removesuffix(".py"))
        assert tuple(module.SCENARIOS) == runner.SCENARIOS[script]
