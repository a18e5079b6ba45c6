"""The stack benchmark's tracer, oracles and metric declarations, at smoke size.

Children run exactly as ``benchmarks/stack/run.py`` spawns them, so these
tests exercise the benchmark's own code paths without its full sizes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
STACK = ROOT / "benchmarks" / "stack"
sys.path.insert(0, str(STACK))

import run as stack_run  # noqa: E402
from tracer import LAYERS, OTHER, Tracer, import_all_repro_modules  # noqa: E402

#: Metrics that are times; every other per-layer metric is a count or a
#: ratio of counts and must repeat exactly.
TIMED = ("self_share", "import_s", "trace_overhead")


def _child(workload: str, mode: str, tmp_path: Path) -> dict:
    trace_out = tmp_path / f"{workload}-{mode}-{len(list(tmp_path.iterdir()))}.json"
    cmd = [sys.executable, str(STACK / "child.py"), workload, "2024", mode, "--smoke"]
    if mode == "trace":
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          env=stack_run.child_env(), timeout=120)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "trace":
        report["trace"] = json.loads(trace_out.read_text())
    return report


@pytest.fixture(scope="module")
def matrix_runs(tmp_path_factory) -> dict:
    """Two traced and one untraced smoke run of the scenario matrix."""
    tmp_path = tmp_path_factory.mktemp("stack")
    return {
        "traced": [_child("matrix", "trace", tmp_path) for _ in range(2)],
        "untraced": _child("matrix", "run", tmp_path),
    }


def _timed_run(trace: int, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(STACK / "run.py"), "--workload", "swarm_dense", "--smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestTracedRun:
    def test_layer_self_times_and_other_sum_to_traced_wall(self, matrix_runs):
        for report in matrix_runs["traced"]:
            layers = report["trace"]["layers"]
            assert set(layers) == set(LAYERS) | {OTHER}
            total = sum(row["self_s"] for row in layers.values())
            assert total == pytest.approx(report["wall_s"], rel=0.02)
            assert layers[OTHER]["self_s"] >= 0.0

    def test_traced_digest_equals_untraced_digest(self, matrix_runs):
        untraced = matrix_runs["untraced"]
        assert untraced["problems"] == []
        for report in matrix_runs["traced"]:
            assert report["problems"] == []
            assert report["digest"] == untraced["digest"]

    def test_per_layer_counts_identical_across_two_traced_runs(self, matrix_runs):
        first, second = (
            {name: value for name, value in report["metrics"].items()
             if not name.endswith(TIMED)}
            for report in matrix_runs["traced"]
        )
        assert first == second
        assert first["net.clock.events"] > 0 and first["webrtc.dtls.records"] > 0

    def test_callbacks_the_loop_fires_are_traced_spans(self, matrix_runs):
        sites = matrix_runs["traced"][0]["trace"]["callback_sites"]
        assert sites["repro.webrtc.datachannel.DataChannelLayer._retransmit"] > 0
        assert any("<locals>" in site and count for site, count in sites.items())


class TestWrappers:
    def test_wrappers_reach_name_imported_functions_and_restore_originals(self):
        import repro.experiments.ip_leak_wild as ip_leak
        import repro.net.addresses as addresses
        import repro.privacy.geo as geo
        from repro.harness import registry
        from repro.net.clock import EventLoop

        import_all_repro_modules()
        before = _snapshot()
        original = addresses.classify_ip
        tracer = Tracer()
        tracer.install()
        try:
            for module in (addresses, geo, ip_leak):
                assert module.classify_ip is not original
                assert module.classify_ip.__wrapped__ is original
            assert EventLoop.schedule._stack_traced
            assert registry.get("ip-leak").runner is ip_leak.run and ip_leak.run._stack_traced
            geo.classify_ip("10.0.0.1")
            assert tracer.function_calls("repro.net.addresses.classify_ip") == 1
        finally:
            tracer.uninstall()
        after = _snapshot()
        assert after.keys() == before.keys()
        assert [key for key, value in before.items() if after[key] is not value] == []
        assert geo.classify_ip is original
        assert registry.get("ip-leak").runner is ip_leak.run


def _snapshot() -> dict:
    """Every attribute of every loaded repro module and of its classes."""
    from repro.harness import registry

    out = {("registry", spec.name): spec.runner for spec in registry.all_specs()}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cls_attr, cls_value in vars(value).items():
                    out[(name, attr, cls_attr)] = cls_value
    return out


class TestDeclaredMetrics:
    def test_every_printed_metric_is_declared_and_the_reverse(self, tmp_path):
        declared = stack_run.load_declared()
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = _timed_run(trace, tmp_path)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            names = {metric["name"] for metric in declared[section]}
            assert set(result["metrics"]) == names
            units = {metric["name"]: metric["unit"] for metric in declared[section]}
            assert all(value["unit"] == units[name] for name, value in result["metrics"].items())

    def test_declared_workloads_are_the_benchmark_workloads(self):
        from workloads import WORKLOADS

        declared = stack_run.load_declared()
        assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


class TestCompare:
    def test_refuses_to_compare_smoke_with_full(self, tmp_path, capsys):
        paths = []
        for mode in ("smoke", "full"):
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps({"mode": mode, "cpus": 1, "python": "3", "workloads": {}}))
            paths.append(path)
        assert stack_run.compare(*paths, stack_run.load_declared()) == 2
        assert "cannot compare a smoke report with a full report" in capsys.readouterr().err

    def test_verdicts(self):
        metric = {"name": "wall_s", "better": "lower", "bound": 0.1}

        def summary(median, spread=0.0):
            return {"value": median, "median": median, "q1": median * (1 - spread / 2),
                    "q3": median * (1 + spread / 2), "n": 5}

        assert stack_run.verdict(summary(1.0), summary(1.2), metric)[1] == "worse"
        assert stack_run.verdict(summary(1.0), summary(0.8), metric)[1] == "better"
        assert stack_run.verdict(summary(1.0), summary(1.05), metric)[1] == "within bound"
        assert stack_run.verdict(summary(1.0, 0.3), summary(1.2), metric)[1] == "unresolved"
