"""Tests for the run pipeline: execute_spec, Runner, and verify."""

import json

import pytest

from repro.harness import registry
from repro.harness.manifest import RunRecord
from repro.harness.runner import RunRequest, Runner, execute_spec
from repro.net.clock import EventLoop

# The three fastest experiments (sub-100ms each), used wherever a test
# has to actually execute experiments rather than mock them.
FAST = ["token-defense", "consent", "ecdn"]


def quick_params(name: str) -> dict:
    spec = registry.get(name)
    return spec.resolve_params(quick=True)


class TestExecuteSpec:
    @pytest.mark.parametrize("name", FAST)
    def test_digest_stable_across_two_same_seed_runs(self, name):
        first = execute_spec(name, seed=2024, params=quick_params(name))
        second = execute_spec(name, seed=2024, params=quick_params(name))
        assert first.record.ok and second.record.ok
        assert first.record.result_digest == second.record.result_digest
        assert first.record.events_fired == second.record.events_fired

    def test_different_seed_changes_digest(self):
        # propagation is seed-sensitive even at quick scale (swarm
        # topology and infection order depend on the RNG stream).
        a = execute_spec("propagation", seed=1, params=quick_params("propagation"))
        b = execute_spec("propagation", seed=2, params=quick_params("propagation"))
        assert a.record.result_digest != b.record.result_digest

    def test_record_fields_populated(self):
        outcome = execute_spec("token-defense", seed=2024)
        record = outcome.record
        assert record.experiment == "token-defense"
        assert record.seed == 2024
        assert record.status == "ok"
        assert record.result_digest
        assert record.result_type
        assert record.events_fired > 0
        assert record.wall_seconds >= 0
        assert outcome.rendered
        assert isinstance(outcome.result_dict, dict)

    def test_error_captured_not_raised(self):
        outcome = execute_spec("token-defense", seed=2024, params={"no_such_kw": 1})
        assert outcome.record.status == "error"
        assert "no_such_kw" in (outcome.record.error or "")
        assert outcome.record.result_digest is None

    def test_profile_collects_sites(self):
        outcome = execute_spec("token-defense", seed=2024, profile=True)
        assert outcome.profile is not None
        assert outcome.profile["total_events"] == outcome.record.events_fired
        assert outcome.profile["sites"]

    def test_process_mode_shards_count_their_events(self, monkeypatch):
        # Forked shard workers fire their events outside the parent's
        # FIRED_TOTAL; the coordinator must fold their counts
        # into the run record.
        for name in ("REPRO_SHARD_WORKERS", "REPRO_DETSAN"):
            monkeypatch.delenv(name, raising=False)
        params = dict(quick_params("swarm-scale"), shard_workers=2)
        record = execute_spec("swarm-scale", seed=2024, params=params).record
        assert record.ok and record.extra["mode"] == "process"
        assert record.events_fired == record.extra["events_fired"] > 0
        # The workers' own high-water marks, which getrusage(SELF) in
        # the coordinator does not include.
        assert record.extra["worker_peak_rss_kb"] > 0

    def test_profiled_multi_worker_swarm_runs_inline(self, monkeypatch):
        # An observer cannot see a worker process's loop, so --profile
        # keeps every shard in one address space: the site table covers
        # every event, and the digest is the process-mode one.
        for name in ("REPRO_SHARD_WORKERS", "REPRO_DETSAN"):
            monkeypatch.delenv(name, raising=False)
        params = dict(quick_params("swarm-scale"), shard_workers=2)
        forked = execute_spec("swarm-scale", seed=2024, params=params).record
        assert forked.ok and forked.extra["mode"] == "process"
        outcome = execute_spec("swarm-scale", seed=2024, params=params, profile=True)
        record = outcome.record
        assert record.ok, record.error
        assert record.extra["mode"] == "inline"
        assert sum(outcome.profile["sites"].values()) == record.events_fired == 2000
        assert record.result_digest == forked.result_digest
        assert record.result_digest.startswith("3c24d8f8fd10")

    def test_events_fired_sums_every_loop_the_run_built(self, monkeypatch):
        loops = []
        init = EventLoop.__init__

        def collect(self):
            init(self)
            loops.append(self)

        monkeypatch.setattr(EventLoop, "__init__", collect)
        params = quick_params("scenario-matrix")
        record = execute_spec("scenario-matrix", seed=2024, params=params).record
        assert record.ok, record.error
        assert len(loops) > 1
        assert record.events_fired == sum(loop.events_fired for loop in loops) == 4998

    def test_plain_run_arms_no_observer(self, monkeypatch):
        monkeypatch.delenv("REPRO_DETSAN", raising=False)
        armed = []
        drain = EventLoop._drain

        def watch(self, deadline, budget):
            armed.append(EventLoop._observers)
            return drain(self, deadline, budget)

        monkeypatch.setattr(EventLoop, "_drain", watch)
        record = execute_spec("token-defense", seed=2024).record
        assert record.ok and record.events_fired > 0
        assert armed and all(observers == () for observers in armed)

    def test_profile_and_sanitize_observe_the_same_events(self):
        params = quick_params("chaos")
        outcome = execute_spec("chaos", seed=2024, params=params, profile=True, sanitize=True)
        assert outcome.record.ok, outcome.record.error
        assert outcome.trace is not None and outcome.profile is not None
        assert (outcome.trace.count == outcome.profile["total_events"]
                == outcome.record.events_fired > 0)
        assert EventLoop._observers == ()


class TestRunner:
    def test_preserves_request_order(self):
        runner = Runner(jobs=1)
        requests = [RunRequest(n, 2024, quick_params(n)) for n in FAST]
        outcomes = runner.run(requests)
        assert [o.record.experiment for o in outcomes] == FAST

    def test_writes_manifest_and_result_artifacts(self, tmp_path):
        runner = Runner(jobs=1, out_dir=tmp_path)
        outcomes = runner.run([RunRequest("token-defense", 2024, {})])
        manifest_path = tmp_path / "token-defense.manifest.json"
        result_path = tmp_path / "token-defense.result.json"
        assert manifest_path.exists() and result_path.exists()
        assert RunRecord.read(manifest_path) == outcomes[0].record
        payload = json.loads(result_path.read_text())
        assert payload["experiment"] == "token-defense"
        assert payload["result_digest"] == outcomes[0].record.result_digest
        assert payload["result"] == outcomes[0].result_dict

    def test_verify_passes_for_deterministic_experiments(self):
        runner = Runner(jobs=1)
        report = runner.verify(
            FAST, seed=2024, runs=2, params_for={n: quick_params(n) for n in FAST}
        )
        assert report.ok
        assert report.mismatches() == []
        assert "deterministic" in report.render()
        for name in FAST:
            assert len(report.digests[name]) == 2
            assert len(set(report.digests[name])) == 1

    def test_verify_flags_errors(self):
        runner = Runner(jobs=1)
        report = runner.verify(
            ["token-defense"], seed=2024, runs=2,
            params_for={"token-defense": {"bogus_kw": 1}},
        )
        assert not report.ok
        assert report.mismatches() == ["token-defense"]
        assert "token-defense" in report.errors
        assert "NON-DETERMINISTIC" in report.render()
