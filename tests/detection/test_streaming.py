"""Streaming detection pipeline: shard invariance, resume, and report views.

The contract under test: the streamed, sharded, parallel, resumable
pipeline produces the same ``PipelineReport`` at any decomposition —
pinned below by seed-2024 content digests so any divergence (shard
layout leaking into content, merge order, serialization drift) fails
loudly.
"""

import json

import pytest

from repro.detection.stages import ShardScanState
from repro.detection.streaming import (
    ScanIncomplete,
    StreamingDetectionPipeline,
    merge_shard_states,
    scan_shard,
)
from repro.util.errors import ConfigurationError
from repro.web.corpus import CorpusConfig

SMALL = CorpusConfig(noise_video_sites=10, noise_nonvideo_sites=5, noise_apps=5)
SEED = 2024
WATCH = 30.0

# Seed-2024 pins over the SMALL corpus. These change only when the
# detection methodology (or its canonical serialization) changes — never
# with --shards / --scan-jobs / --resume.
PIN_SCAN_DIGEST = "d58e9fd8b418992e817872213ba6b3b47d09d521f78da35fe6350a5c1b530997"
PIN_REPORT_DIGEST = "cbc70c584c51235fd6c6b4b806a85c65b777efb3c54a6661f47c792c19811126"


def stream(shards=1, jobs=1, **kwargs):
    return StreamingDetectionPipeline(
        seed=SEED, config=SMALL, shards=shards, scan_jobs=jobs, watch_seconds=WATCH, **kwargs
    )


@pytest.fixture(scope="module")
def streamed_outcome():
    return stream(shards=4).run()


class TestReportViews:
    def test_provider_counts_match_derived_views(self, streamed_outcome):
        # Regression for the single-walk provider_counts rewrite: it must
        # agree with the (slow) derived-view definition it replaced.
        report = streamed_outcome.report
        for provider in ("peer5", "streamroot", "viblast"):
            counts = report.provider_counts(provider)
            potential_apps = report.potential_apps(provider)
            confirmed_apps = set(report.confirmed_apps(provider))
            assert counts.potential_sites == len(report.potential_sites(provider))
            assert counts.confirmed_sites == len(report.confirmed_sites(provider))
            assert counts.potential_apps == len(potential_apps)
            assert counts.confirmed_apps == len(confirmed_apps)
            assert counts.potential_apks == sum(
                report.app_scans[p].pdn_apk_versions for p in potential_apps
            )
            assert counts.confirmed_apks == sum(
                report.app_scans[p].pdn_apk_versions for p in confirmed_apps
            )


class TestShardInvariance:
    @pytest.mark.parametrize("shards", [1, 4, 7])
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_report_digest_pinned(self, shards, jobs):
        outcome = stream(shards=shards, jobs=jobs).run()
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST

    @pytest.mark.parametrize("shards", [1, 3, 8])
    def test_scan_state_digest_pinned(self, shards):
        states = [scan_shard((SEED, SMALL, i, shards)) for i in range(shards)]
        merged = merge_shard_states(states)
        assert merged.content_digest() == PIN_SCAN_DIGEST

    def test_merge_is_order_independent(self):
        states = [scan_shard((SEED, SMALL, i, 3)) for i in range(3)]
        forward = merge_shard_states(states)
        backward = merge_shard_states(list(reversed(states)))
        assert forward.content_digest() == backward.content_digest()

    def test_merge_rejects_overlapping_shards(self):
        state = scan_shard((SEED, SMALL, 0, 2))
        with pytest.raises(ConfigurationError, match="overlapping"):
            merge_shard_states([state, state])

    def test_shard_state_roundtrips_through_json(self):
        state = scan_shard((SEED, SMALL, 0, 2))
        clone = ShardScanState.from_dict(json.loads(json.dumps(state.to_dict())))
        assert clone.to_dict() == state.to_dict()
        assert clone.content_digest() == state.content_digest()


class TestResume:
    def test_interrupt_then_resume(self, tmp_path):
        run_dir = tmp_path / "run"
        # First invocation is bounded to 2 of 4 shards: an interrupt.
        with pytest.raises(ScanIncomplete):
            stream(shards=4, resume_dir=run_dir, max_shards=2).run()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert sorted(manifest["completed"]) == ["0", "1"]
        # Second invocation finishes: completed shards load, only the
        # remaining two execute, and the digest matches an uninterrupted run.
        outcome = stream(shards=4, resume_dir=run_dir).run()
        assert outcome.shards_loaded == [0, 1]
        assert outcome.shards_executed == [2, 3]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["result_digest"] == PIN_REPORT_DIGEST
        # Third invocation re-executes nothing at all.
        outcome = stream(shards=4, resume_dir=run_dir).run()
        assert outcome.shards_executed == []
        assert outcome.shards_loaded == [0, 1, 2, 3]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST

    def test_corrupted_shard_is_rescanned(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ScanIncomplete):
            stream(shards=4, resume_dir=run_dir, max_shards=2).run()
        shard_file = run_dir / "shard-0001.json"
        data = json.loads(shard_file.read_text())
        data["video_related_scanned"] += 1  # fails the manifest's digest pin
        shard_file.write_text(json.dumps(data))
        outcome = stream(shards=4, resume_dir=run_dir).run()
        assert outcome.shards_loaded == [0]
        assert outcome.shards_executed == [1, 2, 3]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST

    def test_resume_refuses_mismatched_run(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ScanIncomplete):
            stream(shards=4, resume_dir=run_dir, max_shards=1).run()
        # A shard count that does not evenly subdivide the completed
        # granularity is still an identity mismatch, naming the field.
        with pytest.raises(ConfigurationError, match="resume mismatch.*shards"):
            stream(shards=6, resume_dir=run_dir).run()
        # So is a *downgrade*, even to a divisor of the completed count.
        with pytest.raises(ConfigurationError, match="resume mismatch.*shards"):
            stream(shards=2, resume_dir=run_dir).run()
        with pytest.raises(ConfigurationError, match="resume mismatch.*seed"):
            StreamingDetectionPipeline(
                seed=1, config=SMALL, shards=4, resume_dir=run_dir, watch_seconds=WATCH
            ).run()
        with pytest.raises(ConfigurationError, match="resume mismatch.*config_digest"):
            StreamingDetectionPipeline(
                seed=SEED,
                config=CorpusConfig(noise_video_sites=11, noise_nonvideo_sites=5, noise_apps=5),
                shards=4, resume_dir=run_dir, watch_seconds=WATCH,
            ).run()

    def test_resume_upgrade_subdivides_completed_shards(self, tmp_path):
        run_dir = tmp_path / "run"
        # Interrupt a 2-shard run after one shard, then resume at 4
        # shards: shard 0-of-2 covers new shards {0, 2}, so only {1, 3}
        # execute, and the report digest is the decomposition-invariant
        # pin.
        with pytest.raises(ScanIncomplete):
            stream(shards=2, resume_dir=run_dir, max_shards=1).run()
        outcome = stream(shards=4, resume_dir=run_dir).run()
        assert outcome.shards_loaded == [0, 2]
        assert outcome.shards_executed == [1, 3]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["shards"] == 4
        assert sorted(manifest["completed"]) == ["1", "3"]
        assert manifest["coarse"] == [{"shards": 2, "completed": {
            "0": manifest["coarse"][0]["completed"]["0"]}}]
        assert (run_dir / "shard-0000-of-2.json").exists()
        # The renamed coarse file cannot collide with the new shard 0…
        assert not (run_dir / "shard-0000.json").exists()
        # …and a further resume at the upgraded count loads everything.
        outcome = stream(shards=4, resume_dir=run_dir).run()
        assert outcome.shards_executed == []
        assert outcome.shards_loaded == [0, 1, 2, 3]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST

    def test_resume_upgrade_of_finished_run_rescans_nothing(self, tmp_path):
        run_dir = tmp_path / "run"
        first = stream(shards=2, resume_dir=run_dir).run()
        outcome = stream(shards=8, resume_dir=run_dir).run()
        assert outcome.shards_executed == []
        assert outcome.shards_loaded == list(range(8))
        assert outcome.report.content_digest() == first.report.content_digest()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["result_digest"] == PIN_REPORT_DIGEST

    def test_resume_upgrade_twice_stacks_granularities(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ScanIncomplete):
            stream(shards=2, resume_dir=run_dir, max_shards=1).run()
        with pytest.raises(ScanIncomplete):
            # 2 → 4: coarse shard 0-of-2 covers {0, 2}; scan only shard 1.
            stream(shards=4, resume_dir=run_dir, max_shards=1).run()
        # 4 → 8 must subdivide *both* completed granularities (2 and 4).
        outcome = stream(shards=8, resume_dir=run_dir).run()
        assert outcome.shards_loaded == [0, 1, 2, 4, 5, 6]  # 0-of-2 → {0,2,4,6}; 1-of-4 → {1,5}
        assert outcome.shards_executed == [3, 7]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST
        # A count that divides by 4 and 8 but not… there is none ≤ the
        # stack; instead check a non-multiple of the finest block fails.
        with pytest.raises(ConfigurationError, match="resume mismatch.*shards"):
            stream(shards=12, resume_dir=run_dir).run()

    def test_resume_upgrade_corrupted_coarse_shard_rescans_fine(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(ScanIncomplete):
            stream(shards=2, resume_dir=run_dir, max_shards=1).run()
        # Trigger the upgrade (renames shard-0000.json → -of-2), then
        # corrupt the coarse file: its whole coverage {0, 2} re-scans at
        # the new granularity and the digest still pins.
        with pytest.raises(ScanIncomplete):
            stream(shards=4, resume_dir=run_dir, max_shards=0).run()
        coarse_file = run_dir / "shard-0000-of-2.json"
        data = json.loads(coarse_file.read_text())
        data["video_related_scanned"] += 1
        coarse_file.write_text(json.dumps(data))
        outcome = stream(shards=4, resume_dir=run_dir).run()
        assert outcome.shards_loaded == []
        assert outcome.shards_executed == [0, 1, 2, 3]
        assert outcome.report.content_digest() == PIN_REPORT_DIGEST
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "coarse" not in manifest  # the emptied block is pruned
