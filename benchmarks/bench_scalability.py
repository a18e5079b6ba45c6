"""Scalability: the detection pipeline under growing corpus noise.

The pipeline's verdicts must be a function of the PDN customers, not of
how much unrelated internet surrounds them — and runtime should grow
roughly linearly with corpus size.
"""

import time

from conftest import run_once

from repro.detection.streaming import StreamingDetectionPipeline
from repro.util.tables import render_table
from repro.web.corpus import CorpusConfig


def run_scale(noise_multiplier: int):
    config = CorpusConfig(
        noise_video_sites=40 * noise_multiplier,
        noise_nonvideo_sites=20 * noise_multiplier,
        noise_apps=12 * noise_multiplier,
    )
    started = time.perf_counter()
    outcome = StreamingDetectionPipeline(
        seed=3100 + noise_multiplier, config=config, shards=1, scan_jobs=1,
        watch_seconds=25.0,
    ).run()
    elapsed = time.perf_counter() - started
    report = outcome.report
    totals = [report.provider_counts(p) for p in ("peer5", "streamroot", "viblast")]
    return {
        "noise_x": noise_multiplier,
        "sites": outcome.merged.sites_generated,
        "apps": outcome.merged.apps_generated,
        "confirmed_sites": sum(c.confirmed_sites for c in totals),
        "potential_sites": sum(c.potential_sites for c in totals),
        "confirmed_apps": sum(c.confirmed_apps for c in totals),
        "wall_seconds": elapsed,
    }


def sweep():
    return [run_scale(m) for m in (1, 2, 4)]


def test_pipeline_scalability(benchmark, save_result):
    points = run_once(benchmark, sweep)
    save_result(
        "scalability",
        render_table(
            ["noise x", "sites", "apps", "confirmed/potential sites", "confirmed apps", "wall s"],
            [[p["noise_x"], p["sites"], p["apps"],
              f'{p["confirmed_sites"]}/{p["potential_sites"]}',
              p["confirmed_apps"], f'{p["wall_seconds"]:.2f}'] for p in points],
            title="Pipeline scalability under corpus noise",
        ),
    )
    # Verdicts are invariant under noise.
    for point in points:
        assert point["confirmed_sites"] == 17
        assert point["potential_sites"] == 134
        assert point["confirmed_apps"] == 18
    # Runtime grows sub-quadratically (roughly linear in corpus size).
    small, _, large = points
    size_ratio = large["sites"] / small["sites"]
    time_ratio = large["wall_seconds"] / max(small["wall_seconds"], 1e-6)
    assert time_ratio < size_ratio * 2.5
