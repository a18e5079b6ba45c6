"""Streaming detection scenarios: throughput and the memory bound.

Streams corpora through the sharded ``StreamingDetectionPipeline``
(8 shards): the paper's 300K-domain corpus and a 10× synthetic
3M-domain corpus with the confirm phase off, and the 300K corpus with
it on. ``benchmarks/bench_paper_scale.py`` runs each scenario in a
fresh child, so each peak RSS is the scenario's own::

    python benchmarks/bench_paper_scale.py scan_300k scan_3m full_300k --runs 9 \\
        --tree parent=../parent-checkout --tree change=.

One child runs one scenario (``PYTHONPATH`` picks the ``repro`` it
measures) and prints one JSON line: wall time, events, digest and peak
RSS::

    PYTHONPATH=src python benchmarks/bench_detection_stream.py scan_3m

The headline claim is that RSS stays flat as the corpus grows, because
shards materialise one droppable site at a time and retain only
potential scans. :func:`test_streaming_scan_rss_bounded` holds smoke
stand-ins of the two corpora, run smallest-first in one process, to
:data:`RSS_RATIO_LIMIT`. The scan is fully seeded, so two runs do
identical work.
"""

from __future__ import annotations

import sys

from bench_paper_scale import scenario_main
from repro.detection.streaming import StreamingDetectionPipeline
from repro.util.perf import peak_rss_kb
from repro.web.corpus import CorpusConfig, quick_corpus_config

#: Peak-RSS growth allowed between the small and the 10× corpus.
RSS_RATIO_LIMIT = 1.5
SHARDS = 8


def corpus_3m() -> CorpusConfig:
    """A 10× synthetic corpus: 3M virtual domains, 10× noise population."""
    return CorpusConfig(
        virtual_total_domains=3_000_000,
        virtual_video_related=687_130,
        noise_video_sites=800,
        noise_nonvideo_sites=400,
        noise_apps=250,
    )


def smoke_3m() -> CorpusConfig:
    """Smoke stand-in for the 10× corpus."""
    return CorpusConfig(noise_video_sites=80, noise_nonvideo_sites=40, noise_apps=40)


def bench_scan(config: CorpusConfig, confirm: bool = False) -> str:
    """Stream one corpus through the scan (and optionally confirm) phase; its digest."""
    outcome = StreamingDetectionPipeline(
        seed=2024, config=config, shards=SHARDS, confirm=confirm, watch_seconds=30.0
    ).run()
    return outcome.report.content_digest() if confirm else outcome.merged.content_digest()


SCENARIOS = {
    "scan_300k": lambda: bench_scan(CorpusConfig()),
    "scan_3m": lambda: bench_scan(corpus_3m()),
    "full_300k": lambda: bench_scan(CorpusConfig(), confirm=True),
}


def test_streaming_scan_rss_bounded():
    """The 10× smoke corpus peaks within the bound of the small one's RSS."""
    bench_scan(quick_corpus_config())
    small = peak_rss_kb()
    bench_scan(smoke_3m())
    ratio = peak_rss_kb() / small
    assert ratio <= RSS_RATIO_LIMIT, f"rss ratio {ratio:.2f}"


if __name__ == "__main__":
    raise SystemExit(scenario_main(SCENARIOS, sys.argv[1:]))
