"""Tables I–IV: the detection pipeline's outputs.

Runs the full §III-C methodology over the seeded corpus and formats the
four tables the paper reports. Paper values are embedded for
side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.pipeline import PipelineReport
from repro.detection.streaming import StreamingDetectionPipeline
from repro.harness.registry import CliOption, experiment
from repro.harness.result import ResultBase
from repro.util.tables import fmt_count, render_table
from repro.web.corpus import (
    CONFIRMED_APPS,
    CONFIRMED_WEBSITES,
    PRIVATE_SERVICES,
    Corpus,
    CorpusConfig,
    quick_corpus_config,
)

#: The sharding/resume options both detection experiments expose.
STREAMING_OPTIONS = (
    CliOption("--shards", "shards", int, 1, "split the corpus scan into N strided shards"),
    CliOption("--scan-jobs", "scan_jobs", int, 1, "scan shards across a process pool this wide"),
    CliOption("--resume", "resume", str, None, "persist completed shards under DIR; skip them on re-run"),
)

PAPER_TABLE1 = {
    "peer5": {"sites": (16, 60), "apps": (15, 31), "apks": (199, 548)},
    "streamroot": {"sites": (1, 53), "apps": (3, 6), "apks": (53, 68)},
    "viblast": {"sites": (0, 21), "apps": (0, 1), "apks": (0, 11)},
}


@dataclass
class DetectionTablesResult(ResultBase):
    """Tables I–IV plus the pipeline report and corpus they came from."""
    report: PipelineReport
    corpus: Corpus

    _serialize_exclude = ("report", "corpus")

    # -- Table I ---------------------------------------------------------

    def table1_rows(self) -> list[list]:
        """Table I rows: per-provider confirmed/potential counts + totals."""
        rows = []
        totals = [0] * 6
        for provider in ("peer5", "streamroot", "viblast"):
            counts = self.report.provider_counts(provider)
            row = [
                provider,
                f"{counts.confirmed_sites}/{counts.potential_sites}",
                f"{counts.confirmed_apps}/{counts.potential_apps}",
                f"{counts.confirmed_apks}/{counts.potential_apks}",
            ]
            paper = PAPER_TABLE1[provider]
            row.append(
                f"{paper['sites'][0]}/{paper['sites'][1]} | "
                f"{paper['apps'][0]}/{paper['apps'][1]} | "
                f"{paper['apks'][0]}/{paper['apks'][1]}"
            )
            rows.append(row)
            for i, value in enumerate(
                [
                    counts.confirmed_sites,
                    counts.potential_sites,
                    counts.confirmed_apps,
                    counts.potential_apps,
                    counts.confirmed_apks,
                    counts.potential_apks,
                ]
            ):
                totals[i] += value
        rows.append(
            [
                "Total",
                f"{totals[0]}/{totals[1]}",
                f"{totals[2]}/{totals[3]}",
                f"{totals[4]}/{totals[5]}",
                "17/134 | 18/38 | 252/627",
            ]
        )
        return rows

    def render_table1(self) -> str:
        """Table I as an aligned text table with the paper column."""
        return render_table(
            ["provider", "websites (conf/pot)", "apps", "APKs", "paper"],
            self.table1_rows(),
            title="Table I: Detected PDN customers",
        )

    # -- Table II --------------------------------------------------------

    def table2_rows(self) -> list[list]:
        """Table II rows: every confirmed website's detection status."""
        confirmed = set(self.report.confirmed_sites())
        rows = []
        for domain, provider, visits in CONFIRMED_WEBSITES:
            rows.append(
                [
                    domain,
                    provider,
                    fmt_count(visits),
                    "confirmed" if domain in confirmed else "MISSED",
                ]
            )
        extra = confirmed - {d for d, _, _ in CONFIRMED_WEBSITES}
        for domain in sorted(extra):
            rows.append([domain, "?", "-", "FALSE POSITIVE"])
        return rows

    def render_table2(self) -> str:
        """Table II as an aligned text table."""
        return render_table(
            ["PDN website", "provider", "monthly visits", "status"],
            self.table2_rows(),
            title="Table II: Confirmed PDN websites",
        )

    # -- Table III -------------------------------------------------------

    def table3_rows(self) -> list[list]:
        """Table III rows: every confirmed app's detection status."""
        confirmed = set(self.report.confirmed_apps())
        rows = []
        for package, provider, downloads in CONFIRMED_APPS:
            rows.append(
                [
                    package,
                    provider,
                    fmt_count(downloads),
                    "confirmed" if package in confirmed else "MISSED",
                ]
            )
        return rows

    def render_table3(self) -> str:
        """Table III as an aligned text table."""
        return render_table(
            ["PDN app", "provider", "downloads", "status"],
            self.table3_rows(),
            title="Table III: Confirmed PDN apps",
        )

    # -- Table IV --------------------------------------------------------

    def table4_rows(self) -> list[list]:
        """Table IV rows: private PDN services and their status."""
        confirmed = set(self.report.confirmed_private())
        rows = []
        for domain, signaling, visits in PRIVATE_SERVICES:
            rows.append(
                [
                    domain,
                    signaling,
                    fmt_count(visits),
                    "confirmed" if domain in confirmed else "MISSED",
                ]
            )
        return rows

    def render_table4(self) -> str:
        """Table IV as an aligned text table."""
        return render_table(
            ["PDN website", "PDN server", "monthly visits", "status"],
            self.table4_rows(),
            title="Table IV: Confirmed private PDN services",
        )

    def render_all(self) -> str:
        """The corpus header plus all four tables, paper order."""
        header = (
            f"Corpus: {self.report.virtual_total_domains} domains "
            f"({self.report.virtual_video_related} video-related, virtual), "
            f"{self.report.video_related_scanned} sites materialised+scanned, "
            f"{len(self.report.extracted_keys)} API keys extracted, "
            f"relay platforms: {', '.join(self.report.relay_sites) or 'none'}"
        )
        return "\n\n".join(
            [header, self.render_table1(), self.render_table2(), self.render_table3(), self.render_table4()]
        )

    def render(self) -> str:
        """Alias for :meth:`render_all`, satisfying the Result protocol."""
        return self.render_all()

    def to_dict(self) -> dict:
        """Export the corpus header figures and all four tables' rows."""
        return {
            "corpus": {
                "virtual_total_domains": self.report.virtual_total_domains,
                "virtual_video_related": self.report.virtual_video_related,
                "video_related_scanned": self.report.video_related_scanned,
                "extracted_keys": sorted(self.report.extracted_keys),
                "relay_sites": list(self.report.relay_sites),
            },
            "table1": self.table1_rows(),
            "table2": self.table2_rows(),
            "table3": self.table3_rows(),
            "table4": self.table4_rows(),
        }


@experiment(
    "detect",
    help="Tables I-IV: the PDN customer detection pipeline",
    paper_ref="Tables I-IV",
    order=10,
    quick_params={"config": quick_corpus_config(), "watch_seconds": 25.0},
    options=STREAMING_OPTIONS,
)
def run(
    seed: int = 2024,
    config: CorpusConfig | None = None,
    watch_seconds: float = 30.0,
    shards: int = 1,
    scan_jobs: int = 1,
    resume: str | None = None,
) -> DetectionTablesResult:
    """Stream the corpus through the pipeline, return the four tables.

    The streaming driver produces bit-identical reports at any
    ``shards``/``scan_jobs`` decomposition, so the tables (and the
    experiment digest) do not depend on how the scan was split.
    """
    pipeline = StreamingDetectionPipeline(
        seed=seed,
        config=config,
        shards=shards,
        scan_jobs=scan_jobs,
        resume_dir=resume,
        watch_seconds=watch_seconds,
    )
    outcome = pipeline.run()
    return DetectionTablesResult(report=outcome.report, corpus=outcome.corpus)
