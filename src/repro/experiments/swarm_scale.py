"""Swarm at production scale: the sharded million-viewer run.

The ROADMAP north star is a simulation that scales like the audiences
the paper measured — Peer5-class PDNs serve millions of concurrent
viewers — and the single-process core caps out near 140k events/sec.
This experiment drives :mod:`repro.net.shard`'s conservative-PDES
coordinator: an indexed swarm partitioned by region across
``--shard-workers`` processes, exchanging cross-region datagrams at
lookahead window barriers. Its result digest is **worker-count
invariant by construction**, which turns every seed pin into a
cross-process correctness oracle: ``repro verify swarm-scale`` with
``REPRO_SHARD_WORKERS`` varied between runs must agree bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.harness.registry import DEFAULT_SEED, CliOption, experiment
from repro.harness.result import ResultBase
from repro.net.shard import SwarmWorkload, build_fault_plan, run_workload
from repro.util.tables import render_kv


@dataclass
class SwarmScaleResult(ResultBase):
    """The merged, K-invariant outcome of one sharded swarm run.

    Worker count, coordinator mode, window count, the per-shard event
    totals and the largest shard's peak RSS are *how* the run was
    computed, not *what* it computed — they are excluded from
    serialization (and therefore from the verify digest) and surfaced
    through :meth:`manifest_extra` instead.
    """

    _serialize_exclude: ClassVar[tuple[str, ...]] = (
        "shard_workers", "mode", "windows", "worker_peak_rss_kb", "events_fired",
    )

    viewers: int
    datagrams: int
    arrivals: str
    plan_name: str
    plan_digest: str
    swarm_digest: str
    sent: int
    delivered: int
    dropped: int
    in_flight: int
    host_checksum: int
    drops_by_reason: dict = field(default_factory=dict)
    per_region: dict = field(default_factory=dict)
    shard_workers: int = 1
    mode: str = "inline"
    windows: int = 0
    #: The largest shard's own peak RSS: a process-mode worker's high
    #: water mark, which the coordinator's ``getrusage`` never sees.
    worker_peak_rss_kb: int = 0
    events_fired: int = 0

    @property
    def conservation_ok(self) -> bool:
        """The core invariant: sent = delivered + dropped + in flight."""
        return self.sent == self.delivered + self.dropped + self.in_flight

    def to_dict(self) -> dict:
        """Dataclass fields plus the derived conservation verdict."""
        out = super().to_dict()
        out["conservation_ok"] = self.conservation_ok
        return out

    def manifest_extra(self) -> dict:
        """Provenance + the K-dependent diagnostics kept off the digest."""
        return {
            "plan_name": self.plan_name,
            "plan_digest": self.plan_digest,
            "swarm_digest": self.swarm_digest,
            "shard_workers": self.shard_workers,
            "mode": self.mode,
            "windows": self.windows,
            "worker_peak_rss_kb": self.worker_peak_rss_kb,
            "events_fired": self.events_fired,
        }

    def render(self) -> str:
        """Render the result as the paper-style text block."""
        drops = ", ".join(f"{k}={v}" for k, v in sorted(self.drops_by_reason.items())) or "none"
        regions = ", ".join(
            f"{region}:{cell['bytes_received']:,}B/{cell['hosts']}h"
            for region, cell in sorted(self.per_region.items())
        )
        return render_kv(
            f"Sharded swarm — {self.viewers:,} viewers, "
            f"{self.shard_workers} worker(s), {self.mode}",
            [
                ("datagrams sent", self.sent),
                ("datagrams delivered", self.delivered),
                ("datagrams dropped", self.dropped),
                ("drops by reason", drops),
                ("conservation (sent = delivered + dropped + in flight)",
                 "ok" if self.conservation_ok else "VIOLATED"),
                ("arrivals", self.arrivals),
                ("fault plan", f"{self.plan_name} ({self.plan_digest[:12]})"),
                ("per-region delivery", regions or "none"),
                ("swarm digest (K-invariant)", self.swarm_digest[:16]),
                ("barrier windows", self.windows),
                ("events fired", self.events_fired),
            ],
        )


@experiment(
    "swarm-scale",
    help="region-sharded swarm scale run (conservative PDES, K-invariant digest)",
    paper_ref="§II-B",
    order=97,
    quick_params={"viewers": 400, "datagrams": 2_000},
    full_params={"viewers": 1_000_000, "datagrams": 2_000_000, "shard_workers": 4},
    options=(
        CliOption("--viewers", "viewers", int, 5_000, "swarm size (indexed viewers)"),
        CliOption("--datagrams", "datagrams", int, 25_000, "total datagrams to exchange"),
        CliOption(
            "--shard-workers",
            "shard_workers",
            int,
            1,
            "worker processes to shard the swarm across (clamped to the "
            "region count; the digest is identical at any value)",
        ),
        CliOption(
            "--faults",
            "faults",
            str,
            "calm",
            "fault plan: preset name (calm, churn, flaky, partition, blackout, "
            "chaos-mix) or a JSON plan file",
        ),
        CliOption(
            "--arrivals",
            "arrivals",
            str,
            "uniform",
            "send-time process: uniform ramp or flash-crowd "
            "(repro.scenarios.arrivals burst)",
        ),
    ),
)
def run(
    seed: int = DEFAULT_SEED,
    viewers: int = 5_000,
    datagrams: int = 25_000,
    shard_workers: int = 1,
    faults: str = "calm",
    arrivals: str = "uniform",
    locality: float = 0.95,
    horizon: float = 60.0,
) -> SwarmScaleResult:
    """Run the sharded swarm and fold the shards into one result."""
    workload = SwarmWorkload(
        viewers=viewers,
        datagrams=datagrams,
        seed=seed,
        locality=locality,
        arrivals=arrivals,
        faults=faults,
        horizon=horizon,
    )
    plan = build_fault_plan(workload)
    report = run_workload(workload, shard_workers)
    return SwarmScaleResult(
        viewers=viewers,
        datagrams=datagrams,
        arrivals=arrivals,
        plan_name=plan.name,
        plan_digest=plan.digest(),
        swarm_digest=report.digest,
        sent=report.totals["sent"],
        delivered=report.totals["delivered"],
        dropped=report.totals["dropped"],
        in_flight=report.totals["in_flight"],
        host_checksum=report.host_checksum,
        drops_by_reason=report.drops_by_reason,
        per_region=report.per_region,
        shard_workers=report.workers,
        mode=report.mode,
        windows=report.windows,
        worker_peak_rss_kb=max(shard["peak_rss_kb"] for shard in report.per_shard),
        events_fired=report.events_fired,
    )
