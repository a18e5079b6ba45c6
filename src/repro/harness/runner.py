"""The run pipeline: execute specs, record manifests, verify determinism.

:func:`execute_spec` is the unit of work — resolve a spec, run it
(optionally under a per-site profiler), count the events every loop
fired, and package a picklable :class:`RunOutcome`. :class:`Runner`
fans those units out, either in-process or across a
``ProcessPoolExecutor`` (experiments are independent and fully seeded,
so ``repro all --jobs N`` is embarrassingly parallel), writes
artifacts under ``--out``, and powers
``repro verify``: re-run every experiment at the same seed and fail on
any content-digest mismatch — the replay-from-seed contract reprolint
enforces statically, checked dynamically.

With ``--sanitize`` (or ``REPRO_DETSAN=1``) each execution runs under
DetSan (:mod:`repro.analysis.sanitizer`): wall-clock/global-RNG guards
raise at the offending line, and a dispatch-trace fingerprint rides
back in each :class:`RunOutcome` so ``verify`` can name the *first*
divergent event when digests disagree instead of just the mismatch.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.analysis.sanitizer import TraceSnapshot, first_divergence, sanitized_run
from repro.harness import registry
from repro.harness.manifest import RunRecord
from repro.harness.profile import SiteProfiler, capture_events
from repro.harness.result import canonical_json, content_digest
from repro.net.clock import FIRED_TOTAL
from repro.util.perf import WallTimer, peak_rss_kb, unix_now
from repro.util.tables import render_table


def detsan_env_enabled() -> bool:
    """True when ``REPRO_DETSAN`` asks for sanitized execution."""
    return os.environ.get("REPRO_DETSAN", "") not in ("", "0")


def pool_map(fn, items: Iterable, jobs: int = 1) -> list:
    """Map ``fn`` over ``items``, optionally across a process pool.

    The harness's one parallelism seam: ``Runner.run`` fans experiment
    specs through it, and the streaming detection driver fans corpus
    shards through it. ``fn`` must be a top-level callable and every
    item picklable. Output order always matches input order, so callers
    reduce over results without caring which path executed — ``jobs=1``
    (or a single item) stays in-process, which keeps nested use inside
    already-pooled workers cheap and sanitizer-friendly.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


@dataclass
class RunOutcome:
    """Everything one execution produced, in picklable form."""

    record: RunRecord
    rendered: str = ""
    result_dict: dict[str, Any] | None = None
    profile: dict[str, Any] | None = None
    #: DetSan dispatch-trace snapshot (``--sanitize`` runs only).
    trace: TraceSnapshot | None = None

    def to_payload(self) -> dict[str, Any]:
        """The JSON document written as the per-experiment result file."""
        return {
            "experiment": self.record.experiment,
            "seed": self.record.seed,
            "result_digest": self.record.result_digest,
            "result": self.result_dict,
            "rendered": self.rendered,
            "profile": self.profile,
        }


@dataclass
class RunRequest:
    """One unit of work for the runner."""

    name: str
    seed: int | str
    params: dict[str, Any] = field(default_factory=dict)


def execute_spec(
    name: str,
    seed: int | str,
    params: Mapping[str, Any] | None = None,
    profile: bool = False,
    sanitize: bool = False,
) -> RunOutcome:
    """Run one registered experiment and return its outcome.

    Top-level (not a closure) so a process pool can ship it to workers;
    the registry re-resolves ``name`` inside the child. Exceptions are
    captured into an ``status="error"`` record rather than raised, so a
    failing experiment cannot take down a whole ``repro all`` run.
    ``sanitize`` (or ``REPRO_DETSAN=1``, which workers inherit through
    the environment) runs the experiment under DetSan; a
    ``DetSanViolation`` lands in the error record with the offending
    file and line.
    """
    spec = registry.get(name)
    params = dict(params or {})
    # Shard-aware experiments opt in by exposing a --shard-workers
    # option; REPRO_SHARD_WORKERS then overrides the worker count from
    # the environment so CI can digest-compare worker counts through
    # `repro verify` without threading a flag into every subcommand.
    # The digest is worker-count-invariant by design (docs/SHARDING.md),
    # so this env knob never changes a result, only how it is computed.
    workers_env = os.environ.get("REPRO_SHARD_WORKERS", "")
    if workers_env and any(option.param == "shard_workers" for option in spec.options):
        params["shard_workers"] = int(workers_env)
    sanitize = sanitize or detsan_env_enabled()
    profiler = SiteProfiler() if profile else None
    record = RunRecord(experiment=name, seed=seed, params=params, started_at_unix=unix_now())
    rendered = ""
    result_dict: dict[str, Any] | None = None
    trace: TraceSnapshot | None = None
    detsan = sanitized_run() if sanitize else None
    fired_before = FIRED_TOTAL[0]
    with WallTimer() as timer:
        try:
            with ExitStack() as observers:
                if profiler is not None:
                    observers.enter_context(capture_events(profiler))
                if detsan is not None:
                    observers.enter_context(detsan)
                result = spec.runner(seed=seed, **params)
            result_dict = result.to_dict()
            record.result_digest = content_digest(result_dict)
            record.result_type = type(result).__qualname__
            extra_hook = getattr(result, "manifest_extra", None)
            if callable(extra_hook):
                record.extra = dict(extra_hook())
            rendered = result.render()
        except Exception as exc:  # noqa: BLE001 - converted into the record
            record.status = "error"
            record.error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
    if detsan is not None:
        trace = detsan.snapshot()
    record.wall_seconds = timer.elapsed
    record.events_fired = FIRED_TOTAL[0] - fired_before
    record.peak_rss_kb = peak_rss_kb()
    profile_data = profiler.to_dict() if profiler is not None else None
    return RunOutcome(
        record=record, rendered=rendered, result_dict=result_dict,
        profile=profile_data, trace=trace,
    )


def _execute_request(args: tuple[str, Any, dict, bool, bool]) -> RunOutcome:
    """Pool adapter: unpack one request tuple for :func:`execute_spec`."""
    name, seed, params, profile, sanitize = args
    return execute_spec(name, seed, params, profile, sanitize)


@dataclass
class VerifyReport:
    """The outcome of ``repro verify``: digests per experiment per run."""

    runs: int
    digests: dict[str, list[str | None]] = field(default_factory=dict)
    events: dict[str, list[int]] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    #: DetSan first-divergence reports per experiment (sanitized runs
    #: whose dispatch traces disagreed), rendered for humans.
    divergences: dict[str, str] = field(default_factory=dict)

    def mismatches(self) -> list[str]:
        """Experiments whose repeated runs did not produce one digest.

        A dispatch-trace divergence counts even when the digests agree:
        identical results reached through different event orders are
        exactly the latent nondeterminism ``--sanitize`` exists to
        surface before it reaches a digest.
        """
        out = set(self.divergences)
        for name, digests in self.digests.items():
            if name in self.errors or len(set(digests)) != 1 or digests[0] is None:
                out.add(name)
        return sorted(out)

    @property
    def ok(self) -> bool:
        """True when every experiment replayed to the same digest."""
        return not self.mismatches()

    def render(self) -> str:
        """An aligned pass/fail table over all verified experiments."""
        rows = []
        for name, digests in self.digests.items():
            if name in self.errors:
                status = "ERROR"
            elif name in self.divergences:
                status = "DIVERGED"
            elif len(set(digests)) == 1 and digests[0] is not None:
                status = "ok"
            else:
                status = "MISMATCH"
            shown = ", ".join((d[:12] if d else "-") for d in digests)
            events = "/".join(str(e) for e in self.events.get(name, []))
            rows.append([name, status, shown, events])
        verdict = "deterministic" if self.ok else f"NON-DETERMINISTIC: {', '.join(self.mismatches())}"
        table = render_table(
            ["experiment", "status", f"digests ({self.runs} runs)", "events fired"],
            rows,
            title=f"repro verify — replay-from-seed check ({self.runs} runs each)",
        )
        lines = [table]
        for name in sorted(self.divergences):
            lines.append(f"detsan [{name}]: {self.divergences[name]}")
        lines.append(f"\nverdict: {verdict}")
        return "\n".join(lines)


class Runner:
    """Executes run requests, optionally in parallel, and writes artifacts."""

    def __init__(
        self,
        jobs: int = 1,
        out_dir: Path | str | None = None,
        profile: bool = False,
        sanitize: bool = False,
    ) -> None:
        self.jobs = max(1, jobs)
        self.out_dir = Path(out_dir) if out_dir else None
        self.profile = profile
        self.sanitize = sanitize

    def run(self, requests: Iterable[RunRequest]) -> list[RunOutcome]:
        """Execute every request, preserving input order in the output."""
        requests = list(requests)
        work = [(r.name, r.seed, r.params, self.profile, self.sanitize) for r in requests]
        outcomes = pool_map(_execute_request, work, jobs=self.jobs)
        if self.out_dir is not None:
            for outcome in outcomes:
                self.write_artifacts(outcome)
        return outcomes

    def write_artifacts(self, outcome: RunOutcome) -> tuple[Path, Path]:
        """Write ``<name>.manifest.json`` and ``<name>.result.json``."""
        assert self.out_dir is not None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        name = outcome.record.experiment
        manifest_path = outcome.record.write(self.out_dir / f"{name}.manifest.json")
        result_path = self.out_dir / f"{name}.result.json"
        result_path.write_text(canonical_json(outcome.to_payload()) + "\n")
        return manifest_path, result_path

    def verify(
        self,
        names: Iterable[str],
        seed: int | str,
        runs: int = 2,
        params_for: Mapping[str, Mapping[str, Any]] | None = None,
    ) -> VerifyReport:
        """Re-execute each experiment ``runs`` times; compare digests."""
        names = list(names)
        params_for = params_for or {}
        requests = [
            RunRequest(name, seed, dict(params_for.get(name, {})))
            for _ in range(runs)
            for name in names
        ]
        outcomes = self.run(requests)
        report = VerifyReport(runs=runs)
        traces: dict[str, list[TraceSnapshot]] = {}
        for outcome in outcomes:
            name = outcome.record.experiment
            report.digests.setdefault(name, []).append(outcome.record.result_digest)
            report.events.setdefault(name, []).append(outcome.record.events_fired)
            if outcome.trace is not None:
                traces.setdefault(name, []).append(outcome.trace)
            if not outcome.record.ok and name not in report.errors:
                report.errors[name] = outcome.record.error or "unknown error"
        # Sanitized runs: compare each repeat's dispatch trace against
        # the first and report the first divergent event by site.
        for name, snapshots in sorted(traces.items()):
            for repeat, snapshot in enumerate(snapshots[1:], start=2):
                divergence = first_divergence(snapshots[0], snapshot)
                if divergence is not None:
                    report.divergences[name] = (
                        f"run 1 vs run {repeat}: {divergence.render()}"
                    )
                    break
        return report
