"""Command-line interface: regenerate any of the paper's results.

Subcommands are built from the experiment registry
(:mod:`repro.harness.registry`) — adding an experiment module with an
``@experiment(...)`` registration is all it takes to appear here.

Usage::

    python -m repro list              # show every registered experiment
    python -m repro detect            # Tables I-IV
    python -m repro all --jobs 4      # everything, in paper order, parallel
    python -m repro all --format json --out runs/   # manifests + JSON results
    python -m repro verify --runs 2   # replay-from-seed determinism check
    python -m repro verify --sanitize # ... plus DetSan guards + dispatch traces
    python -m repro bandwidth --profile   # event-loop callback-site profile
    python -m repro lint              # reprolint the source tree
"""

from __future__ import annotations

import argparse
import ast
import json
import sys

from repro.harness import registry
from repro.harness.runner import Runner, RunOutcome, RunRequest


def _parse_override(text: str) -> tuple[str, object]:
    """Parse one ``--param key=value`` override; values via literal_eval."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _add_run_options(sub: argparse.ArgumentParser) -> None:
    """The options shared by every experiment subcommand and ``all``."""
    sub.add_argument("--seed", type=int, default=registry.DEFAULT_SEED, help="simulation seed")
    sub.add_argument("--full", action="store_true", help="paper-scale parameters")
    sub.add_argument("--quick", action="store_true", help="scaled-down smoke parameters")
    sub.add_argument("--out", metavar="DIR", default=None,
                     help="write a manifest + result JSON per experiment under DIR")
    sub.add_argument("--format", choices=("text", "json"), default="text", dest="fmt",
                     help="stdout format (default: text)")
    sub.add_argument("--profile", action="store_true",
                     help="profile event-loop callback sites during the run")
    sub.add_argument("--sanitize", action="store_true",
                     help="run under DetSan: raise on wall-clock/global-RNG use "
                          "in simulation code and fingerprint event dispatch")
    sub.add_argument("-p", "--param", action="append", default=[], type=_parse_override,
                     metavar="KEY=VALUE", help="override one experiment parameter")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser from the experiment registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Stealthy Peers' (DSN 2024) results.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for spec in registry.all_specs():
        sub = subparsers.add_parser(spec.name, help=spec.help)
        _add_run_options(sub)
        for opt in spec.options:
            sub.add_argument(opt.flag, dest=f"opt_{opt.param}", type=opt.type,
                             default=None, help=opt.help)
    all_sub = subparsers.add_parser("all", help="run every experiment in paper order")
    _add_run_options(all_sub)
    all_sub.add_argument("--jobs", type=int, default=1,
                         help="run experiments in a process pool of this size")
    verify = subparsers.add_parser(
        "verify", help="re-run each experiment at the same seed; fail on digest mismatch"
    )
    verify.add_argument("experiments", nargs="*", metavar="EXPERIMENT",
                        help="experiments to verify (default: all)")
    verify.add_argument("--seed", type=int, default=registry.DEFAULT_SEED, help="simulation seed")
    verify.add_argument("--runs", type=int, default=2, help="executions per experiment")
    verify.add_argument("--jobs", type=int, default=1, help="process-pool size")
    verify.add_argument("--quick", action="store_true", help="scaled-down smoke parameters")
    verify.add_argument("--sanitize", action="store_true",
                        help="run under DetSan and report the first divergent "
                             "event when dispatch traces disagree")
    subparsers.add_parser("list", help="list every registered experiment")
    lint = subparsers.add_parser(
        "lint", help="run the determinism & simulation-safety linter (reprolint)"
    )
    lint.add_argument("lint_args", nargs=argparse.REMAINDER,
                      help="arguments forwarded to repro-lint (paths, --format, ...)")
    return parser


def _resolved_params(spec, args) -> dict:
    """Merge the spec's parameter layers with this invocation's flags."""
    option_values = {}
    for opt in spec.options:
        value = getattr(args, f"opt_{opt.param}", None)
        if value is not None:
            option_values[opt.param] = value
    return spec.resolve_params(
        full=args.full,
        quick=args.quick,
        option_values=option_values,
        overrides=dict(args.param),
    )


def _print_text(outcome: RunOutcome) -> None:
    """The classic per-experiment text block: banner, result, timing."""
    record = outcome.record
    print(f"\n{'=' * 72}\n{record.experiment}\n{'=' * 72}")
    if record.ok:
        print(outcome.rendered)
    else:
        print(f"FAILED: {record.error}")
    if outcome.profile:
        from repro.harness.profile import SiteProfiler, render_wheel_summary

        profiler = SiteProfiler()
        profiler.sites = dict(outcome.profile["sites"])
        print()
        print(profiler.render())
        wheel = outcome.profile.get("wheel")
        if wheel:
            print(render_wheel_summary(wheel))
    print(
        f"[{record.experiment}: {record.wall_seconds:.1f}s, "
        f"{record.events_fired} events, digest {str(record.result_digest)[:12]}]"
    )


def _run_experiments(args, names: list[str]) -> int:
    """Execute ``names`` through the runner and emit the chosen format."""
    requests = []
    for name in names:
        spec = registry.get(name)
        requests.append(RunRequest(name, args.seed, _resolved_params(spec, args)))
    runner = Runner(jobs=getattr(args, "jobs", 1), out_dir=args.out,
                    profile=args.profile, sanitize=args.sanitize)
    outcomes = runner.run(requests)
    if args.fmt == "json":
        payload = {
            "runs": [
                {"manifest": o.record.to_dict(), **o.to_payload()} for o in outcomes
            ]
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for outcome in outcomes:
            _print_text(outcome)
    return 0 if all(o.record.ok for o in outcomes) else 1


def _run_verify(args) -> int:
    """The ``repro verify`` subcommand: replay and compare digests."""
    names = args.experiments or registry.names()
    params_for = {}
    for name in names:
        spec = registry.get(name)  # validates unknown names early
        params_for[name] = spec.resolve_params(quick=args.quick)
    runner = Runner(jobs=args.jobs, sanitize=args.sanitize)
    report = runner.verify(names, seed=args.seed, runs=args.runs, params_for=params_for)
    print(report.render())
    for name, error in sorted(report.errors.items()):
        print(f"\n{name} failed:\n{error}")
    return 0 if report.ok else 1


def _run_list() -> int:
    """The ``repro list`` subcommand: show the registry."""
    from repro.util.tables import render_table

    rows = [
        [spec.name, spec.paper_ref or "-", spec.module.rsplit(".", 1)[-1], spec.help]
        for spec in registry.all_specs()
    ]
    print(render_table(["experiment", "paper", "module", "description"], rows,
                       title="registered experiments"))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        # Forwarded before argparse: REMAINDER mangles leading options.
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _run_list()
    if args.command == "verify":
        return _run_verify(args)
    names = registry.names() if args.command == "all" else [args.command]
    return _run_experiments(args, names)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
