"""The experiment harness: registry, structured results, run pipeline.

The paper's PDN analyzer (Fig. 2) is a *harness* — it runs predefined
security tests and emits comparable reports. This package gives the
reproduction the same shape one layer up:

- :mod:`repro.harness.registry` — ``@experiment(...)`` registration
  turning every module under :mod:`repro.experiments` into a named,
  discoverable :class:`ExperimentSpec` (the CLI builds itself from it);
- :mod:`repro.harness.result` — the :class:`Result` protocol all
  experiment results implement: ``render()`` for the paper-style text
  block, ``to_dict()`` for JSON export, and a stable content digest;
- :mod:`repro.harness.manifest` — the :class:`RunRecord` written for
  every execution (seed, params, wall time, events fired, digest);
- :mod:`repro.harness.runner` — the :class:`Runner` executing specs
  sequentially or in a process pool, writing artifacts, and verifying
  replay-from-seed determinism at runtime (``repro verify``);
- :mod:`repro.harness.profile` — the pre-fire event-loop observers
  surfaced by ``--profile``.
"""

from repro.harness.manifest import RunRecord
from repro.harness.profile import SiteProfiler, capture_events
from repro.harness.registry import CliOption, ExperimentSpec, all_specs, experiment, get, load_all
from repro.harness.result import Result, ResultBase, canonical_json, content_digest, to_jsonable
from repro.harness.runner import RunOutcome, Runner, VerifyReport, execute_spec

__all__ = [
    "CliOption",
    "ExperimentSpec",
    "Result",
    "ResultBase",
    "RunOutcome",
    "RunRecord",
    "Runner",
    "SiteProfiler",
    "VerifyReport",
    "all_specs",
    "canonical_json",
    "capture_events",
    "content_digest",
    "execute_spec",
    "experiment",
    "get",
    "load_all",
    "to_jsonable",
]
