"""Pinned result digests: the replay-from-seed contract, frozen.

``repro verify`` proves an experiment replays to *some* stable digest;
these pins prove it replays to *the* digest recorded when this tree was
committed. Any change to simulation order, RNG stream consumption, or
result serialisation shows up here as a diff — which is the point: such
changes must be deliberate, and updating the constants below is the
explicit act of accepting them.

The pins run the registry's quick parameterisations at the default seed
(2024), exactly like ``repro <name> --quick``.
"""

import pytest

import repro.experiments  # noqa: F401  - triggers @experiment registration
from repro.harness import registry
from repro.harness.runner import execute_spec

#: name -> digest of ``result.to_dict()`` at seed 2024 with quick params.
#: Recorded with the million-datagram fast-path PR; re-record with
#:   PYTHONPATH=src python -c "from tests.harness.test_digest_pins import \
#:       current_digests; print(current_digests())"
EXPECTED_DIGESTS = {
    "bandwidth": "bf6e25fb8235109c0dd3c76bc45b162a319010a4b5ae675ec4e3dd6e1332c456",
    "chaos": "9a6263c61366eb2f218951774b52abe7d3d99cc838dd0e84d2c8453f4a6061ae",
    "free-riding": "df04fda8afc60a61e6de459b59a9f905a60626bd978922170f65e1f377c73d39",
    "scenario-matrix": "3e4c8b8a0746d3a67c85ca14fa68fd5cf342f015e35a4c1d908f0e7653c3a6eb",
}

#: scenario preset -> digest of a quick scenario-matrix run restricted
#: to that preset crossed with the "churn" fault plan at seed 2024.
#: Each pin freezes one preset's materialised audience *and* its
#: interaction with chaos injection — the preset cannot drift silently.
EXPECTED_SCENARIO_DIGESTS = {
    "cgnat-heavy": "376c84114153a52ffd2299b380b992c1a928ef897249bd9bef64ff7e77c59d53",
    "diurnal": "5d08db4accb30ebad0fee036658787772bde39af3ea71d9808037625ec1232fe",
    "flash-crowd": "60d147107f4b62636e9d6030d8922b239132cd95123a7cd2f6a73de4c7b276ac",
    "steady": "85f5caa42c5e49a0c9bc730fc895282575e56c8753dc1fd55593c73eb60ae459",
    "vod-longtail": "5530406d5cfdd27d289b2abdf876d22684ceb02cb96f2a2dc2d70f07873a1220",
}

PIN_SEED = 2024


def _scenario_params(preset: str) -> dict:
    """Quick scenario-matrix params restricted to one preset × churn."""
    base = dict(registry.get("scenario-matrix").resolve_params(quick=True))
    return {**base, "scenarios": preset, "faults": "churn"}


def current_digests() -> dict:
    """Recompute the pinned digests on the current tree."""
    out = {}
    for name in EXPECTED_DIGESTS:
        params = registry.get(name).resolve_params(quick=True)
        outcome = execute_spec(name, PIN_SEED, params)
        assert outcome.record.ok, outcome.record.error
        out[name] = outcome.record.result_digest
    for preset in EXPECTED_SCENARIO_DIGESTS:
        outcome = execute_spec("scenario-matrix", PIN_SEED, _scenario_params(preset))
        assert outcome.record.ok, outcome.record.error
        out[f"scenario:{preset}"] = outcome.record.result_digest
    return out


class TestDigestPins:
    @pytest.mark.parametrize("name", sorted(EXPECTED_DIGESTS))
    def test_quick_run_matches_pinned_digest(self, name):
        params = registry.get(name).resolve_params(quick=True)
        outcome = execute_spec(name, PIN_SEED, params)
        assert outcome.record.ok, outcome.record.error
        assert outcome.record.result_digest == EXPECTED_DIGESTS[name], (
            f"{name} drifted from its pinned digest — if the simulation "
            f"change is intentional, update EXPECTED_DIGESTS"
        )


class TestScenarioPresetPins:
    def test_pins_cover_every_preset(self):
        from repro.scenarios.planner import SCENARIO_PRESETS

        assert sorted(EXPECTED_SCENARIO_DIGESTS) == sorted(SCENARIO_PRESETS), (
            "add a digest pin for every new scenario preset"
        )

    @pytest.mark.parametrize("preset", sorted(EXPECTED_SCENARIO_DIGESTS))
    def test_preset_cross_churn_matches_pinned_digest(self, preset):
        outcome = execute_spec("scenario-matrix", PIN_SEED, _scenario_params(preset))
        assert outcome.record.ok, outcome.record.error
        assert outcome.record.result_digest == EXPECTED_SCENARIO_DIGESTS[preset], (
            f"scenario preset {preset} drifted from its pinned digest — "
            f"if the change is intentional, update EXPECTED_SCENARIO_DIGESTS"
        )
        assert outcome.record.extra.get("scenarios", {}).get(preset), (
            "run manifest must record the scenario digest"
        )
