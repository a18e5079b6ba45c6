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

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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
    "ip-leak": "d1e25aff850b76b34b43c9efd0e687c240f167ed087414101c7c8b595a6fe4b4",
    "propagation": "855d687406c8a9b8e40b069cd8f7800cae094d2a60e72cda7b8dbe1cd273a4a0",
    "risk-matrix": "af1289603c0ca457d3f6eefcaba4144e3e7ce88feb116c7294eb559293143c40",
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

#: ip-leak variant -> (overrides on the quick params, digest at seed
#: 2024, most events the run may fire or None). Two days cross a
#: harvest-window boundary; polls inside the two windows plus ghost
#: joins and leaves come to ~1.7k events, while polling and reaping
#: through the idle hours cost ~45k. The ``steady`` preset
#: harvests one window over a scenario-driven audience.
EXPECTED_IP_LEAK_DIGESTS = {
    "days=2.0": (
        {"days": 2.0},
        "bbce3c9c9cc40a00692b6081f3edff383645e507e4cdb2c922bf5f48588928c7",
        5_000,
    ),
    "scenario=steady": (
        {"scenario": "steady"},
        "4598e1f2de03c749bc34175be343486e8b65a1ea81d6bf2829ca2eda38316468",
        None,
    ),
}

#: Quick im-checking at seed 2024: its digest, and the most SHA-256
#: passes over segment-sized inputs it may make. That is one pass per
#: (peer, segment) received: 3 plain viewers x 4 segments plus 2 PDN
#: groups x 6 peers x 4 segments. Each hook, the "have" announcements
#: and the player read the one hash taken where the bytes arrived.
EXPECTED_IM_CHECKING_DIGEST = "f4c52917ec3ddf139334c5762953adc375507ad067d04b679554e4e49a3d0dbe"
IM_CHECKING_HASH_BUDGET = 60
SEGMENT_SIZED = 1_000_000  # bytes; segments are 3 MB, DTLS records 16 KB

#: im-checking at the stack bench's ``im_dtls`` size (60 s of 3 MB
#: segments, seed 2024): its digest, and the most bytes ``tracemalloc``
#: may see live at once. At 60 s the analyzer peers stream segments peer
#: to peer, which the quick 40 s run barely does, so this is where
#: payload memory shows. A payload lives only as long as a reader holds
#: it: a socket with a handler queues nothing, an analyzer peer holds no
#: capture, and a data channel keeps one copy of each outgoing message.
#: That peaks at ~90 MB traced; keeping every delivery in an inbox and
#: a per-peer capture peaked at 127 MB.
EXPECTED_IM_DTLS_DIGEST = "bed9e9fd213190f9e8828846e5061c9ecab43efe39956827abbe47074defafcc"
IM_DTLS_PEAK_BUDGET = 105_000_000  # bytes

#: Prints that run's digest and traced peak. It runs in a fresh
#: interpreter: garbage waiting for the cyclic collector counts toward
#: the peak, and how often the collector runs depends on how many
#: objects earlier tests left alive (89.9 MB alone at any hash seed,
#: 108 MB once measured late in a tier-1 run).
IM_DTLS_PEAK_PROBE = """
import tracemalloc
import repro.experiments
from repro.harness import registry
from repro.harness.runner import execute_spec
params = registry.get("im-checking").resolve_params(overrides={"duration": 60.0})
tracemalloc.start()
outcome = execute_spec("im-checking", %d, params)
_, peak = tracemalloc.get_traced_memory()
assert outcome.record.ok, outcome.record.error
print(outcome.record.result_digest, peak)
"""

#: swarm-scale variant -> overrides on the quick params (400 viewers,
#: 2,000 datagrams, one shard, inline) and the digest at seed 2024.
#: The calm run must fire at most one event per datagram: a send is not
#: an event, only its delivery is.
EXPECTED_SWARM_DIGESTS = {
    "calm": (
        {},
        "3c24d8f8fd10f163a7cbe7fa1bfea9bf319c16aee6f9a7f6c6a199e4a8e60d49",
    ),
    "faults=chaos-mix": (
        {"faults": "chaos-mix"},
        "1ca690e2e2822eab10f56af0a3bea145196c54090dc20bc723eb4126603a63db",
    ),
    "arrivals=flash-crowd": (
        {"arrivals": "flash-crowd"},
        "f3fffe9a472aaab8cbbda8cd303197a11c9b335123769377688cee58f20b1e70",
    ),
}

PIN_SEED = 2024


def _scenario_params(preset: str) -> dict:
    """Quick scenario-matrix params restricted to one preset × churn."""
    base = dict(registry.get("scenario-matrix").resolve_params(quick=True))
    return {**base, "scenarios": preset, "faults": "churn"}


def _ip_leak_record(overrides: dict):
    """Run quick ip-leak with ``overrides`` at the pin seed."""
    params = {**registry.get("ip-leak").resolve_params(quick=True), **overrides}
    outcome = execute_spec("ip-leak", PIN_SEED, params)
    assert outcome.record.ok, outcome.record.error
    return outcome.record


def _swarm_record(overrides: dict):
    """Run quick swarm-scale with ``overrides`` at the pin seed."""
    params = {**registry.get("swarm-scale").resolve_params(quick=True), **overrides}
    outcome = execute_spec("swarm-scale", PIN_SEED, params)
    assert outcome.record.ok, outcome.record.error
    return outcome.record


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
    for variant, (overrides, _, _) in EXPECTED_IP_LEAK_DIGESTS.items():
        out[f"ip-leak:{variant}"] = _ip_leak_record(overrides).result_digest
    for variant, (overrides, _) in EXPECTED_SWARM_DIGESTS.items():
        out[f"swarm-scale:{variant}"] = _swarm_record(overrides).result_digest
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


class TestIpLeakPins:
    @pytest.mark.parametrize("variant", sorted(EXPECTED_IP_LEAK_DIGESTS))
    def test_variant_matches_pinned_digest(self, variant):
        overrides, digest, event_budget = EXPECTED_IP_LEAK_DIGESTS[variant]
        record = _ip_leak_record(overrides)
        assert record.result_digest == digest, (
            f"ip-leak {variant} drifted from its pinned digest — if the "
            f"change is intentional, update EXPECTED_IP_LEAK_DIGESTS"
        )
        if event_budget is not None:
            assert record.events_fired <= event_budget


class TestSwarmScalePins:
    @pytest.mark.parametrize("variant", sorted(EXPECTED_SWARM_DIGESTS))
    def test_variant_matches_pinned_digest(self, variant):
        overrides, digest = EXPECTED_SWARM_DIGESTS[variant]
        record = _swarm_record(overrides)
        assert record.result_digest == digest, (
            f"swarm-scale {variant} drifted from its pinned digest — if the "
            f"change is intentional, update EXPECTED_SWARM_DIGESTS"
        )

    def test_calm_run_fires_at_most_one_event_per_datagram(self):
        record = _swarm_record({})
        datagrams = registry.get("swarm-scale").resolve_params(quick=True)["datagrams"]
        assert record.events_fired <= datagrams


def _counting_sha256():
    """A ``hashlib.sha256`` stand-in that counts passes over segment-sized
    inputs. It also serves ``hmac.new`` as a digestmod (constructor,
    ``update``, ``copy``, ``digest``, ``block_size``, ``digest_size``)."""
    real = hashlib.sha256

    class CountingSha256:
        name = "sha256"
        block_size = real().block_size
        digest_size = real().digest_size
        passes = 0

        def __init__(self, data=b"", **kwargs):
            self._state = real(**kwargs)
            self.update(data)

        def update(self, data):
            if len(data) >= SEGMENT_SIZED:
                CountingSha256.passes += 1
            self._state.update(data)

        def copy(self):
            clone = CountingSha256.__new__(CountingSha256)
            clone._state = self._state.copy()
            return clone

        def digest(self):
            return self._state.digest()

        def hexdigest(self):
            return self._state.hexdigest()

    return CountingSha256


class TestImCheckingHashBudget:
    def test_quick_run_hashes_each_received_segment_once(self, monkeypatch):
        counting = _counting_sha256()
        monkeypatch.setattr(hashlib, "sha256", counting)
        params = registry.get("im-checking").resolve_params(quick=True)
        outcome = execute_spec("im-checking", PIN_SEED, params)
        assert outcome.record.ok, outcome.record.error
        assert outcome.record.result_digest == EXPECTED_IM_CHECKING_DIGEST, (
            "im-checking drifted from its pinned digest — if the change is "
            "intentional, update EXPECTED_IM_CHECKING_DIGEST"
        )
        assert counting.passes <= IM_CHECKING_HASH_BUDGET, (
            f"{counting.passes} SHA-256 passes over segments; one per "
            f"(peer, segment) received is {IM_CHECKING_HASH_BUDGET}"
        )


class TestImCheckingMemoryBudget:
    def test_im_dtls_run_stays_under_traced_peak_budget(self):
        # REPRO_* knobs (DetSan, shard workers) would change what is measured.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = "0"
        proc = subprocess.run(
            [sys.executable, "-c", IM_DTLS_PEAK_PROBE % PIN_SEED],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        digest, peak_text = proc.stdout.split()
        peak = int(peak_text)
        assert digest == EXPECTED_IM_DTLS_DIGEST, (
            "im-checking at 60 s drifted from its pinned digest — if the "
            "change is intentional, update EXPECTED_IM_DTLS_DIGEST"
        )
        assert peak <= IM_DTLS_PEAK_BUDGET, (
            f"traced peak {peak / 1e6:.1f} MB over the "
            f"{IM_DTLS_PEAK_BUDGET / 1e6:.0f} MB budget: is a payload "
            f"kept after its reader is done with it?"
        )
