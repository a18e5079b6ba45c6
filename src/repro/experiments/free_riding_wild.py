"""§IV-B in-the-wild free-riding study.

Extract API keys from the corpus the way the paper did (regex over
detected customers), then probe each extracted key — authentication
only, no data transfer — under the cross-domain and domain-spoofing
attacks. Paper numbers: 44 extracted, 40 valid, 4 expired; 11/36 Peer5
keys vulnerable cross-domain (0/1 Streamroot, 0/3 Viblast); 40/40
vulnerable to domain spoofing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.free_riding import ApiKeyProbe
from repro.detection.streaming import StreamingDetectionPipeline
from repro.environment import Environment
from repro.harness.registry import experiment
from repro.harness.result import ResultBase
from repro.util.tables import render_kv, render_table
from repro.web.corpus import Corpus, CorpusConfig, build_corpus, quick_corpus_config

PAPER = {
    "extracted": 44,
    "valid": 40,
    "expired": 4,
    "cross_domain_vulnerable": {"peer5": (11, 36), "streamroot": (0, 1), "viblast": (0, 3)},
}


@dataclass
class KeyProbeOutcome:
    """One extracted API key's validity and attack susceptibility."""
    key: str
    provider: str
    owner_domain: str | None
    valid: bool
    cross_domain_ok: bool
    spoofing_ok: bool


@dataclass
class FreeRidingWildResult(ResultBase):
    """Every probed key's outcome, with the paper's summary views."""
    outcomes: list[KeyProbeOutcome] = field(default_factory=list)

    @property
    def extracted(self) -> int:
        """How many API keys the corpus scan extracted."""
        return len(self.outcomes)

    @property
    def valid(self) -> int:
        """Keys the provider still accepts."""
        return sum(1 for o in self.outcomes if o.valid)

    @property
    def expired(self) -> int:
        """Keys the provider has expired or revoked."""
        return self.extracted - self.valid

    def cross_domain_vulnerable(self, provider: str) -> tuple[int, int]:
        """(vulnerable, valid) cross-domain counts for one provider."""
        valid = [o for o in self.outcomes if o.provider == provider and o.valid]
        return sum(1 for o in valid if o.cross_domain_ok), len(valid)

    def spoofing_vulnerable(self) -> tuple[int, int]:
        """(vulnerable, valid) counts under domain spoofing, all providers."""
        valid = [o for o in self.outcomes if o.valid]
        return sum(1 for o in valid if o.spoofing_ok), len(valid)

    def render(self) -> str:
        """Render the result as the paper-style text block."""
        rows = []
        for provider in ("peer5", "streamroot", "viblast"):
            vulnerable, total = self.cross_domain_vulnerable(provider)
            paper_v, paper_t = PAPER["cross_domain_vulnerable"][provider]
            rows.append([provider, f"{vulnerable}/{total}", f"{paper_v}/{paper_t}"])
        spoof_v, spoof_t = self.spoofing_vulnerable()
        summary = render_kv(
            "§IV-B free riding in the wild",
            [
                ("keys extracted (paper: 44)", self.extracted),
                ("valid (paper: 40)", self.valid),
                ("expired (paper: 4)", self.expired),
                (f"domain-spoofing vulnerable (paper: 40/40)", f"{spoof_v}/{spoof_t}"),
            ],
        )
        table = render_table(
            ["provider", "cross-domain vulnerable", "paper"],
            rows,
            title="Cross-domain attack on extracted keys",
        )
        return summary + "\n\n" + table


@experiment(
    "free-riding",
    help="§IV-B: in-the-wild API-key study",
    paper_ref="§IV-B",
    order=30,
    quick_params={"config": quick_corpus_config()},
)
def run(seed: int = 77, config: CorpusConfig | None = None) -> FreeRidingWildResult:
    """Scan the corpus for keys, then probe each one (auth only)."""
    env = Environment(seed=seed)
    # The full corpus attributes keys to their owners and backs the
    # probes; the scan that extracts the keys runs in its own seeded
    # environment, as every detection run does. Signature scan only:
    # key extraction needs no dynamic confirmation.
    corpus = build_corpus(env, config)
    report = StreamingDetectionPipeline(seed, config, confirm=False).run().report

    result = FreeRidingWildResult()
    for key in sorted(report.extracted_keys):
        provider_name, owner = _attribute_key(corpus, key)
        if provider_name is None:
            continue
        provider = corpus.providers[provider_name]
        probe = ApiKeyProbe(env, provider)
        cross_ok, _ = probe.probe(key)
        spoof_ok, _ = (
            probe.probe(key, spoof_domain=owner) if owner else (False, "no owner domain")
        )
        api_key = provider.authenticator.lookup(key)
        result.outcomes.append(
            KeyProbeOutcome(
                key=key,
                provider=provider_name,
                owner_domain=owner,
                valid=bool(api_key and api_key.active),
                cross_domain_ok=cross_ok,
                spoofing_ok=spoof_ok,
            )
        )
    return result


def _attribute_key(corpus: Corpus, key: str) -> tuple[str | None, str | None]:
    """Which provider issued this key, and which customer owns it?"""
    for record in corpus.records:
        if record.api_key == key:
            return record.provider, record.name
    for name, provider in corpus.providers.items():
        if provider.authenticator.lookup(key) is not None:
            return name, None
    return None, None
