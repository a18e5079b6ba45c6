"""Swarm-scale pollution propagation (§IV-C's impact argument).

The paper argues impact from two observations: during its experiments
"over 10 concurrent connections" tried to download from the controlled
peer, and prior work [75] measured pollution reaching 47% of viewers in
the initial stage. This experiment puts one polluting peer in a swarm of
N benign viewers and measures how far the altered segments travel —
including *second-hop* infection, where benign peers unknowingly re-serve
polluted segments they cached.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.analyzer import PdnAnalyzer
from repro.core.testbed import build_test_bed
from repro.environment import Environment
from repro.harness.registry import experiment
from repro.harness.result import ResultBase
from repro.pdn.provider import PEER5, ProviderProfile
from repro.proxy.fake_cdn import FakeCdn, pollute_after_slow_start, pollute_bytes
from repro.proxy.mitm import MitmProxy
from repro.util.tables import render_kv

import hashlib


@dataclass
class PropagationResult(ResultBase):
    """How far one polluter's segments travelled through the swarm."""
    viewers: int
    infected: int
    polluted_segments_played: int
    attacker_direct_serves: int
    secondary_serves: int  # polluted bytes re-served by benign peers

    @property
    def infection_rate(self) -> float:
        """Fraction of benign viewers that played polluted content."""
        return self.infected / self.viewers if self.viewers else 0.0

    def render(self) -> str:
        """Render the result as the paper-style text block."""
        return render_kv(
            "Pollution propagation in a swarm (paper cites 47% initial-stage reach)",
            [
                ("benign viewers", self.viewers),
                ("viewers that played polluted content", self.infected),
                ("infection rate", f"{self.infection_rate * 100:.0f}%"),
                ("polluted segments played (total)", self.polluted_segments_played),
                ("segments served by the attacker directly", self.attacker_direct_serves),
                ("polluted re-serves by benign peers", self.secondary_serves),
            ],
        )


@experiment(
    "propagation",
    help="§IV-C: swarm-scale pollution propagation",
    paper_ref="§IV-C",
    order=90,
    quick_params={"viewers": 4},
)
def run(
    seed: int = 808,
    viewers: int = 12,
    profile: ProviderProfile = PEER5,
    segments: int = 12,
    segment_seconds: float = 4.0,
    segment_bytes: int = 100_000,
    join_stagger: float = 3.0,
) -> PropagationResult:
    """Run one polluter against a benign swarm and measure spread."""
    env = Environment(seed=seed)
    bed = build_test_bed(
        env,
        profile,
        video_segments=segments,
        segment_seconds=segment_seconds,
        segment_bytes=segment_bytes,
    )
    fake = FakeCdn(
        env.urlspace,
        real_cdn_host=bed.cdn.hostname,
        should_pollute=pollute_after_slow_start(profile.slow_start_segments),
        hostname=f"fake-{bed.cdn.hostname}",
    )
    fake.install()
    polluted_digests = {
        hashlib.sha256(pollute_bytes(s.data, fake.marker)).hexdigest()
        for s in bed.video.segments
    }

    analyzer = PdnAnalyzer(env)
    attacker_proxy = MitmProxy("pollution")
    attacker_proxy.redirect_host(bed.cdn.hostname, fake.hostname)
    attacker = analyzer.create_peer(name="polluter", proxy=attacker_proxy)
    attacker_session = attacker.watch_test_stream(bed)
    if attacker_session.sdk is not None:
        base = bed.video_url.rsplit("/", 1)[0] + "/"
        for segment in bed.video.segments:
            attacker_session.sdk.fetch_segment(
                base, segment.filename, segment.index, lambda data, source, digest: None
            )
    analyzer.run(2.0)

    benign = []
    for i in range(viewers):
        peer = analyzer.create_peer(name=f"viewer-{i}")
        benign.append(peer.watch_test_stream(bed))
        analyzer.run(join_stagger)
    analyzer.run(segments * segment_seconds + 20.0)

    infected = 0
    polluted_played = 0
    secondary_serves = 0
    for session in benign:
        played = session.player.stats.played_digests() if session.player else []
        hits = sum(1 for digest in played if digest in polluted_digests)
        polluted_played += hits
        if hits:
            infected += 1
        if session.sdk is not None and hits:
            # a benign peer that cached polluted segments re-serves them
            secondary_serves += session.sdk.stats.p2p_requests_served
    attacker_serves = (
        attacker_session.sdk.stats.p2p_requests_served if attacker_session.sdk else 0
    )
    analyzer.teardown()
    return PropagationResult(
        viewers=viewers,
        infected=infected,
        polluted_segments_played=polluted_played,
        attacker_direct_serves=attacker_serves,
        secondary_serves=secondary_serves,
    )
