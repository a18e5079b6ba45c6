"""Scenario × fault matrix: Table-V/VI outcomes per workload shape.

The paper's in-the-wild findings (free-riding shares, IP leakage,
pollution reach) were measured against *one* audience each. This
experiment crosses every declarative scenario preset
(:mod:`repro.scenarios`) with chaos fault presets
(:mod:`repro.net.faults`) and reports, per cell: did peer-assisted
integrity checking still contain pollution, how many bogon (CGNAT)
addresses leaked into harvests, how much P2P delivery degraded to CDN
fallback, and whether datagram conservation held. Each cell runs in a
fresh environment seeded from ``seed × scenario × fault``, so cells are
deterministic independently of which subset of the matrix is run — and
every scenario digest, fault-plan digest, and timeline digest lands in
the run manifest.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field

from repro.core.analyzer import PdnAnalyzer
from repro.core.testbed import build_test_bed
from repro.defenses.integrity import ClientIntegrity, IntegrityCoordinator
from repro.environment import Environment
from repro.harness.registry import DEFAULT_SEED, CliOption, experiment
from repro.harness.result import ResultBase
from repro.net.addresses import is_bogon
from repro.net.faults import RandomFaultPlanner, load_plan
from repro.pdn.provider import PEER5, ProviderProfile
from repro.proxy.fake_cdn import FakeCdn, pollute_after_slow_start, pollute_bytes
from repro.proxy.mitm import MitmProxy
from repro.scenarios.engine import ScenarioEngine, SwarmViewerFactory
from repro.scenarios.planner import SCENARIO_PRESETS, load_scenario
from repro.scenarios.timeline import materialize
from repro.util.errors import ConfigurationError
from repro.util.tables import render_table


@dataclass
class ScenarioCell:
    """One scenario × fault cell's outcomes."""

    scenario: str
    scenario_digest: str
    fault_plan: str
    fault_digest: str
    timeline_digest: str
    audience: int
    swarm_joins: int
    swarm_leaves: int
    background: int
    overflow: int
    fault_events_applied: int
    infected: int
    polluted_plays: int
    contained: bool
    p2p_fetches: int
    p2p_fallbacks: int
    neighbors_banned: int
    players_finished: int
    stalls: int
    seeks: int
    harvested_ips: int
    leaked_bogons: int
    conservation_ok: bool


@dataclass
class ScenarioMatrixResult(ResultBase):
    """Every cell of the scenario × fault cross."""

    cells: list[ScenarioCell] = field(default_factory=list)

    def manifest_extra(self) -> dict:
        """Provenance: scenario, fault-plan, and timeline digests per cell."""
        return {
            "scenarios": {
                cell.scenario: cell.scenario_digest
                for cell in sorted(self.cells, key=lambda c: c.scenario)
            },
            "fault_plans": {
                cell.fault_plan: cell.fault_digest
                for cell in sorted(self.cells, key=lambda c: c.fault_plan)
            },
            "timelines": {
                f"{cell.scenario}x{cell.fault_plan}": cell.timeline_digest
                for cell in self.cells
            },
        }

    def render(self) -> str:
        """Render the matrix as one row per scenario × fault cell."""
        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.scenario,
                    cell.fault_plan,
                    f"{cell.swarm_joins}/{cell.audience}",
                    cell.background,
                    cell.overflow,
                    cell.fault_events_applied,
                    f"{cell.infected} ({'ok' if cell.contained else 'BREACHED'})",
                    f"{cell.p2p_fetches}/{cell.p2p_fallbacks}",
                    cell.players_finished,
                    cell.stalls,
                    cell.seeks,
                    f"{cell.leaked_bogons}/{cell.harvested_ips}",
                    "ok" if cell.conservation_ok else "VIOLATED",
                ]
            )
        return render_table(
            [
                "scenario",
                "faults",
                "swarm/audience",
                "bg",
                "ovfl",
                "events",
                "infected",
                "p2p/fallback",
                "done",
                "stalls",
                "seeks",
                "bogon/ips",
                "conserved",
            ],
            rows,
            title="Scenario × fault matrix — containment, leakage, resilience per workload",
        )


def _split_axis(raw: str, known: dict, label: str) -> list[str]:
    """Parse a comma-separated axis spec; ``all`` means every preset."""
    if raw.strip() == "all":
        return sorted(known)
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise ConfigurationError(f"empty {label} axis")
    return names


def _run_cell(
    seed: int,
    scenario_name: str,
    fault_name: str,
    max_peers: int,
    horizon: float | None,
    profile: ProviderProfile,
    segments: int,
    segment_seconds: float,
    segment_bytes: int,
) -> ScenarioCell:
    """Run one scenario × fault cell in a fresh, cell-seeded environment."""
    spec = load_scenario(scenario_name)
    if horizon is not None:
        spec = dataclasses.replace(spec, horizon=horizon)
    env = Environment(seed=f"{seed}:scenario:{spec.name}:{fault_name}")
    bed = build_test_bed(
        env,
        profile,
        video_segments=segments,
        segment_seconds=segment_seconds,
        segment_bytes=segment_bytes,
        live=spec.catalog.kind == "live",
    )
    coordinator = IntegrityCoordinator(
        env.loop, env.rand.fork("im"), bed.provider, env.urlspace, quorum=2
    ).install()
    integrity = ClientIntegrity(env.loop, coordinator)

    # One polluting peer per cell: integrity checking (IM/SIM) must keep
    # its altered segments off benign screens in *every* workload shape.
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

    timeline = materialize(spec, env.rand)
    planned_hosts = [
        f"sc{planned.viewer_id}" for planned in timeline.sessions if planned.title == 0
    ]
    plan = load_plan(
        fault_name,
        planner=RandomFaultPlanner(env.rand.fork("fault-plan")),
        hosts=planned_hosts + [attacker.browser.host.name],
        horizon=spec.horizon,
        regions=spec.expected_regions(),
        hostnames=[bed.cdn.hostname],
    )
    injector = env.inject_faults(plan)

    factory = SwarmViewerFactory(
        analyzer, bed, spec, integrity=integrity, injector=injector
    )
    engine = ScenarioEngine(
        env.loop,
        timeline,
        factory.create,
        factory.close,
        on_action=factory.on_action,
        max_peers=max_peers,
    ).start()
    analyzer.run(spec.horizon + 10.0)
    engine.close_all("shutdown")

    infected = polluted_plays = 0
    p2p_fetches = p2p_fallbacks = banned = finished = stalls = seeks = 0
    harvested: set[str] = set()
    for planned, _peer, session in factory.created:
        if session.player is not None:
            hits = sum(
                1 for digest in session.player.stats.played_digests()
                if digest in polluted_digests
            )
            polluted_plays += hits
            infected += 1 if hits else 0
            finished += 1 if session.player.finished else 0
            stalls += session.player.stats.stalls
            seeks += session.player.stats.seeks
        if session.sdk is not None:
            p2p_fetches += session.sdk.stats.p2p_fetches
            p2p_fallbacks += session.sdk.stats.p2p_fallbacks
            banned += session.sdk.stats.neighbors_banned
            harvested.update(ip for _, ip in session.sdk.harvested_ips())
    analyzer.teardown()

    network = env.network
    return ScenarioCell(
        scenario=spec.name,
        scenario_digest=spec.digest(),
        fault_plan=plan.name,
        fault_digest=plan.digest(),
        timeline_digest=timeline.digest(),
        audience=len(timeline.sessions),
        swarm_joins=engine.joins,
        swarm_leaves=engine.leaves,
        background=engine.background,
        overflow=engine.overflow,
        fault_events_applied=injector.events_applied,
        infected=infected,
        polluted_plays=polluted_plays,
        contained=infected == 0,
        p2p_fetches=p2p_fetches,
        p2p_fallbacks=p2p_fallbacks,
        neighbors_banned=banned,
        players_finished=finished,
        stalls=stalls,
        seeks=seeks,
        harvested_ips=len(harvested),
        leaked_bogons=sum(1 for ip in sorted(harvested) if is_bogon(ip)),
        conservation_ok=network.datagrams_sent
        == network.datagrams_delivered + network.datagrams_dropped + network.datagrams_in_flight,
    )


@experiment(
    "scenario-matrix",
    help="scenario presets × fault presets: containment/leakage/resilience grid",
    paper_ref="Tables V-VI",
    order=96,
    quick_params={"max_peers": 3, "horizon": 24.0, "segments": 6},
    options=(
        CliOption(
            "--scenarios",
            "scenarios",
            str,
            "all",
            "comma-separated scenario presets (steady, flash-crowd, diurnal, "
            "cgnat-heavy, vod-longtail) or 'all'",
        ),
        CliOption(
            "--faults",
            "faults",
            str,
            "calm,churn",
            "comma-separated fault presets to cross with (calm, churn, flaky, "
            "partition, blackout, chaos-mix)",
        ),
    ),
)
def run(
    seed: int = DEFAULT_SEED,
    scenarios: str = "all",
    faults: str = "calm,churn",
    max_peers: int = 6,
    horizon: float | None = None,
    profile: ProviderProfile = PEER5,
    segments: int = 8,
    segment_seconds: float = 4.0,
    segment_bytes: int = 60_000,
) -> ScenarioMatrixResult:
    """Run the full scenario × fault cross and collect the grid."""
    scenario_names = _split_axis(scenarios, SCENARIO_PRESETS, "scenario")
    fault_names = [name.strip() for name in faults.split(",") if name.strip()]
    if not fault_names:
        raise ConfigurationError("empty fault axis")
    result = ScenarioMatrixResult()
    for scenario_name in scenario_names:
        for fault_name in fault_names:
            result.cells.append(
                _run_cell(
                    seed,
                    scenario_name,
                    fault_name,
                    max_peers,
                    horizon,
                    profile,
                    segments,
                    segment_seconds,
                    segment_bytes,
                )
            )
    return result
