"""Materialising a :class:`~repro.scenarios.spec.ScenarioSpec` into a timeline.

:func:`materialize` is the only place scenario randomness is spent:
``spec + seeded stream → Timeline``, a plain-data schedule of
:class:`PlannedSession` rows (who joins when, from where, behind what
NAT, watching which title, leaving when and why, with which mid-session
actions). Keeping materialisation pure — no event loop, no network —
is what lets the property suite check invariants over thousands of
random specs cheaply, and what makes ``--jobs 1`` vs ``--jobs 4``
digest identity trivial: the timeline is fixed before any worker runs.

Draw-order contract (the replay suite pins it): arrival times come
from ``base.fork("arrivals")``; each viewer ``i`` then draws from its
own ``base.fork(f"v:{i}")`` in the fixed order country → NAT →
cellular → leech → title → intended duration → abandon branch → zap
branch → seeks. Per-viewer forks mean adding a draw to one viewer's
tail can never shift another viewer's attributes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.scenarios.spec import ScenarioSpec, weighted_pick
from repro.util.rand import DeterministicRandom


@dataclass(frozen=True)
class SessionAction:
    """One mid-session event: ``zap`` (arg = target title) or ``seek`` (arg = segments)."""

    at: float
    kind: str
    arg: int

    def to_dict(self) -> dict:
        """Serialise to plain JSON types."""
        return {"at": self.at, "kind": self.kind, "arg": self.arg}


@dataclass(frozen=True)
class PlannedSession:
    """One viewer's full lifecycle, fixed before the simulation starts."""

    viewer_id: int
    join_at: float
    leave_at: float
    leave_reason: str
    country: str
    nat: str
    cellular: bool
    leech: bool
    title: int
    actions: tuple[SessionAction, ...] = ()

    def to_dict(self) -> dict:
        """Serialise to plain JSON types."""
        return {
            "viewer_id": self.viewer_id,
            "join_at": self.join_at,
            "leave_at": self.leave_at,
            "leave_reason": self.leave_reason,
            "country": self.country,
            "nat": self.nat,
            "cellular": self.cellular,
            "leech": self.leech,
            "title": self.title,
            "actions": [action.to_dict() for action in self.actions],
        }


@dataclass
class Timeline:
    """The materialised audience: every planned session, in join order."""

    scenario: str
    spec_digest: str
    horizon: float
    sessions: list[PlannedSession] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Serialise to plain JSON types (the digest form)."""
        return {
            "scenario": self.scenario,
            "spec_digest": self.spec_digest,
            "horizon": self.horizon,
            "sessions": [session.to_dict() for session in self.sessions],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()


def _session_for(
    spec: ScenarioSpec, viewer_id: int, join_at: float, vr: DeterministicRandom
) -> PlannedSession:
    """Draw one viewer's attributes and lifecycle in the fixed order."""
    model = spec.session
    country = weighted_pick(vr, spec.population.region_mix)
    nat = weighted_pick(vr, spec.population.nat_mix)
    cellular = vr.random() < spec.population.cellular_share
    leech = vr.random() < spec.population.leech_share
    title = spec.catalog.pick_title(vr)

    intended = max(model.min_watch_sec, vr.expovariate(1.0 / model.mean_watch_sec))
    abandoned = vr.random() < model.abandon_prob
    if abandoned:
        intended = max(model.min_watch_sec, intended * vr.uniform(0.05, 0.5))
    leave_at = round(join_at + intended, 3)
    reason = "abandon" if abandoned else "leave"
    if leave_at >= spec.horizon:
        leave_at, reason = spec.horizon, "horizon"

    actions: list[SessionAction] = []
    if vr.random() < model.zap_prob:
        zap_at = round(join_at + (leave_at - join_at) * vr.uniform(0.2, 0.8), 3)
        target = spec.catalog.pick_title(vr)
        # Zapping to the title already playing is a no-op remote press;
        # only a genuine channel change cuts the session short.
        if target != title and join_at < zap_at < leave_at:
            actions.append(SessionAction(zap_at, "zap", target))
            leave_at, reason = zap_at, "zap"

    if model.seek_rate_per_min > 0:
        seek_rate = model.seek_rate_per_min / 60.0
        t = join_at + vr.expovariate(seek_rate)
        while t < leave_at:
            actions.append(SessionAction(round(t, 3), "seek", vr.randint(1, 3)))
            t += vr.expovariate(seek_rate)

    actions.sort(key=lambda action: (action.at, action.kind, action.arg))
    return PlannedSession(
        viewer_id=viewer_id,
        join_at=join_at,
        leave_at=leave_at,
        leave_reason=reason,
        country=country,
        nat=nat,
        cellular=cellular,
        leech=leech,
        title=title,
        actions=tuple(actions),
    )


def materialize(spec: ScenarioSpec, rand: DeterministicRandom) -> Timeline:
    """Sample a concrete :class:`Timeline` from a spec and a seeded stream."""
    base = rand.fork(f"scenario:{spec.name}")
    join_times = spec.arrivals.times(base.fork("arrivals"), spec.horizon)
    if spec.max_viewers is not None:
        join_times = join_times[: spec.max_viewers]
    timeline = Timeline(scenario=spec.name, spec_digest=spec.digest(), horizon=spec.horizon)
    for viewer_id, join_at in enumerate(join_times):
        vr = base.fork(f"v:{viewer_id}")
        timeline.sessions.append(_session_for(spec, viewer_id, join_at, vr))
    return timeline
