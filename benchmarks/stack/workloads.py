"""The stack benchmark's workloads: what one child iteration runs, and its oracles.

Five workloads run a registered experiment through
:func:`repro.harness.runner.execute_spec`, exactly as ``python -m repro``
does; ``swarm_dense`` drives a bare swarm through the public
``Network.add_host`` / ``Host.bind_udp`` / ``UdpSocket.send`` /
``EventLoop.run_all`` calls with traffic this module generates from
the seed. Why each workload was chosen is in ``BENCHMARK.json`` and
``README.md``.

Run ``i`` of a measurement at seed ``s`` uses input seed
``s + SEED_STRIDE * i``, so a measurement covers a dozen inputs and the
scenario matrix's strongly input-dependent cost does not hinge on one.
Run 0 uses ``s`` itself. At :data:`PIN_SEED` every run's digest is
pinned in ``pins.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

PIN_SEED = 2024
SEED_STRIDE = 7919
PINS_FILE = Path(__file__).with_name("pins.json")

SWARM_REGIONS = ("us", "eu", "asia", "sa")
SWARM_PORT = 4000
SWARM_PAYLOAD_BYTES = 200


def input_seed(seed: int, iteration: int) -> int:
    """The input seed of run ``iteration`` of a measurement at ``seed``."""
    return seed + SEED_STRIDE * iteration


def load_pins() -> dict[str, list[str]]:
    """Digest prefixes pinned at :data:`PIN_SEED`, per workload, per iteration."""
    return json.loads(PINS_FILE.read_text())


# -- oracles: invariants every output must satisfy, at any seed -------------


def _check_matrix(result: dict) -> list[str]:
    cells = result["cells"]
    problems = [] if len(cells) == 10 else [f"{len(cells)} cells, expected 10"]
    for cell in cells:
        where = f"cell {cell['scenario']}x{cell['fault_plan']}"
        if not cell["conservation_ok"]:
            problems.append(f"{where} broke datagram conservation")
        if not cell["contained"]:
            problems.append(f"{where} let pollution reach a benign screen")
    return problems


def _check_im(result: dict) -> list[str]:
    groups = result["groups"]
    if len(groups) != 3:
        return [f"{len(groups)} control groups, expected 3"]
    # Table VI's shape: PDN delivery costs CPU and memory, IM checking more.
    problems = []
    for key in ("cpu", "memory"):
        values = [group[key] for group in groups]
        if not 0 < values[0] <= values[1] <= values[2]:
            problems.append(f"{key} does not rise no-PDN <= PDN <= PDN+IM: {values}")
    return problems


def _check_leak(result: dict) -> list[str]:
    problems = [] if result["total_unique"] > 0 else ["no address harvested"]
    for name, platform in result["platforms"].items():
        split = platform["public"] + sum(platform["bogons"].values())
        if split != platform["total"]:
            problems.append(f"{name}: public + bogons = {split} != {platform['total']}")
    return problems


def _check_datagrams(result: dict, datagrams: int) -> list[str]:
    problems = []
    if result["sent"] != datagrams:
        problems.append(f"sent {result['sent']} of {datagrams} datagrams")
    if result["sent"] != result["delivered"] + result["dropped"] + result["in_flight"]:
        problems.append("conservation broken: sent != delivered + dropped + in_flight")
    if result["in_flight"]:
        problems.append(f"{result['in_flight']} datagrams still in flight after the run")
    return problems


def _check_detect(result: dict) -> list[str]:
    rows = [row for table in ("table2", "table3", "table4") for row in result[table]]
    wrong = [f"{row[0]}: {row[-1]}" for row in rows if row[-1] != "confirmed"]
    return [f"detection rows not confirmed: {', '.join(wrong)}"] if wrong else []


# -- workload definitions ---------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One named workload: what an iteration runs and how it is checked."""

    name: str
    #: The fixed work one iteration does, named for reports.
    work_unit: str
    #: Untraced runs per workload in a full report.
    runs: int
    #: (params, result) -> work units done by one iteration.
    work: Callable[[dict, dict], float]
    #: (params, result) -> invariant violations.
    check: Callable[[dict, dict], list[str]]
    #: Registered experiment name; ``None`` for the benchmark-driven swarm.
    experiment: str | None = None
    #: ``ExperimentSpec.resolve_params`` keyword arguments per size.
    full: dict = field(default_factory=dict)
    smoke: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "matrix", "cells", 15,
        work=lambda params, result: len(result["cells"]),
        check=lambda params, result: _check_matrix(result),
        experiment="scenario-matrix",
        smoke={"quick": True},
    ),
    Workload(
        "im_dtls", "receiver segments", 10,
        # 3 control groups x 3 receivers x duration / 10 s segments.
        work=lambda params, result: 9 * max(3, int(params["duration"] / 10.0)),
        check=lambda params, result: _check_im(result),
        experiment="im-checking",
        full={"overrides": {"duration": 60.0}},
        smoke={"quick": True},
    ),
    Workload(
        "leak_week", "platform-days", 10,
        work=lambda params, result: len(result["platforms"]) * params["days"],
        check=lambda params, result: _check_leak(result),
        experiment="ip-leak",
        full={"full": True, "overrides": {"window_hours": 0.25}},
        smoke={"quick": True},
    ),
    Workload(
        "swarm_dense", "datagrams", 15,
        work=lambda params, result: params["datagrams"],
        check=lambda params, result: _check_datagrams(result, params["datagrams"]),
        full={"overrides": {"hosts": 20_000, "datagrams": 120_000}},
        smoke={"overrides": {"hosts": 1_000, "datagrams": 5_000}},
    ),
    Workload(
        "swarm_shard", "datagrams", 12,
        work=lambda params, result: params["datagrams"],
        check=lambda params, result: _check_datagrams(result, params["datagrams"]),
        experiment="swarm-scale",
        full={"overrides": {"viewers": 20_000, "datagrams": 120_000, "shard_workers": 1}},
        smoke={"overrides": {"viewers": 1_000, "datagrams": 5_000, "shard_workers": 1}},
    ),
    Workload(
        "detect", "virtual domains", 20,
        work=lambda params, result: result["corpus"]["virtual_total_domains"],
        check=lambda params, result: _check_detect(result),
        experiment="detect",
        full={"overrides": {"shards": 1, "scan_jobs": 1}},
        smoke={"quick": True, "overrides": {"shards": 1, "scan_jobs": 1}},
    ),
)}


# -- one iteration ----------------------------------------------------------


@dataclass
class Outcome:
    """What one iteration produced, checked against the workload's oracles."""

    digest: str | None
    work: float
    problems: list[str]


@dataclass
class Prepared:
    """A workload made ready to run: modules imported, inputs generated."""

    workload: Workload
    seed: int
    params: dict
    import_s: float
    inputs: Any = None

    def run(self) -> Outcome:
        """Execute one iteration (the region ``wall_s`` times)."""
        if self.workload.experiment is None:
            result = _run_swarm(self.seed, self.inputs)
            digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
        else:
            from repro.harness import runner

            # Looked up on the module at call time, so a traced child
            # reaches the tracer's wrapper.
            outcome = runner.execute_spec(self.workload.experiment, self.seed, self.params)
            if outcome.record.status != "ok":
                error = (outcome.record.error or "unknown error").strip().splitlines()
                return Outcome(None, 0.0, [f"experiment raised: {error[0]}"])
            result, digest = outcome.result_dict, outcome.record.result_digest
        return Outcome(
            digest,
            self.workload.work(self.params, result),
            self.workload.check(self.params, result),
        )


def prepare(workload: Workload, seed: int, smoke: bool) -> Prepared:
    """Import what the workload needs and generate its inputs from ``seed``."""
    started = time.perf_counter()
    resolve = workload.smoke if smoke else workload.full
    if workload.experiment is None:
        import repro.net.network  # noqa: F401 - the swarm's whole import cost
        import repro.util.rand  # noqa: F401

        import_s = time.perf_counter() - started
        params = dict(resolve["overrides"])
        return Prepared(workload, seed, params, import_s, _swarm_traffic(seed, **params))
    from repro.harness import registry

    # registry.get loads every experiment module, as the CLI does.
    spec = registry.get(workload.experiment)
    import_s = time.perf_counter() - started
    return Prepared(workload, seed, spec.resolve_params(**resolve), import_s)


def _swarm_traffic(seed: int, hosts: int, datagrams: int) -> tuple[int, list[int], list[int]]:
    """(hosts, senders, destinations): uniform-random distinct peer pairs."""
    rng = random.Random(seed)
    senders = rng.choices(range(hosts), k=datagrams)
    offsets = rng.choices(range(1, hosts), k=datagrams)
    return hosts, senders, [(s + o) % hosts for s, o in zip(senders, offsets)]


def _run_swarm(seed: int, traffic: tuple[int, list[int], list[int]]) -> dict:
    """Build the swarm, send every datagram in one wave, drain the loop."""
    from repro.net.network import Network
    from repro.util.rand import DeterministicRandom

    hosts, senders, destinations = traffic
    net = Network(rand=DeterministicRandom(seed))
    sockets = [
        net.add_host(f"v{i}", region=SWARM_REGIONS[i % len(SWARM_REGIONS)]).bind_udp(SWARM_PORT)
        for i in range(hosts)
    ]
    endpoints = [sock.endpoint for sock in sockets]
    payload = bytes(SWARM_PAYLOAD_BYTES)
    for src, dst in zip(senders, destinations):
        sockets[src].send(endpoints[dst], payload)
    net.loop.run_all(max_events=len(senders) + 1)
    return {
        "sent": net.datagrams_sent,
        "delivered": net.datagrams_delivered,
        "dropped": net.datagrams_dropped,
        "in_flight": net.datagrams_in_flight,
        "drops_by_reason": dict(sorted(net.drops_by_reason.items())),
        "events": net.loop.events_fired,
        "sim_end": net.loop.now,
    }
