"""The one-pass traffic-program builder against its per-call reference.

:func:`repro.net.shard._region_program` inlines the stream's bounded
draw (``randint``'s ``_randbelow`` loop over ``getrandbits``) and
``uniform(0.0, w)``, and :func:`repro.net.shard._shard_program` gathers
each column through the sort permutation in one call. Every digest of a
sharded run rests on those columns, so this module keeps the plain
builder — library ``uniform``/``randint`` per send, one ``append`` per
column per row — as the reference and requires the five columns to
match element for element. Running on whatever interpreter runs the
suite pins the inlined draw against that interpreter's ``randint``.

The sizes cover one-member regions and member counts at and around
powers of two (1024 viewers over four regions is 256 each; 1025 and
4099 leave regions one apart), where a wrong bit length would show.
"""

from array import array

import pytest

from repro.net.shard import (
    SwarmWorkload,
    _region_member_count,
    _shard_program,
    _TrafficProgram,
)
from repro.scenarios.arrivals import FlashCrowdArrivals
from repro.util.rand import DeterministicRandom

VIEWERS = (1, 3, 4, 5, 1024, 1025, 4099)
SEEDS = (2024, 7)


def reference_region_program(workload: SwarmWorkload, region_index: int) -> _TrafficProgram:
    """One region's sends, drawn through the library calls one by one."""
    rand = DeterministicRandom(workload.seed).fork(f"traffic:{region_index}")
    num_regions = len(workload.regions)
    viewers = workload.viewers
    members = _region_member_count(viewers, num_regions, region_index)
    program = _TrafficProgram()
    if members == 0 or workload.datagrams == 0:
        return program
    base_share = workload.datagrams // viewers
    remainder = workload.datagrams % viewers
    total = sum(
        base_share + (1 if region_index + j * num_regions < remainder else 0)
        for j in range(members)
    )
    if total == 0:
        return program
    window = workload.horizon * 0.8
    flash_times = None
    if workload.arrivals == "flash-crowd":
        spike = total // 2
        baseline = max(1.0, (total - spike) / (window / 60.0))
        process = FlashCrowdArrivals(
            base_rate_per_min=baseline,
            spike_at_sec=window * 0.25,
            spike_arrivals=spike,
            spike_width_sec=max(window * 0.1, 0.001),
        )
        flash_times = process.times(rand, window)
        if not flash_times:
            flash_times = [window * 0.5]
    sent = 0
    for j in range(members):
        src = region_index + j * num_regions
        count = base_share + (1 if src < remainder else 0)
        for _ in range(count):
            if flash_times is None:
                t = rand.uniform(0.0, window)
            else:
                t = flash_times[sent % len(flash_times)] + rand.random() * 1e-6
            if rand.random() < workload.locality:
                dst = region_index + rand.randint(0, members - 1) * num_regions
            else:
                dst = rand.randint(0, viewers - 1)
            program.when.append(t)
            program.src.append(src)
            program.dst.append(dst)
            program.u_latency.append(rand.random())
            program.u_fault.append(rand.random())
            sent += 1
    return program


def reference_shard_program(
    workload: SwarmWorkload, shard_id: int, num_shards: int
) -> _TrafficProgram:
    """The owned regions concatenated, then stable-sorted row by row."""
    merged = _TrafficProgram()
    for region_index in range(len(workload.regions)):
        if region_index % num_shards != shard_id:
            continue
        part = reference_region_program(workload, region_index)
        merged.when.extend(part.when)
        merged.src.extend(part.src)
        merged.dst.extend(part.dst)
        merged.u_latency.extend(part.u_latency)
        merged.u_fault.extend(part.u_fault)
    out = _TrafficProgram()
    for i in sorted(range(len(merged.when)), key=merged.when.__getitem__):
        out.when.append(merged.when[i])
        out.src.append(merged.src[i])
        out.dst.append(merged.dst[i])
        out.u_latency.append(merged.u_latency[i])
        out.u_fault.append(merged.u_fault[i])
    return out


def columns(program: _TrafficProgram) -> dict[str, array]:
    return {name: getattr(program, name) for name in _TrafficProgram.__slots__}


@pytest.mark.parametrize("locality", [0.0, 0.95, 1.0])
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("arrivals", ["uniform", "flash-crowd"])
def test_columns_equal_the_reference(arrivals, workers, locality):
    for viewers in VIEWERS:
        for seed in SEEDS:
            # Half again as many sends as viewers: some viewers send
            # twice, and the small swarms leave shards holding one row.
            workload = SwarmWorkload(
                viewers=viewers, datagrams=viewers + viewers // 2, seed=seed,
                arrivals=arrivals, locality=locality,
            )
            for shard in range(workers):
                built = columns(_shard_program(workload, shard, workers))
                expected = columns(reference_shard_program(workload, shard, workers))
                assert built == expected, (viewers, seed, shard)
