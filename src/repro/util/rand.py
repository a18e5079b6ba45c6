"""Deterministic randomness.

Every stochastic component in the simulator draws from a
:class:`DeterministicRandom` rather than the global :mod:`random` state,
so that experiments are reproducible given a seed and independent
components do not perturb each other's streams.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, Callable, Iterable, TypeVar

T = TypeVar("T")


class DeterministicRandom:
    """A seeded random source with named, independent sub-streams.

    ``fork(name)`` derives a child stream whose seed depends only on the
    parent seed and the name, so adding a new consumer of randomness
    never shifts the values seen by existing consumers.
    """

    #: Draw methods bound per-instance in ``__init__`` straight to the
    #: underlying :class:`random.Random` — the declarations here give the
    #: class its typed surface without adding a wrapper frame per draw
    #: (the per-datagram jitter draw is hot at swarm scale).
    random: Callable[[], float]
    uniform: Callable[[float, float], float]
    randint: Callable[[int, int], int]
    getrandbits: Callable[[int], int]
    gauss: Callable[[float, float], float]
    expovariate: Callable[[float], float]
    choice: Callable[..., Any]
    choices: Callable[..., list]
    sample: Callable[..., list]
    shuffle: Callable[[list], None]

    def __init__(self, seed: int | str = 0) -> None:
        if isinstance(seed, str):
            seed = int.from_bytes(hashlib.sha256(seed.encode()).digest()[:8], "big")
        self.seed = int(seed)
        rng = random.Random(self.seed)
        self._rng = rng
        self.random = rng.random
        self.uniform = rng.uniform
        self.randint = rng.randint
        self.getrandbits = rng.getrandbits
        self.gauss = rng.gauss
        self.expovariate = rng.expovariate
        self.choice = rng.choice
        self.choices = rng.choices
        self.sample = rng.sample
        self.shuffle = rng.shuffle

    def fork(self, name: str) -> "DeterministicRandom":
        """Derive an independent stream keyed by ``name``."""
        material = f"{self.seed}:{name}".encode()
        child_seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return DeterministicRandom(child_seed)

    def bytes(self, n: int) -> bytes:
        """Bytes."""
        return self._rng.randbytes(n)

    def weighted_pick(self, table: Iterable[tuple[T, float]]) -> T:
        """Pick one item from ``(item, weight)`` pairs."""
        items, weights = zip(*table)
        return self._rng.choices(items, weights=weights, k=1)[0]
