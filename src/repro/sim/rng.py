"""Deterministic random-number streams.

Every stochastic component (network jitter, queue dispatch delay, randomized
resource selection, ...) draws from its *own named substream* derived from a
single root seed via :class:`numpy.random.SeedSequence`.  This keeps runs
reproducible and — crucially for the paper's comparisons — ensures that
changing one mechanism's randomness does not perturb another's.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class RandomStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same (seed, name) pair always yields an identical stream,
        regardless of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed from the root seed and a stable hash of the
            # name so that stream identity does not depend on call order
            # (blake2 is stable across runs, unlike Python's hash()).
            digest = int.from_bytes(
                hashlib.blake2b(name.encode("utf-8"),
                                digest_size=8).digest(), "little")
            child = np.random.SeedSequence(
                entropy=self._seed,
                spawn_key=(digest & 0x7FFFFFFF,
                           (digest >> 31) & 0x7FFFFFFF))
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child factory (e.g. per experiment trial)."""
        gen = self.stream(f"spawn/{name}")
        return RandomStreams(int(gen.integers(0, 2**31 - 1)))

    # -- convenience draws used across the substrate --------------------
    def jitter(self, name: str, mean: float, rel_std: float = 0.1,
               floor: float = 0.0) -> float:
        """A positive, normally-jittered sample around ``mean``.

        Used for stage costs: ``mean`` comes from calibration, ``rel_std``
        is the coefficient of variation.  Values are clipped at ``floor``.
        """
        if mean <= 0:
            return max(mean, floor)
        sample = self.stream(name).normal(mean, rel_std * mean)
        return max(float(sample), floor)

    def exponential(self, name: str, mean: float) -> float:
        return float(self.stream(name).exponential(mean))

    def uniform(self, name: str, low: float, high: float) -> float:
        return float(self.stream(name).uniform(low, high))

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Uniformly pick one element (the paper's randomized selection)."""
        if not options:
            raise ValueError("cannot choose from an empty sequence")
        idx = int(self.stream(name).integers(0, len(options)))
        return options[idx]

    def shuffled(self, name: str, options: Iterable[T]) -> List[T]:
        items = list(options)
        self.stream(name).shuffle(items)  # type: ignore[arg-type]
        return items
