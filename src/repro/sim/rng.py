"""Deterministic random-number streams.

Every stochastic component (network jitter, queue dispatch delay, randomized
resource selection, ...) draws from its *own named substream* derived from a
single root seed.  This keeps runs reproducible and — crucially for the
paper's comparisons — ensures that changing one mechanism's randomness does
not perturb another's.

A name's stream is the PCG64 generator numpy builds from
``SeedSequence(entropy=seed, spawn_key=(k0, k1))``, ``(k0, k1)`` being two
31-bit halves of the name's blake2b digest; :mod:`repro.sim.seeding`
derives its seed words in closed form, bit for bit
(``tests/test_rng_block_draws.py``), at the cost of a hash per name.
"""

from __future__ import annotations

from math import copysign
from typing import Any, Dict, Iterable, List, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Largest block of standard normals a name takes from numpy at once.
BLOCK = 64


class _Normals:
    """A name drawn through :meth:`RandomStreams.normal`: its generator
    and the standard normals it has drawn ahead, in reverse order so the
    next one is a ``pop()``.

    Blocks double from 1 to :data:`BLOCK`, so a name drawn once (a
    connection's SYN) costs one draw and holds nothing ahead.
    """

    __slots__ = ("gen", "pending", "block")

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self.pending: List[float] = []
        self.block = 1

    def refill(self) -> List[float]:
        pending = self.gen.standard_normal(self.block).tolist()
        pending.reverse()
        self.pending = pending
        if self.block < BLOCK:
            self.block *= 2
        return pending


class RandomStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    A name is drawn one way, decided by its first use.  :meth:`normal`
    (and so :meth:`jitter`) draws its name's standard normals ahead, in
    blocks, and returns ``loc + scale * z``, which equals the scalar
    ``Generator.normal(loc, scale)`` bit for bit
    (``tests/test_rng_block_draws.py``).  A block runs the generator
    ahead of the scalar path, so any other draw on that name would see a
    different state: :meth:`stream` and every other draw raise on a name
    :meth:`normal` has drawn, and :meth:`normal` raises on a name
    :meth:`stream` has handed out.
    """

    def __init__(self, seed: int = 0) -> None:
        # Imported here, not at module level: the seeding loads
        # numpy.random and hashlib (~10 MB resident), which a process
        # that opens no stream (a kernel-only benchmark) never needs.
        from .seeding import StreamSeeder

        self._seed = int(seed)
        # Raises ValueError on a negative seed, as numpy does.
        self._seed_words = StreamSeeder(self._seed).words
        self._streams: Dict[str, np.random.Generator] = {}
        self._blocks: Dict[str, _Normals] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def _generator(self, name: str) -> np.random.Generator:
        """``default_rng(SeedSequence(entropy=seed, spawn_key=...))`` for
        ``name``, from seed words derived in closed form."""
        # numpy takes any ISeedSequence; PCG64's stub names SeedSequence.
        words: Any = self._seed_words(name)
        return np.random.Generator(np.random.PCG64(words))

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it deterministically.

        The same (seed, name) pair always yields an identical stream,
        regardless of creation order.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._blocks:
                raise ValueError(f"random stream {name!r} is drawn ahead "
                                 "through normal()")
            gen = self._streams[name] = self._generator(name)
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Derive an independent child factory (e.g. per experiment trial).

        The child's seed is one draw from the stream ``spawn/<name>``, so
        the child mixes its own seed prefix once, at construction, and
        shares nothing with this factory.
        """
        gen = self.stream(f"spawn/{name}")
        return RandomStreams(int(gen.integers(0, 2**31 - 1)))

    # -- convenience draws used across the substrate --------------------
    def normal(self, name: str, loc: float, scale: float) -> float:
        """One ``Generator.normal(loc, scale)`` draw from ``name``, taken
        from a block of standard normals; ``name`` becomes drawn-ahead."""
        if scale <= 0.0 and copysign(1.0, scale) < 0.0:
            raise ValueError("scale < 0")  # numpy's check and message
        normals = self._blocks.get(name)
        if normals is None:
            if name in self._streams:
                raise ValueError(
                    f"random stream {name!r} was handed out by stream(); "
                    "it cannot also be drawn ahead through normal()")
            normals = self._blocks[name] = _Normals(self._generator(name))
        pending = normals.pending
        if not pending:
            pending = normals.refill()
        return loc + scale * pending.pop()

    def jitter(self, name: str, mean: float, rel_std: float = 0.1,
               floor: float = 0.0) -> float:
        """A positive, normally-jittered sample around ``mean``.

        Used for stage costs: ``mean`` comes from calibration, ``rel_std``
        is the coefficient of variation.  Values are clipped at ``floor``.
        """
        if mean <= 0:
            return max(mean, floor)
        sample = float(self.normal(name, mean, rel_std * mean))
        # max(sample, floor), which returns floor only if floor > sample,
        # without the builtin's generic call path.
        return floor if floor > sample else sample

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
