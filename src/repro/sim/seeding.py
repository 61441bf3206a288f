"""Seed words of a named random stream, derived in closed form.

:class:`~repro.sim.rng.RandomStreams` gives every name the PCG64 generator
numpy builds from ``SeedSequence(entropy=seed, spawn_key=(k0, k1))``,
``(k0, k1)`` being two 31-bit halves of the name's blake2b digest.  That
seeding is a fixed 32-bit hash-mix in which everything before the two
spawn words depends on the seed alone.  :class:`StreamSeeder` mixes the
seed once (:func:`_seed_prefix`) and a new name pays only for the rest —
the blake2b, eight mix steps and eight output hashes in plain integer
code — whose four seed words reach ``numpy.random.PCG64`` through
:class:`_Words`, numpy's ``ISeedSequence`` extension point.  The words
equal numpy's own bit for bit
(``tests/test_rng_block_draws.py::TestSeedDerivationMatchesNumpy``).
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_constants(init: int, mult: int, count: int) -> Tuple[int, ...]:
    """``count`` (xor, multiply) pairs of a hash whose constant starts at
    ``init`` and is multiplied by ``mult`` at each call, flattened."""
    out: List[int] = []
    const = init
    for _ in range(count):
        following = const * mult & _MASK32
        out += (const, following)
        const = following
    return tuple(out)


#: The (xor, multiply) pairs of ``generate_state``'s eight output hashes,
#: the same for every seed.
_OUTPUT_HASH = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_prefix(seed: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The part of numpy's ``SeedSequence(entropy=seed, spawn_key=(k0,
    k1))`` that depends on ``seed`` alone: the entropy pool after every
    run-entropy word is mixed in, and the (xor, multiply) pairs of the
    eight hash calls that mix in ``k0`` and ``k1``.

    A spawn key pads the run entropy with zero words to the pool size;
    words beyond it (seeds of 2**128 and up) are mixed into every pool
    word after the pool's own cross-mixing, as the spawn words are.
    """
    if seed < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    words += [0] * (_POOL_SIZE - len(words))
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return tuple(pool), _hash_constants(const, _MULT_A, 2 * _POOL_SIZE)


class _Words(ISeedSequence):
    """Four derived PCG64 seed words, handed to ``numpy.random.PCG64``
    in place of the ``SeedSequence`` that would generate them."""

    __slots__ = ("words",)

    def __init__(self, words: Tuple[int, int, int, int]) -> None:
        self.words = words

    def generate_state(self, n_words: int,
                       dtype: Any = np.uint32) -> np.ndarray:
        # PCG64 is the one caller: four uint64 words.
        return np.array(self.words, dtype=np.uint64)


class StreamSeeder:
    """One seed's prefix, and the seed words of each name under it.

    Held per :class:`~repro.sim.rng.RandomStreams`, never cached across
    instances: a module-level cache keyed by seed would be process state
    that a runner cell writes.
    """

    __slots__ = ("_pool", "_mixers")

    def __init__(self, seed: int) -> None:
        self._pool, self._mixers = _seed_prefix(seed)

    def words(self, name: str) -> ISeedSequence:
        """What ``SeedSequence(entropy=seed, spawn_key=(k0, k1))`` gives
        PCG64 for ``name``, without the SeedSequence: the spawn key is a
        stable hash of the name (blake2 is stable across runs, unlike
        Python's ``hash()``), so stream identity does not depend on call
        order."""
        digest = int.from_bytes(
            hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest(),
            "little")
        k0 = digest & 0x7FFFFFFF
        k1 = (digest >> 31) & 0x7FFFFFFF
        mask, left, right = _MASK32, _MIX_MULT_L, _MIX_MULT_R
        p0, p1, p2, p3 = self._pool
        (x0, m0, x1, m1, x2, m2, x3, m3,
         x4, m4, x5, m5, x6, m6, x7, m7) = self._mixers
        # mix_entropy's tail: hashmix each spawn word into every pool word.
        v = (k0 ^ x0) * m0 & mask
        p0 = (left * p0 - right * (v ^ v >> 16)) & mask
        p0 ^= p0 >> 16
        v = (k0 ^ x1) * m1 & mask
        p1 = (left * p1 - right * (v ^ v >> 16)) & mask
        p1 ^= p1 >> 16
        v = (k0 ^ x2) * m2 & mask
        p2 = (left * p2 - right * (v ^ v >> 16)) & mask
        p2 ^= p2 >> 16
        v = (k0 ^ x3) * m3 & mask
        p3 = (left * p3 - right * (v ^ v >> 16)) & mask
        p3 ^= p3 >> 16
        v = (k1 ^ x4) * m4 & mask
        p0 = (left * p0 - right * (v ^ v >> 16)) & mask
        p0 ^= p0 >> 16
        v = (k1 ^ x5) * m5 & mask
        p1 = (left * p1 - right * (v ^ v >> 16)) & mask
        p1 ^= p1 >> 16
        v = (k1 ^ x6) * m6 & mask
        p2 = (left * p2 - right * (v ^ v >> 16)) & mask
        p2 ^= p2 >> 16
        v = (k1 ^ x7) * m7 & mask
        p3 = (left * p3 - right * (v ^ v >> 16)) & mask
        p3 ^= p3 >> 16
        # generate_state(4, uint64): eight output hashes cycling over the
        # pool, paired little-endian into 64-bit words.
        (b0, b1, b2, b3, b4, b5, b6, b7,
         b8, b9, b10, b11, b12, b13, b14, b15) = _OUTPUT_HASH
        s0 = (p0 ^ b0) * b1 & mask
        s1 = (p1 ^ b2) * b3 & mask
        s2 = (p2 ^ b4) * b5 & mask
        s3 = (p3 ^ b6) * b7 & mask
        s4 = (p0 ^ b8) * b9 & mask
        s5 = (p1 ^ b10) * b11 & mask
        s6 = (p2 ^ b12) * b13 & mask
        s7 = (p3 ^ b14) * b15 & mask
        return _Words(((s0 ^ s0 >> 16) | (s1 ^ s1 >> 16) << 32,
                       (s2 ^ s2 >> 16) | (s3 ^ s3 >> 16) << 32,
                       (s4 ^ s4 >> 16) | (s5 ^ s5 >> 16) << 32,
                       (s6 ^ s6 >> 16) | (s7 ^ s7 >> 16) << 32))
