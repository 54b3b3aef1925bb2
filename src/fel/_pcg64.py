"""The uniform doubles of numpy's ``default_rng(seed)``, made without numpy.random.

``default_rng(seed)`` is a PCG64 generator (M. E. O'Neill, "PCG: A Family of
Simple Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014) whose 256 seed bits come from a SeedSequence that hashes
the seed's uint32 words into a pool of four words.  Both steps are integer
arithmetic, done here on Python ints, so fel's seeded corpora follow the same
stream without loading numpy.random's extension modules, and stay fixed
whatever numpy's stream policy for its Generator becomes.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1
POOL_SIZE = 4
# SeedSequence hash constants.
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# The PCG64 (XSL-RR 128/64) multiplier.
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pool(seed: int) -> list[int]:
    """The four-word SeedSequence pool of a nonnegative integer seed."""
    words = [0] if seed == 0 else []
    while seed:
        words.append(seed & MASK32)
        seed >>= 32
    h = INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * MULT_A & MASK32
        v = v * h & MASK32
        return v ^ v >> 16

    def mix(x: int, y: int) -> int:
        r = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list[int]) -> list[int]:
    """SeedSequence.generate_state(4, uint64): eight uint32 words drawn from
    the pool, paired (low, high) into four uint64 words."""
    h, out = INIT_B, []
    for i in range(8):
        v = pool[i % POOL_SIZE] ^ h
        h = h * MULT_B & MASK32
        v = v * h & MASK32
        out.append(v ^ v >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


def uniform_stream(seed) -> Iterator[float]:
    """The doubles of ``numpy.random.default_rng(seed).uniform(-1.0, 1.0)``, in
    order, for an integer seed >= 0 (bool and numpy integers included).  A
    float or str seed raises TypeError and a negative one ValueError, as
    numpy does, when the stream is made rather than at its first draw."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0 (got {seed})")
    s0, s1, s2, s3 = _state_words(_pool(seed))
    inc = (s2 << 64 | s3) << 1 | 1
    return _draws(((s0 << 64 | s1) + inc) * PCG_MULT + inc & MASK128, inc)


def _draws(state: int, inc: int) -> Iterator[float]:
    """PCG64 from a seeded state: each draw steps the 128-bit LCG, takes the
    XSL-RR output x and returns -1 + 2 (x >> 11) 2^-53."""
    while True:
        state = state * PCG_MULT + inc & MASK128
        x = (state >> 64 ^ state) & MASK64
        rot = state >> 122
        x = (x >> rot | x << (64 - rot)) & MASK64
        yield -1.0 + 2.0 * ((x >> 11) * 2.0**-53)
