"""Seeded random streams: the draws of numpy's ``default_rng(entropy)``, bit
for bit, in pure Python: SeedSequence's hash, PCG64 with XSL-RR output
(O'Neill 2014), 53-bit doubles and Lemire's bounded integers. Importing
``numpy.random`` costs a command about 6 MB of peak memory, and NEP 19 keeps
numpy's bit streams stable but not ``Generator.integers``, which this pins.
"""

from __future__ import annotations

import numpy as np

from .errors import SeqcalError

MASK32, MASK64, MASK128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
POOL = 4  # SeedSequence's pool size, in 32-bit words
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_calls(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (multiplier, xor) pair of each of ``count`` hash calls, which
    SeedSequence steps through the chain init, init·mult, init·mult², ... mod 2**32."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & MASK32)
    return list(zip(chain[1:], chain))


_MIX_CALLS = _hash_calls(INIT_A, MULT_A, POOL * POOL)  # mix_entropy's, for up to POOL words of entropy
_STATE_CALLS = _hash_calls(INIT_B, MULT_B, 8)  # generate_state(4, uint64)'s


def _words(entropy) -> list[int]:
    """``_coerce_to_uint32_array``: an int's 32-bit words, least significant first; a sequence's, in order."""
    if not isinstance(entropy, (int, np.integer)):
        return [word for item in entropy for word in _words(item)]
    value = int(entropy)
    if value < 0:
        raise SeqcalError(f"a seed must be a non-negative integer, got {value}")
    words = [value & MASK32]
    while value > MASK32:
        value >>= 32
        words.append(value & MASK32)
    return words


def _hash(value: int, mult: int, xor: int) -> int:
    value = (value ^ xor) * mult & MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (0xCA01F9DD * x - 0x4973F715 * y) & MASK32
    return value ^ value >> 16


class Stream:
    """The draws of ``np.random.default_rng(entropy)`` for a non-negative int
    or a sequence of them, such as ``(seed, stream, index)``."""

    def __init__(self, entropy) -> None:
        words = _words(entropy)
        calls = iter(_MIX_CALLS if len(words) <= POOL else _hash_calls(INIT_A, MULT_A, POOL * len(words)))
        pool = [_hash(words[i] if i < len(words) else 0, *next(calls)) for i in range(POOL)]
        for src in range(POOL):  # mix_entropy: every pool word into every other
            for dst in range(POOL):
                if src != dst:
                    pool[dst] = _mix(pool[dst], _hash(pool[src], *next(calls)))
        for word in words[POOL:]:  # then each remaining word into every pool word
            for dst in range(POOL):
                pool[dst] = _mix(pool[dst], _hash(word, *next(calls)))
        state = [_hash(pool[i % POOL], *call) for i, call in enumerate(_STATE_CALLS)]  # generate_state(4, uint64)
        # four uint64 words, each two of these low first: the seed is words 0 (high) and 1, the increment 2 and 3
        seed, inc = (state[1] << 96 | state[0] << 64 | state[3] << 32 | state[2],
                     state[5] << 96 | state[4] << 64 | state[7] << 32 | state[6])
        self._inc = (inc << 1 | 1) & MASK128  # pcg64_set_seed: two steps around adding the seed
        self._state = ((self._inc + seed) * PCG_MULT + self._inc) & MASK128
        self._half = None  # the upper half of the last 64-bit draw, while ``_next32`` has not used it

    def _next64(self) -> int:
        self._state = state = (self._state * PCG_MULT + self._inc) & MASK128
        value, rot = (state >> 64 ^ state) & MASK64, state >> 122
        return (value >> rot | value << (64 - rot)) & MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & MASK32

    def _bounded(self, span: int) -> int:
        """A draw from 0..span (span < 2**32) by Lemire's rejection, as numpy draws it; none for span 0."""
        if span == 0:
            return 0
        width = span + 1
        threshold = (MASK32 - span) % width  # 2**32 mod width
        m = self._next32() * width
        while m & MASK32 < threshold:
            m = self._next32() * width
        return m >> 32

    def random(self, size: int | None = None) -> float | np.ndarray:
        """Uniform doubles in [0, 1): one, or an array of ``size``."""
        if size is None:
            return (self._next64() >> 11) * 2.0**-53
        return np.array([self.random() for _ in range(size)])

    def integers(self, low: int, high: int, size: int | None = None) -> int | np.ndarray:
        """Integers in [low, high): one, or an int64 array of ``size``."""
        span = high - low - 1
        if not 0 <= span <= MASK32:
            raise ValueError(f"integers need 0 < high - low <= 2**32, got [{low}, {high})")
        if size is None:
            return low + self._bounded(span)
        return np.array([low + self._bounded(span) for _ in range(size)], dtype=np.int64)
