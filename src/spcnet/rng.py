"""Deterministic random generation: xoshiro256** seeded via splitmix64.

Pure-integer arithmetic, so streams are identical on every platform for a
given seed.  Everything downstream (sampling, init, data generation) draws
from this generator rather than numpy's, which keeps runs reproducible
independent of the numpy version.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)), state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Rng:
    """xoshiro256** with 256-bit state expanded from a 64-bit seed."""

    __slots__ = ("_s",)

    def __init__(self, seed: int):
        carry = seed & _MASK64
        state = []
        for _ in range(4):
            word, carry = _splitmix64(carry)
            state.append(word)
        self._s = state

    def next_uint64(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Draw from [lo, hi) with 53 bits of mantissa."""
        u = (self.next_uint64() >> 11) * _INV_2_53
        return lo + (hi - lo) * u

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        # inlined generator step: bulk init draws are hot
        n = int(np.prod(shape)) if shape else 1
        out = np.empty(n, dtype=np.float64)
        s0, s1, s2, s3 = self._s
        span, mask = hi - lo, _MASK64
        for i in range(n):
            r = (s1 * 5) & mask
            r = (((r << 7) | (r >> 57)) & mask) * 9 & mask
            t = (s1 << 17) & mask
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & mask
            out[i] = lo + span * ((r >> 11) * _INV_2_53)
        self._s = [s0, s1, s2, s3]
        return out.reshape(shape)

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection."""
        if n <= 0:
            raise ValueError(f"randrange bound must be positive, got {n}")
        threshold = (1 << 64) % n
        while True:
            r = self.next_uint64()
            if r >= threshold:
                return r % n

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} distinct indices from {n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def spawn(self) -> "Rng":
        """Child generator seeded from this stream (for per-phase streams)."""
        return Rng(self.next_uint64())
