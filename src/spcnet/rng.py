"""Deterministic random generation: xoshiro256** seeded via splitmix64.

Streams are identical on every platform for a given seed.  Single draws and
short arrays step the generator in pure-integer arithmetic.  Long arrays run
``lanes`` copies of the same stream side by side as numpy ``uint64`` words
(wrapping arithmetic, the same bits), started at exact jump-ahead offsets:
xoshiro's state update is linear over GF(2) (Blackman & Vigna, "Scrambled
linear pseudorandom number generators", ACM TOMS 2021), so jumping n steps
multiplies the 256-bit state by the n-th power of a 256 x 256 bit matrix.
Those products run as float64 0/1 matrices reduced mod 2; every sum in them
is an integer of at most 256, which float64 holds exactly whatever the BLAS
summation order, so the jumps are exact everywhere too.  Everything downstream
(sampling, init, data generation) draws from this generator rather than
numpy's, which keeps runs reproducible independent of the numpy version.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK64 = (1 << 64) - 1
_INV_2_53 = 1.0 / (1 << 53)
# draws of at least this many values advance lanes; shorter ones loop
_LANE_MIN = 1024
# steps a lane fill buffers before copying them into place
_LANE_CHUNK = 64
# lane starts jumped per matrix product
_JUMP_COLUMNS = 256


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)), state


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _state_bits(words) -> np.ndarray:
    """The 256 state bits, word w's bit b at index 64 w + b, as 0/1 uint8."""
    return np.unpackbits(np.array(words, dtype="<u8").view(np.uint8), bitorder="little")


@lru_cache(maxsize=None)
def _jump_matrix(k: int) -> np.ndarray:
    """M^(2^k), where column c of the one-step bit matrix M is the state one
    step after the state holding bit c alone; kept bit-packed by row (8 KB)."""
    if k == 0:
        probe = Rng(0)
        columns = []
        for c in range(256):
            probe._s = [0, 0, 0, 0]
            probe._s[c // 64] = 1 << (c % 64)
            probe.next_uint64()
            columns.append(_state_bits(probe._s))
        power = np.stack(columns, axis=1)
    else:
        half = _jump(k - 1)
        power = ((half @ half).astype(np.int32) & 1).astype(np.uint8)
    packed = np.packbits(power, axis=1)
    packed.flags.writeable = False
    return packed


def _jump(k: int) -> np.ndarray:
    """M^(2^k) as a float64 0/1 matrix."""
    return np.unpackbits(_jump_matrix(k), axis=1).astype(np.float64)


def _lane_starts(state, k: int, lanes: int) -> list:
    """The state 0, L, 2L, ... (lanes - 1) L steps on from ``state``, with
    L = 2^k, as four uint64 arrays (one per word) indexed by lane."""
    bits = np.empty((256, lanes), dtype=np.uint8)
    bits[:, 0] = _state_bits(state)
    made = 1
    while made < lanes:
        # jump the starts made so far by their count times L, a block of
        # columns at a time, so that only one block is ever held as float64
        jump = _jump(k)
        count = min(made, lanes - made)
        for first in range(0, count, _JUMP_COLUMNS):
            block = slice(first, min(count, first + _JUMP_COLUMNS))
            ahead = jump @ bits[:, block].astype(np.float64)
            bits[:, made + first : made + block.stop] = ahead.astype(np.int32) & 1
        made += count
        k += 1
    packed = np.packbits(bits, axis=0, bitorder="little")
    words = np.ascontiguousarray(packed.T).view("<u8")
    return [words[:, w].astype(np.uint64) for w in range(4)]


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

    def uniform_array(self, shape) -> np.ndarray:
        """``shape`` unit draws in row-major order: the same values, and the
        same state afterwards, as that many ``uniform()`` calls."""
        n = int(np.prod(shape))
        out = np.empty(n, dtype=np.float64)
        whole = 0
        if n >= _LANE_MIN:
            # lanes 2^k long, k chosen so that the lane length is about sqrt(n)
            k = (n.bit_length() - 1) // 2
            whole = n >> k << k
            self._fill_lanes(out[:whole].reshape(-1, 1 << k))
        out[whole:] = [self.uniform() for _ in range(whole, n)]
        return out.reshape(shape)

    def _fill_lanes(self, out: np.ndarray) -> None:
        """Fill ``out`` [lanes, L], L a power of two, from the stream, lane
        j's i-th value being the stream's value j L + i, and leave the state
        at the end of the last lane."""
        lanes, length = out.shape
        s0, s1, s2, s3 = _lane_starts(self._s, length.bit_length() - 1, lanes)
        r = np.empty(lanes, dtype=np.uint64)
        t = np.empty(lanes, dtype=np.uint64)
        # each step writes a contiguous row of ``chunk``, and each chunk goes
        # into ``out`` transposed: a run of values per lane, not a strided
        # column per step
        chunk = np.empty((min(length, _LANE_CHUNK), lanes))
        for start in range(0, length, len(chunk)):
            rows = chunk[: min(len(chunk), length - start)]
            for row in rows:
                np.multiply(s1, 5, out=r)
                np.left_shift(r, 7, out=t)
                r >>= 57
                r |= t
                r *= 9
                r >>= 11
                row[:] = r
                np.left_shift(s1, 17, out=t)
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                np.left_shift(s3, 45, out=t)
                s3 >>= 19
                s3 |= t
            rows *= _INV_2_53
            out[:, start : start + len(rows)] = rows.T
        self._s = [int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1])]

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
