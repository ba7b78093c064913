"""Deterministic random streams, and the package's own draws on them.

Every stochastic routine in the package draws from a stream keyed by a root
seed plus an integer path: PCG64 seeded by ``SeedSequence(seed,
spawn_key=path)`` (NumPy NEP 19).  The stream for a given key is independent
of how work is divided among worker processes, which is what makes
ensembles byte-identical for any worker count.

:func:`substream` wraps a stream in a numpy Generator.  Pattern generation
and calibration draw through this module instead, one stream per pattern, by
the hundred thousand:

- :func:`_pcg64_states`, the one derivation of these streams, gives a block
  of streams ``(seed, i)``, i < 2**32 (:data:`STREAMS`), as uint64 array
  arithmetic: SeedSequence's hash mixing vectorised over the index, then
  PCG64's 128-bit ``srandom`` (O'Neill 2014), on ``(hi, lo)`` pairs of
  uint64 words multiplied and added from 32-bit limbs (:func:`_muladd`);
- :func:`_pcg64_next`, :func:`_next_double` and :func:`_bounded_uint32` make
  every stream's first draws in bulk, and a :class:`Stream` the rest.

Both draw as numpy's ``Generator.random()`` and ``integers(n)`` do: the top
53 bits of an output times 2**-53, and Lemire's multiply-shift ("Fast random
integer generation in an interval", ACM TOMACS 2019) on a 32-bit half, the
other half kept for the next bounded draw.  These are fixed algorithms, so a
seed's patterns do not move with numpy's Generator; numpy is the test oracle.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return an independent generator for the stream named ``(seed, *path)``.

    The same key always yields the same stream, and distinct keys yield
    statistically independent streams.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a new integer seed.

    Used to hand a child computation its own root seed so that its internal
    stream indexing starts from a clean namespace.
    """
    state = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path)).generate_state(4)
    return int.from_bytes(state.tobytes(), "little")


# numpy's SeedSequence constants (pool of four 32-bit words).
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_L = 0xCA01F9DD
_MIX_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# PCG64's LCG multiplier; 128-bit constants as (hi, lo) uint64 words: it, and 1.
_PCG_MULT_INT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT = (np.uint64(_PCG_MULT_INT >> 64), np.uint64(_PCG_MULT_INT & _MASK64))
_ONE = (np.uint64(0), np.uint64(1))
_LOW32 = np.uint64(_MASK32)
_U32 = np.uint64(32)
# Indices per vectorised block of streams; bounds the arrays' memory.
_BLOCK = 1024
# Streams per seed that _pcg64_states derives: a spawn key is one 32-bit word.
STREAMS = 1 << 32

Words = tuple[np.ndarray, np.ndarray]


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix of a word, or of a uint32 array; returns it and the next constant."""
    next_const = (hash_const * _MULT_A) & _MASK32
    value = ((value ^ hash_const) * next_const) & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x, y):
    """SeedSequence's mix of two words; ``y`` may be a uint32 array."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _mul_hi(a: np.ndarray, b) -> np.ndarray:
    """High 64 bits of the 128-bit product of uint64 words, from 32-bit limbs."""
    a0, a1 = a & _LOW32, a >> _U32
    b0, b1 = b & _LOW32, b >> _U32
    mid = a1 * b0 + ((a0 * b0) >> _U32)
    return a1 * b1 + (mid >> _U32) + ((a0 * b1 + (mid & _LOW32)) >> _U32)


def _muladd(a: Words, m, c: Words) -> Words:
    """``a * m + c`` mod 2**128, each a ``(hi, lo)`` pair of uint64 words or word arrays."""
    (a_hi, a_lo), (m_hi, m_lo), (c_hi, c_lo) = a, m, c
    lo = a_lo * m_lo + c_lo
    return _mul_hi(a_lo, m_lo) + a_lo * m_hi + a_hi * m_lo + c_hi + (lo < c_lo), lo


def _pcg64_next(state: Words, inc: Words) -> tuple[Words, np.ndarray]:
    """PCG64's next output: step the LCG, then XSL-RR of the new state; returns the new state and the output."""
    hi, lo = state = _muladd(state, _PCG_MULT, inc)
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return state, (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


def _next_double(x: np.ndarray) -> np.ndarray:
    """numpy's ``random()`` double from 64-bit outputs: the top 53 bits times 2**-53."""
    return (x >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _bounded_uint32(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ``integers(n)``, 2 <= n < 2**32, on a stream with no buffered half, from its next outputs ``x``.

    The draw takes the low half of ``x`` and leaves the high half, ``x >> 32``,
    buffered.  Returns the values and a mask of the draws that reject, where
    numpy draws again and the value here is meaningless.
    """
    m = (x & _LOW32) * np.uint64(n)
    return m >> _U32, (m & _LOW32) < np.uint64((2**32 - n) % n)


def _pcg64_states(seed: int, start: int, stop: int) -> tuple[Words, Words]:
    """PCG64 state and increment of ``substream(seed, i)`` for each i in ``range(start, stop)``.

    Both come as ``(hi, lo)`` pairs of uint64 arrays.  The seed is a
    nonnegative int and 0 <= start <= stop <= :data:`STREAMS`, so each spawn
    key is one 32-bit word, the last of SeedSequence's entropy: all the
    mixing before it is shared by the range, and only the last step runs as
    uint32 array arithmetic over the index.  Raises ValueError otherwise.
    """
    if not (type(seed) is int and seed >= 0 and 0 <= start <= stop <= STREAMS):
        raise ValueError(f"keys need an int seed >= 0 and 0 <= start <= stop <= 2**32, got {seed!r}, {start}, {stop}")
    # The seed's 32-bit words, little end first, padded with zeros to the
    # pool size because a spawn key follows them.
    entropy = [(seed >> shift) & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (_POOL - len(entropy))
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        mixed, hash_const = _hashmix(word, hash_const)
        pool.append(mixed)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], mixed)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            mixed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], mixed)
    # Only this last entropy word, the spawn key, depends on the index.
    index = np.arange(start, stop, dtype=np.int64).astype(np.uint32)
    for dst in range(_POOL):
        mixed, hash_const = _hashmix(index, hash_const)
        pool[dst] = _mix(pool[dst], mixed)
    # generate_state(4, np.uint64): eight words cycling over the pool,
    # paired little end first into four uint64s.
    hash_const = _INIT_B
    out = []
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        out.append((value ^ (value >> 16)).astype(np.uint64))
    s_hi, s_lo, q_hi, q_lo = (out[2 * j] | (out[2 * j + 1] << _U32) for j in range(4))
    # PCG64's srandom(initstate, initseq) with initstate = s_hi:s_lo and
    # initseq = q_hi:q_lo: inc = 2 * initseq + 1, then two LCG steps from 0
    # with initstate added between them.
    one = np.uint64(1)
    inc = ((q_hi << one) | (q_lo >> np.uint64(63)), (q_lo << one) | one)
    return _muladd(_muladd((s_hi, s_lo), _ONE, inc), _PCG_MULT, inc), inc


class Stream:
    """One PCG64 stream on Python ints: its 128-bit LCG ``state`` and ``inc``, and the kept 32-bit ``half`` or -1.

    From the same PCG64 state, :meth:`random` and :meth:`integers` draw as
    numpy's ``Generator.random()`` and ``Generator.integers(n)`` do.
    """

    __slots__ = ("state", "inc", "half")

    def __init__(self, state: int, inc: int, half: int = -1):
        self.state, self.inc, self.half = state, inc, half

    def copy(self) -> Stream:
        """An independent stream at the same point."""
        return Stream(self.state, self.inc, self.half)

    def next64(self) -> int:
        """PCG64's next output: step the LCG, then XSL-RR of the new state."""
        state = self.state = (self.state * _PCG_MULT_INT + self.inc) & _MASK128
        hi = state >> 64
        x = hi ^ (state & _MASK64)
        rot = hi >> 58
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def random(self) -> float:
        """A double in [0, 1): the next output's top 53 bits times 2**-53; never touches ``half``."""
        return (self.next64() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, n: int) -> int:
        """A uniform int in [0, n), 1 <= n < 2**32, by Lemire's multiply-shift; ``n = 1`` draws nothing.

        Each try takes the kept half, or else the low half of the next output
        and keeps its high half; it rejects while ``u * n`` has a low word
        below ``(2**32 - n) % n``.
        """
        if n == 1:
            return 0
        while True:
            u = self.half
            if u < 0:
                x = self.next64()
                u, self.half = x & _MASK32, x >> 32
            else:
                self.half = -1
            m = u * n
            low = m & _MASK32
            if low >= n or low >= (0x100000000 - n) % n:
                return m >> 32
