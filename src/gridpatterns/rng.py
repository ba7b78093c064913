"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a generator obtained
through :func:`substream`, keyed by a root seed plus an integer path.  The
stream for a given key is independent of how work is divided among worker
processes, which is what makes ensembles byte-identical for any worker count.

Ensembles need one stream per pattern, ``substream(seed, i)``, by the
hundred thousand, and most patterns make only two or three draws.  So this
module also computes those streams' first draws itself, as uint64 array
arithmetic over a block of indices, without building a SeedSequence, a
PCG64 or a Generator per stream:

- :func:`_pcg64_states` derives every stream's PCG64 state: the
  SeedSequence hash mixing of NumPy NEP 19, vectorised over the index, then
  PCG64's 128-bit ``srandom`` (O'Neill 2014);
- :func:`_pcg64_next` steps the 128-bit LCG and gives its XSL-RR output;
- :func:`_next_double` and :func:`_bounded_uint32` turn outputs into
  numpy's ``random()`` and ``integers(n)`` draws, the latter by Lemire's
  multiply-shift ("Fast random integer generation in an interval", ACM
  TOMACS 2019), which keeps the output's high half buffered.

A 128-bit state is a ``(hi, lo)`` pair of uint64 words, and its arithmetic
is one multiply-add built from 32-bit limbs (:func:`_muladd`).  numpy
itself is the test oracle for all of it, and the source of every state
this module does not derive.
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
# 128-bit constants as (hi, lo) uint64 words: PCG64's LCG multiplier, and 1.
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_ONE = (np.uint64(0), np.uint64(1))
_LOW32 = np.uint64(_MASK32)
_U32 = np.uint64(32)
# Indices per vectorised block of streams; bounds the arrays' memory.
_BLOCK = 1024

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

    Both come as ``(hi, lo)`` pairs of uint64 arrays.  Indices in [0, 2**32)
    of a nonnegative int seed are derived here: their spawn key is one 32-bit
    word, the last of SeedSequence's entropy, so all the mixing before it is
    shared by the range and only the last step runs as uint32 array
    arithmetic over the index.  Any other key (a negative or non-int seed, a
    negative index, or one of two words) goes to numpy through
    :func:`substream`, which also raises its errors unchanged.
    """
    if type(seed) is not int or seed < 0 or start < 0:
        mid = start
    else:
        mid = max(start, min(stop, 1 << 32))
    words = []
    for i in range(mid, stop):
        pcg = substream(seed, i).bit_generator.state["state"]
        words.append((pcg["state"] >> 64, pcg["state"] & _MASK64, pcg["inc"] >> 64, pcg["inc"] & _MASK64))
    words = np.array(words, dtype=np.uint64).reshape(-1, 4).T
    if mid > start:
        words = np.concatenate([_derived_states(seed, start, mid), words], axis=1)
    s_hi, s_lo, i_hi, i_lo = words
    return (s_hi, s_lo), (i_hi, i_lo)


def _derived_states(seed: int, start: int, stop: int) -> np.ndarray:
    """:func:`_pcg64_states` for a nonnegative int seed and 0 <= start < stop <= 2**32, as rows state_hi, state_lo, inc_hi, inc_lo."""
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
    state = _muladd(_muladd((s_hi, s_lo), _ONE, inc), _PCG_MULT, inc)
    return np.stack([*state, *inc])


def _saved(rng: np.random.Generator) -> tuple[int, int, int, int]:
    """A PCG64 Generator's full state as ints: state, inc, has_uint32, uinteger."""
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["has_uint32"], state["uinteger"]


def _restore(rng: np.random.Generator, saved: tuple[int, int, int, int]) -> None:
    """Set a PCG64 Generator to a state from :func:`_saved`."""
    state, inc, has_uint32, uinteger = saved
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
