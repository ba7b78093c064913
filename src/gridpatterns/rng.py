"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a generator obtained
through :func:`substream`, keyed by a root seed plus an integer path.  The
stream for a given key is independent of how work is divided among worker
processes, which is what makes ensembles byte-identical for any worker count.

Ensembles need one stream per pattern, ``substream(seed, i)``, by the
hundred thousand.  :func:`_substreams` yields those streams for an index
range without building a SeedSequence, a PCG64 and a Generator for each:
:func:`_pcg64_states` derives every pattern's PCG64 state with this
module's own copy of numpy's seeding (the SeedSequence hash mixing of
NumPy NEP 19, vectorised over the index, then PCG64's 128-bit ``srandom``
from O'Neill 2014), and each state is set on one reused Generator.  numpy
itself is the test oracle for that copy, and the fallback for every key
it does not model.
"""

from __future__ import annotations

from typing import Iterator

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
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
# Indices per vectorised derivation in _substreams; bounds its memory.
_BLOCK = 1024


def _hashmix(value, hash_const: int):
    """SeedSequence's hashmix of a word, or of a uint32 array; returns it and the next constant."""
    next_const = (hash_const * _MULT_A) & _MASK32
    value = ((value ^ hash_const) * next_const) & _MASK32
    return value ^ (value >> 16), next_const


def _mix(x, y):
    """SeedSequence's mix of two words; ``y`` may be a uint32 array."""
    value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return value ^ (value >> 16)


def _pcg64_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``substream(seed, i)`` for each i in ``range(start, stop)``.

    Indices in [0, 2**32) of a nonnegative int seed are derived here: their
    spawn key is one 32-bit word, the last of SeedSequence's entropy, so all
    the mixing before it is shared by the range and only the last step runs
    as uint32 array arithmetic over the index.  Any other key (a negative or
    non-int seed, a negative index, or one of two words) goes to numpy
    through :func:`substream`, which also raises its errors unchanged.
    """
    if type(seed) is not int or seed < 0 or start < 0:
        mid = start
    else:
        mid = max(start, min(stop, 1 << 32))
    states = _derived_states(seed, start, mid) if mid > start else []
    for i in range(mid, stop):
        pcg = substream(seed, i).bit_generator.state["state"]
        states.append((pcg["state"], pcg["inc"]))
    return states


def _derived_states(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """:func:`_pcg64_states` for a nonnegative int seed and 0 <= start < stop <= 2**32."""
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
    s_hi, s_lo, q_hi, q_lo = ((out[2 * j] | (out[2 * j + 1] << np.uint64(32))).tolist() for j in range(4))
    # PCG64's srandom(initstate, initseq) with initstate = s_hi:s_lo and
    # initseq = q_hi:q_lo, as 128-bit Python int arithmetic.
    states = []
    for a, b, c, d in zip(s_hi, s_lo, q_hi, q_lo):
        inc = ((c << 65) | (d << 1) | 1) & _MASK128
        states.append(((((a << 64 | b) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _substreams(seed: int, start: int, stop: int) -> Iterator[np.random.Generator]:
    """Yield ``substream(seed, i)`` for each i in ``range(start, stop)``, in order.

    Every stream is the same Generator, set in place to stream i's fresh
    state before it is yielded, so a caller must be done drawing from one
    stream before it advances to the next.
    """
    rng = np.random.Generator(np.random.PCG64())
    for lo in range(start, stop, _BLOCK):
        for state, inc in _pcg64_states(seed, lo, min(lo + _BLOCK, stop)):
            _restore(rng, (state, inc, 0, 0))
            yield rng


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
