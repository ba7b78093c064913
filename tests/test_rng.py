"""Stream derivation must be stable, keyed, and history-independent."""

import numpy as np
import pytest

from gridpatterns.rng import (
    Stream,
    _bounded_uint32,
    _next_double,
    _pcg64_next,
    _pcg64_states,
    derive_seed,
    substream,
)


def test_same_key_same_stream():
    a = substream(42, 3, 7).random(5)
    b = substream(42, 3, 7).random(5)
    assert np.array_equal(a, b)


def test_different_keys_differ():
    a = substream(42, 0).random(4)
    b = substream(42, 1).random(4)
    c = substream(43, 0).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_independent_of_prior_calls():
    # mimic a worker that starts mid-range: stream i is the same whether or
    # not streams 0..i-1 were drawn first
    direct = substream(9, 5).random(3)
    for i in range(5):
        substream(9, i).random(3)
    again = substream(9, 5).random(3)
    assert np.array_equal(direct, again)


def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seeds = {derive_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(s >= 0 for s in seeds)


def test_derived_seed_namespaces_do_not_collide():
    a = substream(derive_seed(0, 1), 0).random(4)
    b = substream(derive_seed(0, 2), 0).random(4)
    assert not np.array_equal(a, b)


PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
PCG_INC = 0x5851F42D4C957F2D14057B7EF767814F


def fresh_state_with_output(k: int, x: int) -> int:
    """A PCG64 state whose k-th next output is ``x``, with increment PCG_INC.

    XSL-RR does not rotate a state whose top six bits are 0 and outputs the
    xor of its two words; stepping back k times inverts the LCG.
    """
    hi = 0x0123456789ABCDEF
    state, inverse = hi << 64 | (hi ^ x), pow(PCG_MULT, -1, 1 << 128)
    for _ in range(k):
        state = (state - PCG_INC) * inverse % (1 << 128)
    return state


def generator_at(state: int, inc: int = PCG_INC) -> np.random.Generator:
    """A numpy Generator on PCG64 at ``state`` and ``inc``, with no kept half."""
    bit_generator = np.random.PCG64()
    bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def generator_state(rng: np.random.Generator) -> tuple[int, int, int]:
    """A PCG64 Generator's LCG state, increment and kept 32-bit half (-1 if none), read from numpy's state dict."""
    state = rng.bit_generator.state
    return state["state"]["state"], state["state"]["inc"], state["uinteger"] if state["has_uint32"] else -1


def _numpy_state(seed, i):
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]
    return state["state"], state["inc"]


def _ints(words):
    """A (hi, lo) pair of uint64 arrays as a list of 128-bit ints."""
    return [int(hi) << 64 | int(lo) for hi, lo in zip(*words)]


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, derive_seed(0, 1), 2**160 + 3])
def test_pcg64_states_match_numpy(seed):
    # the second range ends at the top of the one-word spawn-key domain
    for start, stop in [(0, 40), (2**32 - 9, 2**32), (123_456_789, 123_456_800)]:
        state, inc = _pcg64_states(seed, start, stop)
        assert list(zip(_ints(state), _ints(inc))) == [_numpy_state(seed, i) for i in range(start, stop)]


@pytest.mark.parametrize(
    "seed, start, stop",
    [(-1, 0, 3), (np.int64(7), 0, 3), (5, -1, 2), (5, 2**32 - 2, 2**32 + 1)],
    ids=["negative-seed", "numpy-seed", "negative-start", "stop-past-2**32"],
)
def test_pcg64_states_refuse_keys_outside_the_domain(seed, start, stop):
    # an index of 2**32 or more would wrap silently in the uint32 spawn key
    with pytest.raises(ValueError, match="int seed"):
        _pcg64_states(seed, start, stop)


@pytest.mark.parametrize("seed", [0, 2**160 + 3])
def test_outputs_and_doubles_match_numpy(seed):
    state, inc = _pcg64_states(seed, 2**32 - 40, 2**32)
    outputs, doubles = [], []
    for _ in range(3):
        state, x = _pcg64_next(state, inc)
        outputs.append(x.tolist())
        doubles.append(_next_double(x).tolist())
    for j, i in enumerate(range(2**32 - 40, 2**32)):
        assert [column[j] for column in outputs] == substream(seed, i).bit_generator.random_raw(3).tolist()
        assert [column[j] for column in doubles] == substream(seed, i).random(3).tolist()


@pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30])
def test_bounded_draw_matches_numpy_integers(n):
    # about half of the draws reject at n = 2**31 + 1, and a quarter at
    # 3 * 2**30; a draw that does not reject must leave numpy's state: one
    # step on, with the output's high half buffered
    count = 400
    state, inc = _pcg64_states(11, 0, count)
    after, x = _pcg64_next(state, inc)
    values, rejected = _bounded_uint32(x, n)
    assert 0.1 * count < rejected.sum() < 0.7 * count
    for i, (step, increment, output) in enumerate(zip(_ints(after), _ints(inc), x.tolist())):
        rng = substream(11, i)
        value = int(rng.integers(n))
        kept = generator_state(rng) == (step, increment, output >> 32)
        assert kept != rejected[i]
        if kept:
            assert value == values[i]


_BOUNDS = (1, 2, 3, 2**5, 2**16, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1)


@pytest.mark.parametrize("n", _BOUNDS)
def test_stream_draws_as_numpy_generator(n):
    # integers(n) first, then random() and integers(k) interleaved in a
    # fixed random order, the bound k mostly n.  Half of the starts have a
    # first output whose low half is 0, so that first draw rejects for any
    # n > 1 that is not a power of two, (2**32 - n) % n being positive then.
    # The state, the kept half included, must agree after every draw.
    starts = [(fresh_state_with_output(1, high << 32), PCG_INC) for high in (0, 1, 2**31 + 7, 2**32 - 1)]
    starts += [_numpy_state(13, i) for i in range(4)]
    script = substream(99, n)
    for state, inc in starts:
        mine, numpy_rng = Stream(state, inc), generator_at(state, inc)
        assert mine.integers(n) == int(numpy_rng.integers(n))
        assert (mine.state, mine.inc, mine.half) == generator_state(numpy_rng)
        for _ in range(40):
            op = int(script.integers(4))
            if op == 0:
                assert mine.random() == numpy_rng.random()
            else:
                k = n if op < 3 else _BOUNDS[int(script.integers(len(_BOUNDS)))]
                assert mine.integers(k) == int(numpy_rng.integers(k))
            assert (mine.state, mine.inc, mine.half) == generator_state(numpy_rng)

