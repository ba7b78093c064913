"""Stream derivation must be stable, keyed, and history-independent."""

import numpy as np
import pytest

from gridpatterns.rng import (
    _bounded_uint32,
    _next_double,
    _pcg64_next,
    _pcg64_states,
    _saved,
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


def _numpy_state(seed, i):
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i,))).state["state"]
    return state["state"], state["inc"]


def _ints(words):
    """A (hi, lo) pair of uint64 arrays as a list of 128-bit ints."""
    return [int(hi) << 64 | int(lo) for hi, lo in zip(*words)]


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, derive_seed(0, 1), 2**160 + 3, np.int64(7)])
def test_pcg64_states_match_numpy(seed):
    # one-word spawn keys are derived in the package, two-word ones (2**32
    # and up) by numpy; the second range straddles the switch
    for start, stop in [(0, 40), (2**32 - 3, 2**32 + 6), (2**32 + 5, 2**32 + 6), (123_456_789, 123_456_800)]:
        state, inc = _pcg64_states(seed, start, stop)
        assert list(zip(_ints(state), _ints(inc))) == [_numpy_state(seed, i) for i in range(start, stop)]


@pytest.mark.parametrize("seed, start", [(-1, 0), (5, -1)])
def test_pcg64_states_refuse_what_substream_refuses(seed, start):
    with pytest.raises(ValueError) as expected:
        substream(seed, start)
    with pytest.raises(ValueError) as raised:
        _pcg64_states(seed, start, start + 3)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("seed", [0, 2**160 + 3])
def test_outputs_and_doubles_match_numpy(seed):
    # the range straddles the switch from derived to numpy-given states
    state, inc = _pcg64_states(seed, 2**32 - 20, 2**32 + 20)
    outputs, doubles = [], []
    for _ in range(3):
        state, x = _pcg64_next(state, inc)
        outputs.append(x.tolist())
        doubles.append(_next_double(x).tolist())
    for j, i in enumerate(range(2**32 - 20, 2**32 + 20)):
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
        kept = _saved(rng) == (step, increment, 1, output >> 32)
        assert kept != rejected[i]
        if kept:
            assert value == values[i]
