"""Stream derivation must be stable, keyed, and history-independent."""

import numpy as np
import pytest

from gridpatterns.rng import _BLOCK, _pcg64_states, _substreams, derive_seed, substream


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


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, derive_seed(0, 1), 2**160 + 3, np.int64(7)])
def test_pcg64_states_match_numpy(seed):
    # one-word spawn keys are derived in the package, two-word ones (2**32
    # and up) by numpy; the second range straddles the switch
    for start, stop in [(0, 40), (2**32 - 3, 2**32 + 6), (2**32 + 5, 2**32 + 6), (123_456_789, 123_456_800)]:
        assert _pcg64_states(seed, start, stop) == [_numpy_state(seed, i) for i in range(start, stop)]


@pytest.mark.parametrize("seed, start", [(-1, 0), (5, -1)])
def test_pcg64_states_refuse_what_substream_refuses(seed, start):
    with pytest.raises(ValueError) as expected:
        substream(seed, start)
    with pytest.raises(ValueError) as raised:
        _pcg64_states(seed, start, start + 3)
    assert str(raised.value) == str(expected.value)


def test_substreams_equal_fresh_substreams():
    # integers() leaves half of a 64-bit output buffered; the next stream
    # must start without it, across a block boundary of the derivation
    start, stop = _BLOCK - 4, _BLOCK + 6
    reused = [rng.integers(1000, size=3).tolist() for rng in _substreams(31, start, stop)]
    fresh = [substream(31, i).integers(1000, size=3).tolist() for i in range(start, stop)]
    assert reused == fresh

