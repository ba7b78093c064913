"""Pool sizing: a pure clamp, tested without starting any process."""

from __future__ import annotations

import os

import pytest

from gridpatterns.parallel import index_chunks, pool_size

CPUS = len(os.sched_getaffinity(0))


def test_pool_size_clamps_to_cpus_and_tasks():
    assert pool_size(10**9, 10**9) == CPUS
    assert pool_size(10**9, 1) == 1
    assert pool_size(1, 10**9) == 1
    assert pool_size(2, 10**9) == min(2, CPUS)
    assert pool_size(10**9, 0) == 1


@pytest.mark.parametrize("requested", [0, -1, -(10**9)])
def test_pool_size_rejects_fewer_than_one(requested):
    with pytest.raises(ValueError):
        pool_size(requested, 10)


@pytest.mark.parametrize("count, processes", [(1, 1), (42, 1), (1, 2), (7, 2), (42, 3), (1000, 2)])
def test_index_chunks_cover_the_range_in_order(count, processes):
    chunks = index_chunks(count, processes)
    assert chunks[0][0] == 0
    assert chunks[-1][1] == count
    assert all(lo < hi for lo, hi in chunks)
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
    assert len(chunks) <= max(1, 4 * processes)


@pytest.mark.parametrize("processes", [1, 2, 5])
def test_index_chunks_of_nothing_is_no_chunk(processes):
    assert index_chunks(0, processes) == []
