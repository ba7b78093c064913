"""Pool sizing: a pure clamp, tested without starting any process."""

from __future__ import annotations

import os

import pytest

from gridpatterns.parallel import pool_size

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
