"""The process pool of ``evaluation.evaluate_model``, one whole repetition per task.

The pool size is clamped before a pool exists, so a large ``--threads``
never starts more processes than there are CPUs or tasks.  Workers are
spawned, not forked: forking a process that already runs threads (numpy's
among them) can deadlock the child.  Results come back in task order, so
they do not depend on the pool size.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor


def pool_size(requested: int, tasks: int) -> int:
    """Worker processes for ``tasks`` tasks: min(requested, usable CPUs, tasks), at least 1."""
    if requested < 1:
        raise ValueError(f"worker count must be at least 1, got {requested}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(requested, cpus, tasks))


def process_pool(processes: int):
    """Context manager yielding a pool of ``processes`` workers, or None (run in this process) for 1."""
    if processes == 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(max_workers=processes, mp_context=multiprocessing.get_context("spawn"))


def run_all(pool, fn, tasks) -> list:
    """``fn(*task)`` for every task, in task order, on ``pool`` or in this process."""
    if pool is None:
        return [fn(*task) for task in tasks]
    futures = [pool.submit(fn, *task) for task in tasks]
    return [future.result() for future in futures]
