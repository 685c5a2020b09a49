"""Deterministic work partitioning.

Inputs are immutable and workers are pure, so parallel runs only need a
canonical merge to be byte-identical with serial runs.  Falls back to a
serial sweep when process pools are unavailable.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# The largest pool map_chunks starts, and the largest --workers the CLI
# takes.  A pool forks all its processes at the first task, each a copy of
# the caller, so an unbounded count could exhaust the machine's processes or
# memory before any work is done.  256 is far above the cores of the
# machines this runs on.
MAX_WORKERS = 256


def map_chunks(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """Apply ``fn`` to every item, preserving input order in the result, in a
    pool of at most one process per item and at most ``MAX_WORKERS``."""
    workers = min(workers, len(items), MAX_WORKERS)
    if workers <= 1:
        return [fn(it) for it in items]
    # imported here: concurrent.futures adds about 30 ms to every CLI
    # start-up, and most runs never start a pool
    from concurrent.futures import ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            # One item per task.  The heavy n=7 subtrees lie next to each other
            # in prefix order, so batches of neighbours unbalance the workers:
            # at --workers 2, batches of 1, 4 and 16 prefixes took 41.7 s,
            # 43.6 s and 46.1 s.
            return list(ex.map(fn, items, chunksize=1))
    except OSError:
        return [fn(it) for it in items]
