"""Deterministic work partitioning.

Inputs are immutable and workers are pure, so parallel runs only need a
canonical merge to be byte-identical with serial runs.  The pool forks its
workers from the caller (``supext._forkpool``); where ``os.fork`` is missing
(Windows), or the caller runs other threads, which a fork does not copy and
whose locks it can leave held in the child, the items run serially, and so
does every item no worker returned.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# The largest pool map_chunks starts, and the largest --workers the CLI
# takes.  Every worker is a fork of the caller, so an unbounded count could
# exhaust the machine's processes or memory before any work is done.  256 is
# far above the cores of the machines this runs on.
MAX_WORKERS = 256


def _threaded() -> bool:
    threading = sys.modules.get("threading")
    return threading is not None and threading.active_count() > 1


def map_chunks(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """Apply ``fn`` to every item, preserving input order in the result, in a
    pool of at most one process per item and at most ``MAX_WORKERS``.

    One item per task.  The heavy n=7 subtrees lie next to each other in
    prefix order, so batches of neighbours can unbalance the workers: an
    n=7 count at --workers 2 in batches of 1, 4 and 16 prefixes took
    6.6-10.4, 7.0-8.9 and 8.2-9.3 s, medians 7.8, 7.7 and 8.6 s (4
    alternating rounds, 2 vCPU, Python 3.11, loaded host).
    """
    workers = min(workers, len(items), MAX_WORKERS)
    if workers <= 1 or not hasattr(os, "fork") or _threaded():
        return [fn(it) for it in items]
    # imported here: most runs never start a pool, and a job that imports
    # the pool's code without using it pays to compile it
    from ._forkpool import map_forked

    return map_forked(fn, items, workers)
