"""Deterministic work partitioning.

Inputs are immutable and workers are pure, so parallel runs only need a
canonical merge to be byte-identical with serial runs.  Falls back to a
serial sweep when process pools are unavailable.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def map_chunks(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """Apply ``fn`` to every item, preserving input order in the result."""
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    try:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, items))
    except OSError:
        return [fn(it) for it in items]
