"""parallel.map_chunks with a real process pool against the serial sweep.

The library starts a pool only to split an enumeration, with workers > 1
at any n (for the eq1 suite only from n = 7); the eq1 kernel always runs
in the calling process.
"""

from __future__ import annotations

import os

from supext import parallel, superext, verify
from supext.setkit import GroundSet


def _pid(_: int) -> int:
    return os.getpid()


def test_pool_really_runs_in_other_processes():
    pids = parallel.map_chunks(_pid, range(8), 2)
    assert len(pids) == 8 and os.getpid() not in pids


def test_enum_subtrees_through_a_pool():
    n, depth = 6, 12
    root = 1 << GroundSet(n).full
    items = [(n, fam, depth) for fam in superext._backtrack(n, root, 0, depth)]
    assert len(items) > 2
    serial = parallel.map_chunks(superext._enum_subtree, items, 1)
    assert parallel.map_chunks(superext._enum_subtree, items, 2) == serial
    assert sum(map(len, serial)) == superext.EXPECTED_MLS_COUNTS[n]


def test_eq1_never_pools_its_kernel(monkeypatch):
    """Even where eq1 enumerates through a pool, only the enumeration's
    subtrees go to it, and the report is the serial one."""
    pooled = []
    real = parallel.map_chunks

    def recording(fn, items, workers):
        pooled.append(fn)
        return real(fn, items, workers)

    monkeypatch.setattr(verify, "_POOL_FROM_N", 5)
    monkeypatch.setattr(parallel, "map_chunks", recording)
    report = verify.suite_eq1(5, workers=2)
    assert pooled == [superext._enum_subtree]
    assert report == verify.suite_eq1(5, workers=1)
