"""parallel.map_chunks with a real process pool against the serial sweep.

The library starts a pool for enumeration with workers > 1 at any n, and
for the eq1 checks only from n = 7, a size too slow for these tests; they
drive map_chunks directly.
"""

from __future__ import annotations

import os

from supext import parallel, superext
from supext.setkit import GroundSet
from supext.verify import _eq1_chunk


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


def test_eq1_chunks_through_a_pool():
    n = 4
    antichains = [eta.minimal for eta in superext.enumerate_mls(GroundSet(n))]
    # a non-linked antichain, so the chunks also carry failures
    antichains.append((0b0001, 0b0010))
    items = [(n, tuple(antichains[i::3])) for i in range(3)]
    serial = parallel.map_chunks(_eq1_chunk, items, 1)
    assert parallel.map_chunks(_eq1_chunk, items, 2) == serial
    assert any(failures for _, failures in serial)
