"""parallel.map_chunks with a real process pool against the serial sweep.

The library starts a pool only to split an enumeration, with workers > 1
at any n (for the eq1 and counts suites only from n = 7); the eq1 kernel
always runs in the calling process.  The pool forks its workers: a
worker's error is raised by the caller's own call, a worker that dies
loses no item, no child outlives a call, and a worker flushes none of
the caller's output.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

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


def test_counts_never_pools_below_the_threshold(monkeypatch):
    """`verify --suite counts --n 6 --workers 2` counts the kernel's words in
    this process; from the pool threshold on, their subtrees go to the pool.
    The report is the serial one either way."""
    pooled = []
    real = parallel.map_chunks

    def recording(fn, items, workers):
        pooled.append((fn, workers))
        return real(fn, items, workers)

    monkeypatch.setattr(parallel, "map_chunks", recording)
    report = verify.run_verify_suite("counts", 6, workers=2)
    assert pooled == [(superext._subtree_words, 1)]
    assert report == verify.run_verify_suite("counts", 6, workers=1)
    pooled.clear()
    monkeypatch.setattr(verify, "_POOL_FROM_N", 5)
    assert verify.suite_counts(5, workers=2) == verify.suite_counts(5, workers=1)
    assert pooled == [(superext._subtree_words, 2), (superext._subtree_words, 1)]


_CALLER = os.getpid()


def _raise_on_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"no item {x} here")
    return -x


def _exit_in_worker_on_three(x: int) -> int:
    if x == 3 and os.getpid() != _CALLER:
        os._exit(7)
    return -x


def _late_first(x: int) -> tuple[int, bytes]:
    """Item 0 comes back last, and the odd items are larger than a pipe's buffer."""
    if x == 0:
        time.sleep(0.05)
    return x, bytes(300_000 * (x % 2))


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_error_is_the_callers_own():
    """The item runs again in the caller, which raises the same error."""
    with pytest.raises(ValueError, match="^no item 3 here$"):
        parallel.map_chunks(_raise_on_three, range(6), 2)
    assert_no_child_left()


def test_a_worker_that_dies_loses_no_item():
    assert parallel.map_chunks(_exit_in_worker_on_three, range(6), 2) == [-x for x in range(6)]
    assert_no_child_left()


def test_results_merge_in_input_order():
    assert parallel.map_chunks(_late_first, range(5), 3) == [_late_first(x) for x in range(5)]
    assert_no_child_left()


def test_a_threaded_caller_runs_serially():
    """A fork copies only the calling thread, so no pool starts while another runs."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert parallel.map_chunks(_pid, range(4), 2) == [os.getpid()] * 4
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_no_child_left()


def test_unflushed_output_is_written_once():
    """A worker ends without flushing the buffers it copied from the caller."""
    src = str(Path(parallel.__file__).resolve().parents[1])
    code = "import sys\nfrom supext import parallel\nsys.stdout.write('before\\n')\nprint(parallel.map_chunks(abs, [-1, -2, -3], 2))\n"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60,
        env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
    ).stdout
    assert out == "before\n[1, 2, 3]\n"
