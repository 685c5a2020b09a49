"""The process pool of ``parallel.map_chunks``: forked workers, one item at a time.

Each worker is a fork of the caller, so it already holds ``fn`` and the
items.  It reads an item's index from its task pipe and writes back the
index, the length of the pickled result and the result on its result pipe.
The caller sends a worker its next index as each result comes back, and
closes the task pipe when no item is left, which ends the worker.  An item
whose result never came back, because its worker raised or died or because
a pipe or a fork failed, is run by the caller itself once every worker is
reaped, so a worker's exception is raised again by the caller's own call.
While the pool runs, SIGTERM raises KeyboardInterrupt, in the caller and in
its workers, so that a terminated caller kills and reaps its workers before
it ends.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

_INDEX = struct.Struct("<q")
_HEADER = struct.Struct("<qq")  # item index, length of the pickled result
_MISSING = object()


def _read_exact(fd: int, size: int) -> bytearray | None:
    """``size`` bytes from a pipe, or None if it ends first."""
    buf = bytearray(size)
    view = memoryview(buf)
    got = 0
    while got < size:
        k = os.readv(fd, [view[got:]])
        if not k:
            return None
        got += k
    return buf


def _receive(fd: int) -> tuple[int, bytearray] | None:
    """One framed result, or None once the worker has ended."""
    head = _read_exact(fd, _HEADER.size)
    if head is None:
        return None
    i, size = _HEADER.unpack(head)
    data = _read_exact(fd, size)
    return None if data is None else (i, data)


def _serve(fn: Callable[[T], R], items: Sequence[T], task: int, result: int) -> None:
    """A worker's loop: an index in, the framed result out, until the task pipe ends."""
    while head := os.read(task, _INDEX.size):
        (i,) = _INDEX.unpack(head)
        data = pickle.dumps(fn(items[i]), pickle.HIGHEST_PROTOCOL)
        view = memoryview(_HEADER.pack(i, len(data)) + data)
        while view:
            view = view[os.write(result, view) :]


def map_forked(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[fn(item) for item in items]``, in order, over at most ``workers`` forked workers."""
    results: list = [_MISSING] * len(items)
    pids: list[int] = []
    tasks: dict[int, int] = {}  # a worker's result fd -> its task fd, -1 once closed
    todo = iter(range(len(items)))

    def send(fd: int) -> None:
        """The next item to the worker reading on ``fd``, or the end of its tasks."""
        task = tasks[fd]
        i = next(todo, None)
        if i is not None:
            try:
                os.write(task, _INDEX.pack(i))
                return
            except OSError:  # the worker is gone, and item i is left to the caller
                pass
        os.close(task)
        tasks[fd] = -1

    sigterm = signal.signal(signal.SIGTERM, signal.default_int_handler)
    # both signals wait while workers are forked, so that each is recorded to be killed and reaped
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    try:
        for _ in range(workers):
            ends: list[int] = []
            try:
                ends += os.pipe()
                ends += os.pipe()
                pid = os.fork()
            except OSError:
                for fd in ends:
                    os.close(fd)
                break
            task_r, task_w, result_r, result_w = ends
            if pid == 0:
                # A worker never returns into the caller's code: it runs none
                # of the caller's cleanup and flushes none of its buffers.
                code = 1
                try:
                    signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                    # the parent's ends of every pipe: a task pipe held open
                    # here would end for its worker only when this one ends
                    for fd in (*tasks, *tasks.values(), task_w, result_r):
                        os.close(fd)
                    _serve(fn, items, task_r, result_w)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(task_r)
            os.close(result_w)
            tasks[result_r] = task_w
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        poller = select.poll()
        for fd in tasks:
            poller.register(fd, select.POLLIN)
            send(fd)
        live = len(tasks)
        while live:
            for fd, _ in poller.poll():
                got = _receive(fd)
                if got is None:  # the worker has ended: done, raised or died
                    poller.unregister(fd)
                    live -= 1
                    continue
                i, data = got
                results[i] = pickle.loads(data)
                send(fd)
    except BaseException:
        # a worker would finish its item first: the n=7 items take up to about a second
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:  # reaped already, where SIGCHLD is ignored
                pass
        raise
    finally:
        signal.signal(signal.SIGTERM, sigterm)
        for fd, task in tasks.items():
            os.close(fd)
            if task >= 0:
                os.close(task)
        for pid in pids:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, where SIGCHLD is ignored
                pass
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return [fn(item) if r is _MISSING else r for item, r in zip(items, results)]
