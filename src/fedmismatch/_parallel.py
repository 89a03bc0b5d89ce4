"""One thread pool for array work inside a work item.

``workers(threads)`` makes a pool of that many threads current for the code
run inside it; ``map_ordered`` hands calls to it. Only array passes that
release the GIL (random draws, BLAS products, fancy-index gathers) are worth
handing over. Outside ``workers``, with ``threads=1``, or on a pool thread
(a new thread starts with an empty context), ``map_ordered`` runs inline, so
nested calls cannot deadlock and one thread starts no pool. Callers split
their work the same way whatever the width, into units of ``BLOCK_CELLS``
float64 cells (``block_rows(d)`` rows of d columns), so results do not
depend on the width and a unit's memory does not depend on d.
"""
from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import contextvars

# Float64 cells in one unit of pooled array work (512 KiB); work that fits in
# one unit runs inline. On small arrays the calls are Python-bound, and
# threads that take turns at the GIL cost more than the array passes save.
BLOCK_CELLS = 2**16
# A unit's rows are a multiple of this. BLAS matrix-vector kernels take rows
# in groups (of 4 in OpenBLAS's x86 kernels) and round the last, partial
# group differently, so a row rounds as in one product over all rows only
# if its unit starts on a group boundary.
ROW_GROUP = 16


def block_rows(d: int) -> int:
    """Rows of ``d`` columns in one unit: ``BLOCK_CELLS // d`` rounded down
    to a multiple of ``ROW_GROUP``, and at least ``ROW_GROUP``, so a unit's
    memory does not grow with d."""
    return max(ROW_GROUP, BLOCK_CELLS // d // ROW_GROUP * ROW_GROUP)


def pooled(rows: int, d: int) -> bool:
    """Whether work over ``rows`` rows of ``d`` columns goes to the pool: when
    it spans two or more units, the last unit taking the remainder."""
    return rows >= 2 * block_rows(d)


_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("fedmismatch_workers", default=None)


@contextlib.contextmanager
def workers(threads: int):
    """Make a pool of ``threads`` threads current; none starts for 1."""
    pool = concurrent.futures.ThreadPoolExecutor(threads, "fedmismatch") if threads > 1 else None
    token = _ACTIVE.set(None if pool is None else (pool, threads))
    try:
        yield
    finally:
        _ACTIVE.reset(token)
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def map_ordered(fn, items) -> list:
    """``[fn(item) for item in items]``, with the calls on the current pool.

    ``items`` is consumed on the calling thread one item at a time, so a
    generator that draws its items overlaps with ``fn`` on earlier ones; at
    most two items per pool thread are in flight. If a call raises, the
    error propagates only once no call is left running.
    """
    active = _ACTIVE.get()
    if active is None:
        return [fn(item) for item in items]
    pool, width = active
    done = []
    pending: collections.deque = collections.deque()
    try:
        for item in items:
            if len(pending) == 2 * width:
                done.append(pending.popleft().result())
            pending.append(pool.submit(fn, item))
        while pending:
            done.append(pending.popleft().result())
        return done
    finally:
        for future in pending:
            future.cancel()
        concurrent.futures.wait(pending)
