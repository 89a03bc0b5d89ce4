"""One thread pool for array work inside a work item.

``workers(threads)`` makes a pool of that many threads current for the code
run inside it; ``map_ordered`` hands calls to it. Only array passes that
release the GIL (random draws, BLAS products, fancy-index gathers) are worth
handing over. Outside ``workers``, with ``threads=1``, or on a pool thread
(a new thread starts with an empty context), ``map_ordered`` runs inline, so
nested calls cannot deadlock and one thread starts no pool. Callers split
their work the same way whatever the width, so results do not depend on it.
"""
from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import contextvars

# Rows in one unit of pooled array work; work on fewer rows runs inline. On
# small arrays the calls are Python-bound, and threads that take turns at the
# GIL cost more than the array passes save.
BLOCK_ROWS = 8192

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
