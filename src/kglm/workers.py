"""The two fixed workers of training, export and link ranking: one pool
thread plus the calling thread.

The CLI pins BLAS to one thread (:func:`kglm.cli.pin_blas`), so a
product's rounding does not depend on the host's core count, and the
two workers put two cores to use instead. numpy releases the GIL in its
GEMMs and element-wise passes, so the two run at once. Which worker
runs which half is fixed, and each half writes only its own outputs, so
results are bit-identical to running the halves one after the other.

Nothing submits to the pool from inside a worker: with one pool thread
that would wait on itself forever.
"""

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

_PREFIX = "kglm-worker"


def _start_pool():
    global _POOL
    _POOL = ThreadPoolExecutor(1, thread_name_prefix=_PREFIX)


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool but not its thread: it would wait forever
    os.register_at_fork(after_in_child=_start_pool)


def run_pair(first, second):
    """``(first(), second())``, with ``first`` on the pool thread and
    ``second`` on the calling thread at the same time. ``first`` runs in
    a copy of the caller's context, so numpy's error state (``np.errstate``)
    holds in both. Both have finished when it returns or raises."""
    if threading.current_thread().name.startswith(_PREFIX):
        raise RuntimeError("run_pair called from a worker; the pool's one thread would wait on itself")
    future = _POOL.submit(contextvars.copy_context().run, first)
    try:
        second_result = second()
    finally:
        wait([future])
    return future.result(), second_result


def split_rows(fn, start, stop):
    """``fn`` on the two halves of rows [start, stop), as slices, the
    first half on the pool thread: ``(fn(first), fn(second))``. The
    first half takes the odd row."""
    mid = (start + stop + 1) // 2
    return run_pair(lambda: fn(slice(start, mid)), lambda: fn(slice(mid, stop)))
