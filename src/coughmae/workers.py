"""Ordered worker threads for independent jobs, with OpenBLAS at one thread.

Segmentation scores chunks of windows and cross-validation trains folds
this way; each pretraining epoch and the final fine-tuning retrain run on
one such thread. The jobs are numpy ufuncs and small GEMMs that release
the GIL, so W = min(usable CPUs, MAX_WORKERS) threads keep W cores busy.
OpenBLAS is held to one thread while they run: between small GEMMs a
second OpenBLAS thread only busy-waits on a core a worker needs. Results
are bit-identical to running the jobs one after another, because each job
computes the same expressions with the same single-threaded kernels.
"""
from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
from typing import Callable, Iterable, Iterator

import numpy as np

# Jobs running at once. On a 2-core box two workers segment the 60 s bench
# recording in 4.8-5.4 s instead of 7.8-8.7 s with one, and raise the bench's
# 5-fold fine-tuning from 122 to 175 samples/s.
MAX_WORKERS = 2

# (get, set) thread-count entry points: scipy-openblas as numpy wheels ship
# it, then a plain OpenBLAS build.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                 # no affinity call on this platform
        return os.cpu_count() or 1


def worker_count() -> int:
    """Threads in_order callers start: min(usable CPUs, MAX_WORKERS)."""
    return min(_usable_cpus(), MAX_WORKERS)


@functools.cache
def openblas_threads():
    """(get, set) for the OpenBLAS thread count, or None without OpenBLAS.

    The symbols are looked up through numpy's core extension module, which
    also searches the libraries it links: the wheels' bundled
    numpy.libs/libscipy_openblas64_-*.so or a system libopenblas.
    """
    core = getattr(np, "_core", None) or np.core         # numpy 2 / numpy 1
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for get_name, set_name in _OPENBLAS_THREADS:
        get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return get, set_
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread inside the block, then restore its count.

    Without OpenBLAS this is a no-op.
    """
    threads = openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@contextlib.contextmanager
def in_order(fn: Callable, items: Iterable, workers: int) -> Iterator[Iterator]:
    """Yield an iterator of (item, fn(item)) in the order of `items`.

    Up to `workers` calls run at once in a thread pool, never in the
    caller's thread, with OpenBLAS held to one thread. At most `workers`
    items are taken ahead of the one being consumed, so memory does not
    grow with the number of items. An error raised by fn surfaces at its
    own item. Leaving the block, also by an error or an interrupt, cancels
    the calls not yet started, waits for the running ones and restores the
    OpenBLAS thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    def results(pool):
        pending = collections.deque()
        for item in items:
            pending.append((item, pool.submit(fn, item)))
            if len(pending) > workers:
                head, future = pending.popleft()
                yield head, future.result()
        for head, future in pending:
            yield head, future.result()

    with _one_blas_thread():
        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            yield results(pool)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def on_worker(fn: Callable[[], object]):
    """fn() on one pool thread with OpenBLAS at one thread: its result or its error.

    Training runs here rather than in the caller's thread for its memory
    (measured on glibc 2.36). A pool thread started after others have
    exited mostly reuses the heap they freed, as glibc hands it one of
    their malloc arenas. And a tape freed after each step stays in a pool
    thread's heap for the next step, where on the main thread glibc trims
    the heap after every step and the next step faults it back in.
    """
    with in_order(lambda _: fn(), [None], 1) as results:
        return next(results)[1]
