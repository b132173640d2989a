"""Ordered worker threads for independent jobs, with OpenBLAS at one thread.

Segmentation scores chunks of windows and cross-validation trains folds,
and the final fine-tuning model beside the last fold, this way; pretraining
runs every epoch, in order, on one such thread. The jobs are numpy ufuncs
and small GEMMs that release the GIL, so W = min(usable CPUs, MAX_WORKERS)
threads keep W cores busy. OpenBLAS is held to one thread while they run:
between small GEMMs a second OpenBLAS thread only busy-waits on a core a
worker needs. Results are bit-identical to running the jobs one after
another, because each job computes the same expressions with the same
single-threaded kernels.

`in_order` counts the jobs it is running. While that count leaves a core
free, `split_halves` lends it to elementwise work: the caller computes the
first half of a flattened array and one helper thread the second half.
Pretraining, which runs one epoch at a time, thus puts GELU's forward on
both cores; two fold or chunk workers on a 2-core box leave no core free,
so they do not split. The split also needs an idle helper and an array of
MIN_SPLIT_SIZE elements or more; otherwise the caller computes the whole
array. The halves write disjoint slices with the same ufuncs, so the bits
do not depend on the split. GELU's forward, its one user, calls np.power
only on the few lanes that need it, so the hand-off pays for itself only
on arrays several times MIN_SPLIT_SIZE (see there).
"""
from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import os
import platform
import threading
from typing import Callable, Iterable, Iterator

import numpy as np

# Jobs running at once. On a 2-core box two workers segment the 60 s bench
# recording in 4.8-5.4 s instead of 7.8-8.7 s with one, and raise the bench's
# 5-fold fine-tuning from 122 to 175 samples/s.
MAX_WORKERS = 2

# Smallest array split_halves splits. On a 2-core box (numpy 2.4.6, AVX-512,
# malloc thresholds pinned), GELU's forward on N(0, 0.16) values takes, whole
# / split: 0.07-0.09 / 0.11-0.16 ms at 4,096 values, 0.20 / 0.37 ms at 16,384,
# 0.32 / 0.45-0.49 ms at 26,624 and 1.5 / 1.1-1.2 ms at 100,352. So at this
# size the hand-off costs more than it saves; the split breaks even near
# 65,000 values (ROADMAP item 1, step c).
MIN_SPLIT_SIZE = 16384

# (get, set) thread-count entry points: scipy-openblas as numpy wheels ship
# it, then a plain OpenBLAS build.
_OPENBLAS_THREADS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


# mallopt parameter numbers from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                 # no affinity call on this platform
        return os.cpu_count() or 1


_jobs_lock = threading.Lock()
_jobs_running = 0                  # in_order jobs running now, in all pools
_helper_idle = threading.Lock()    # held while a split's second half is out


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
    return None                    # numpy built on another BLAS (MKL, Accelerate)


@functools.cache
def _mallopt():
    """glibc's mallopt, or None under another C library."""
    if platform.libc_ver()[0] != "glibc":
        return None
    try:
        fn = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    fn.argtypes, fn.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return fn


def pin_malloc_thresholds(mmap_bytes: int, trim_bytes: int) -> None:
    """Fix glibc's mmap and trim thresholds for the rest of the process.

    Left alone, glibc raises its mmap threshold to the size of the largest
    mmapped block freed so far, so whether short-lived arrays below that
    size go through mmap, and fault their pages in anew each time, depends
    on what the process happened to free before. Fixed thresholds end that
    dependence. Under another C library this is a no-op.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, mmap_bytes)
        mallopt(_M_TRIM_THRESHOLD, trim_bytes)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold OpenBLAS, if numpy uses it, to one thread inside the block."""
    get, set_ = openblas_threads() or (lambda: None, lambda threads: None)
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
    own item, and no call starts after it (calls start in item order).
    Leaving the block, also by an error or an interrupt, cancels the calls
    not yet started, waits for the running ones and restores the OpenBLAS
    thread count. The threads live as long as the block, for their heap
    (glibc 2.36): a tape freed after a training step stays in a pool
    thread's heap for the next step, where on the main thread glibc trims
    the heap after every step and the next step faults it back in.
    """
    from concurrent.futures import ThreadPoolExecutor

    stop = threading.Event()               # set by a failed call or by leaving the block

    def job(item):
        global _jobs_running
        if stop.is_set():
            return None                    # never consumed: an earlier item raises
        with _jobs_lock:
            _jobs_running += 1
        try:
            return fn(item)
        except BaseException:
            stop.set()
            raise
        finally:
            with _jobs_lock:
                _jobs_running -= 1

    def results(pool):
        pending = collections.deque()
        for item in items:
            pending.append((item, pool.submit(job, item)))
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
            stop.set()
            pool.shutdown(wait=True, cancel_futures=True)


@functools.cache
def _helper():
    """The one helper thread, started by the first split."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="coughmae-helper")


def _core_free() -> bool:
    """Whether the running jobs leave a usable CPU free. The caller is one of
    them, or the one busy thread when no job runs."""
    return max(_jobs_running, 1) < _usable_cpus()


def split_halves(fn: Callable[[int, int], None], size: int) -> None:
    """Run fn(lo, hi) over [0, size), in two halves when a core is free.

    fn must compute elements lo..hi-1 of its outputs from the same elements
    of its inputs, the same way whatever the bounds. It must record no tape
    node and call no function that perfbench's tracer wraps: the tracer
    keeps one span stack for all threads. With at least MIN_SPLIT_SIZE
    elements, a free core and an idle helper, the caller runs
    fn(0, size // 2) while the helper runs fn(size // 2, size); otherwise
    the caller runs fn(0, size). Either half's error reaches the caller,
    raised once both halves have stopped writing, and the helper is free
    again afterwards.
    """
    if size < MIN_SPLIT_SIZE or not _core_free() or not _helper_idle.acquire(blocking=False):
        fn(0, size)
        return
    try:
        half = size // 2
        future = _helper().submit(fn, half, size)
        try:
            fn(0, half)
        finally:
            future.exception()             # waits for the helper's half
        future.result()
    finally:
        _helper_idle.release()
