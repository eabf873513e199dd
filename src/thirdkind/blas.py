"""BLAS thread count for small dense problems.

The per-lambda work is dense N x N linear algebra. Below a size, a second
OpenBLAS thread only spins, so the runs there use one thread. That also
makes their outputs independent of the thread count the process started with.
"""

from __future__ import annotations

import contextlib
import glob
import os

# Complex SVD, scipy-openblas 0.3.31 on 2 vCPUs, wall / CPU time:
#   n = 128: 1 thread 6.9 ms / 9 ms, 2 threads 8.2 / 16 ms
#   n = 256: 1 thread 30 / 37 ms,    2 threads 32 / 63 ms
#   n = 512: 1 thread 226 / 226 ms,  2 threads 175 / 341 ms
# Up to n = 256 the second thread saves no wall time and doubles the CPU time.
SINGLE_THREAD_MAX_SIZE = 256


def _openblas():
    """The (set, get) thread-count functions of numpy's bundled OpenBLAS,
    or None when the library or its symbols are not there."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        return set_threads, get_threads
    return None


@contextlib.contextmanager
def blas_threads_for(size: int):
    """Run the body on one BLAS thread when `size` <= SINGLE_THREAD_MAX_SIZE,
    restoring the previous count on exit; otherwise leave BLAS as it is."""
    funcs = _openblas() if size <= SINGLE_THREAD_MAX_SIZE else None
    if funcs is None:
        yield
        return
    set_threads, get_threads = funcs
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)
