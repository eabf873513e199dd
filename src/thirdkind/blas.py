"""numpy's bundled OpenBLAS: the thread count for small problems, and zgesdd.

The per-lambda work is dense N x N linear algebra. Below a size, a second
OpenBLAS thread only spins, so the runs there use one thread. That also
makes their outputs independent of the thread count the process started with.

Every SVD of the package goes through `gesdd`. It calls the LAPACK routine
that numpy.linalg.svd calls, with the same arguments, but on a Fortran-order
array the caller gives up, and into the arrays it returns. numpy.linalg.svd
also keeps a Fortran copy of its input and copies both singular-vector sets
into new arrays; here the n x n transient is the input, u, vh and the real
workspace.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import os
import types

import numpy as np

# Complex SVD, scipy-openblas 0.3.31 on 2 vCPUs, wall / CPU time:
#   n = 128: 1 thread 6.9 ms / 9 ms, 2 threads 8.2 / 16 ms
#   n = 256: 1 thread 30 / 37 ms,    2 threads 32 / 63 ms
#   n = 512: 1 thread 226 / 226 ms,  2 threads 175 / 341 ms
# Up to n = 256 the second thread saves no wall time and doubles the CPU time.
SINGLE_THREAD_MAX_SIZE = 256

# rows per block of the in-place transposition of u and vh
_BLOCK = 64


@functools.cache
def _openblas() -> types.SimpleNamespace | None:
    """The thread-count functions and zgesdd of numpy's bundled OpenBLAS
    (ILP64), or None when the library or one of its symbols is not there.
    Loaded on the first call, so importing the package does not load it."""
    import ctypes

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            set_threads = lib.scipy_openblas_set_num_threads64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            zgesdd = lib.scipy_zgesdd_64_
        except (OSError, AttributeError):
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        int_p, ptr = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
        # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, rwork, iwork,
        # info, and the hidden length of jobz
        zgesdd.argtypes = [ctypes.c_char_p, int_p, int_p, ptr, int_p, ptr, ptr,
                           int_p, ptr, int_p, ptr, int_p, ptr, ptr, int_p,
                           ctypes.c_size_t]
        zgesdd.restype = None
        return types.SimpleNamespace(
            set_threads=set_threads, get_threads=get_threads, zgesdd=zgesdd
        )
    return None


@contextlib.contextmanager
def blas_threads_for(size: int):
    """Run the body on one BLAS thread when `size` <= SINGLE_THREAD_MAX_SIZE,
    restoring the previous count on exit; otherwise leave BLAS as it is."""
    lib = _openblas() if size <= SINGLE_THREAD_MAX_SIZE else None
    if lib is None:
        yield
        return
    previous = lib.get_threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(previous)


def _c_order(f: np.ndarray) -> np.ndarray:
    """The square Fortran-order `f` as a C-order array over the same buffer,
    transposed block by block so that no second n x n array is made."""
    c = f.T
    n = c.shape[0]
    for i in range(0, n, _BLOCK):
        for j in range(i, n, _BLOCK):
            upper = c[i : i + _BLOCK, j : j + _BLOCK]
            lower = c[j : j + _BLOCK, i : i + _BLOCK]
            upper[...], lower[...] = lower.T.copy(), upper.T.copy()
    return c


def gesdd(a: np.ndarray, *, vectors: bool):
    """numpy.linalg.svd(a, compute_uv=vectors), computed in place by zgesdd.

    `a` is a writeable complex128 Fortran-order matrix; zgesdd overwrites it.
    With `vectors` returns (u, s, vh), u and vh square and in C order as numpy
    returns them, since a matrix-vector product rounds differently on another
    layout; otherwise s alone. Bit for bit numpy's result: the same
    routine, workspace query and workspace sizes, on the same thread count.
    Raises LinAlgError("SVD did not converge") on any nonzero info (-4 for a
    NaN entry). Without the OpenBLAS symbol it calls numpy.linalg.svd, which
    gives the same values with a larger transient.
    """
    if (
        a.dtype != np.complex128
        or a.ndim != 2
        or not (a.flags.f_contiguous and a.flags.writeable)
    ):
        raise ValueError("gesdd needs a writeable 2-d complex128 Fortran-order array")
    lib = _openblas()
    if lib is None:
        return np.linalg.svd(a, compute_uv=vectors)
    import ctypes

    m, n = a.shape
    mn, mx = min(m, n), max(m, n)
    s = np.empty(mn)
    if vectors:
        jobz = b"A"
        u = np.empty((m, m), dtype=complex, order="F")
        vh = np.empty((n, n), dtype=complex, order="F")
        lrwork = max(5 * mn * mn + 5 * mn, 2 * mx * mn + 2 * mn * mn + mn)
    else:
        jobz = b"N"
        u = vh = np.empty((1, 1), dtype=complex)
        lrwork = 7 * mn
    iwork = np.empty(8 * mn, dtype=np.int64)
    rwork = np.empty(max(lrwork, 1))
    info = ctypes.c_int64(0)

    def i64(v: int):
        return ctypes.byref(ctypes.c_int64(v))

    def call(work: np.ndarray, lwork: int) -> None:
        lib.zgesdd(
            jobz, i64(m), i64(n), a.ctypes.data, i64(max(m, 1)), s.ctypes.data,
            u.ctypes.data, i64(u.shape[0]), vh.ctypes.data, i64(vh.shape[0]),
            work.ctypes.data, i64(lwork), rwork.ctypes.data, iwork.ctypes.data,
            ctypes.byref(info), 1,
        )
        if info.value:
            raise np.linalg.LinAlgError("SVD did not converge")

    query = np.zeros(1, dtype=complex)
    call(query, -1)
    lwork = max(1, int(query[0].real))
    call(np.empty(lwork, dtype=complex), lwork)
    if not vectors:
        return s
    return _c_order(u), s, _c_order(vh)
