"""numpy's bundled OpenBLAS: one thread per report, and zgesdd.

The per-lambda work is dense N x N linear algebra. Every report runs on one
OpenBLAS thread (`one_blas_thread`), and `beside` runs a values-only SVD on a
second Python thread, the lane, while this one prepares and bidiagonalizes
the matrix of another SVD, which then waits for the lane. So two cores stay
busy for about the CPU time of one thread. One thread also makes the
reports independent of the thread count the process started with, at every
size.

Every SVD of the package goes through `gesdd` or `gesdd_probes`. For a
square matrix both make the steps of the LAPACK routine that
numpy.linalg.svd calls, zgesdd, one call each with that routine's
arguments, on a Fortran-order array the caller gives up and into the arrays
they return, so that each workspace is freed when its step ends;
numpy.linalg.svd also keeps a Fortran copy of its input and copies both
singular-vector sets into new arrays. Every other shape goes to
numpy.linalg.svd. `gesdd_probes` is a report's SVD: it stops zgesdd at
dbdsdc, so its singular values are those of the full SVD, and applies the
matrix's polar factors to the n x S basis values at the probe points
through the bidiagonal factors, where zgesdd's two n x n back-transforms
would form u and vh.

Memory, in N^2 B for an N x N complex matrix: a full SVD or `gesdd_probes`
peaks at 56 (its input, the real singular-vector blocks and dbdsdc's
workspace), a values-only SVD at its input, 16. An SVD beside a lane waits
for the lane's thread to end before its first large allocation, so a
report's pair of SVDs peaks at 56, never at 56 + 16.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
import types
from collections.abc import Callable

import numpy as np

# Complex SVD with vectors (`gesdd`), scipy-openblas 0.3.31 on 2 vCPUs,
# median wall / CPU time in ms; "pair" is the values of one n x n matrix and
# the full SVD of another, serial on two OpenBLAS threads:
#   n     1 thread     2 threads     pair, 2 threads
#   128   4.7 / 5.4    6.5 / 14      9.6 / 18
#   256   23 / 23      26 / 50       37 / 73
#   512   166 / 166    113 / 223     199 / 398
#   1024  1305 / 1305  873 / 1669    1319 / 2577
#   2048  8085 / 8082  4970 / 9619   8220 / 16030
# A second OpenBLAS thread saves at most a third of the wall time of one SVD
# for 1.2-2 times its CPU time, so every report runs on one.
#
# A report's SVD of D = A0 - lambda A with its tail_sup, on one thread
# (`reduce`'s pencil: linear H, exp(x y), 3 bands, seed 23, lambda =
# 0.39 - 0.26i), median wall / CPU time in ms: from u and vh (`gesdd` with
# vectors, then `MFactorization`'s probe values) against the probe route
# (`gesdd_probes`, no u or vh); and a report's pair, alpha I + D's values
# `beside` the probe route, on one thread each:
#   n     from u and vh   probe route   pair beside
#   128   4.4 / 4.3       4.1 / 4.1     9 / 13
#   256   24 / 24         18 / 18       26 / 36
#   512   162 / 154       118 / 118     164 / 262
#   1024  1109 / 1102     926 / 837     1003 / 1719
#   2048  8719 / 8317     5842 / 5809   7068 / 12807
# The route applies zgebrd's reflectors to 4 S columns where the two
# back-transforms apply them to 2 n, so from n = 256 on it saves a quarter of
# a report's CPU time; at n = 128 (S = 41) it ties. Without a lane
# (alpha = 0) a report's one SVD runs on the calling thread.

# rows per block of the in-place transposition of u and vh
_BLOCK = 64


@functools.cache
def _openblas() -> types.SimpleNamespace | None:
    """The thread-count functions, zgesdd (for its workspace query) and the
    LAPACK routines of its square path in numpy's bundled OpenBLAS (ILP64),
    or None when the library or one of its symbols is not there. Loaded on
    the first call, so importing the package does not load it."""
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    char, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
    # argument types, in order, with Fortran's hidden string lengths last
    signatures = {
        "set_threads": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
        "get_threads": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
        # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, rwork, iwork, info
        "zgesdd": ("scipy_zgesdd_64_", [char, i64, i64, ptr, i64, ptr, ptr, i64, ptr,
                                        i64, ptr, i64, ptr, ptr, i64, length], None),
        # norm, m, n, a, lda, work
        "zlange": ("scipy_zlange_64_", [char, i64, i64, ptr, i64, ptr, length],
                   ctypes.c_double),
        # type, kl, ku, cfrom, cto, m, n, a, lda, info
        "zlascl": ("scipy_zlascl_64_", [char, i64, i64, f64, f64, i64, i64, ptr, i64,
                                        i64, length], None),
        "dlascl": ("scipy_dlascl_64_", [char, i64, i64, f64, f64, i64, i64, ptr, i64,
                                        i64, length], None),
        # m, n, a, lda, d, e, tauq, taup, work, lwork, info
        "zgebrd": ("scipy_zgebrd_64_", [i64, i64, ptr, i64, ptr, ptr, ptr, ptr, ptr,
                                        i64, i64], None),
        # uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info
        "dbdsdc": ("scipy_dbdsdc_64_", [char, char, i64, ptr, ptr, ptr, i64, ptr, i64,
                                        ptr, ptr, ptr, ptr, i64, length, length], None),
        # vect, side, trans, m, n, k, a, lda, tau, c, ldc, work, lwork, info
        "zunmbr": ("scipy_zunmbr_64_", [char, char, char, i64, i64, i64, ptr, i64, ptr,
                                        ptr, i64, ptr, i64, i64, length, length,
                                        length], None),
    }
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            functions = {name: getattr(lib, symbol) for name, (symbol, _, _) in signatures.items()}
        except (OSError, AttributeError):
            continue
        for name, (_, argtypes, restype) in signatures.items():
            functions[name].argtypes, functions[name].restype = argtypes, restype
        return types.SimpleNamespace(**functions)
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body on one BLAS thread, restoring the previous count on
    exit; without numpy's OpenBLAS symbols, leave BLAS as it is."""
    lib = _openblas()
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


def started(name: str, work: Callable) -> Callable:
    """Start work() on a new thread named `name` and return its join: a
    call that waits for the thread to end, then returns work()'s value or
    raises its exception (`raising=False` returns None in its place)."""
    # a plain thread: concurrent.futures imports logging, which costs about
    # 20 ms at startup, or 4 MiB of verify's d9 peak when imported mid-run
    done = {}

    def run():
        try:
            done["value"] = work()
        except BaseException as exc:  # raised on the joining thread
            done["error"] = exc

    thread = threading.Thread(target=run, name=name)
    thread.start()

    def join(raising: bool = True):
        thread.join()
        if raising and "error" in done:
            raise done["error"]
        return done.get("value")

    return join


def beside(lane: Callable, main: Callable) -> tuple:
    """(lane(), main()). lane() runs on a second thread while this one runs
    main(). The first SVD main() makes (`_square_svd`) waits for the lane's
    thread to end after its bidiagonalization: under `one_blas_thread` two
    SVDs keep both cores busy, and whatever lane() held is freed before that
    SVD allocates its singular vectors. The lane's exception, when it
    raises, is the one that propagates, and its thread has ended when this
    returns or raises."""
    join = started("thirdkind-lane", lane)
    _lane.current = join
    try:
        second = main()
    finally:
        vars(_lane).pop("current", None)  # when main() made no SVD
        first = join()
    return first, second


# the join of the lane `beside` started from a thread, until an SVD of that
# thread takes it
_lane = threading.local()


def gesdd(a: np.ndarray, *, vectors: bool):
    """numpy.linalg.svd(a, compute_uv=vectors), computed in place by zgesdd's
    own steps.

    `a` is a writeable complex128 Fortran-order matrix, which may be
    overwritten. With `vectors` returns (u, s, vh), u and vh square and in C
    order as numpy returns them, since a matrix-vector product rounds
    differently on another layout; otherwise s alone. A square `a` with
    n >= 2 goes through the steps zgesdd takes for M = N (`_square_svd`), so
    that each workspace lives only for its step; every other shape, and
    every matrix when the OpenBLAS symbols are missing, goes to
    numpy.linalg.svd itself. Bit for bit numpy's result either way: the same
    routines, workspace query and workspace sizes, on the same thread count.
    Raises LinAlgError("SVD did not converge") on any nonzero info or a NaN
    entry.
    """
    lib = _square_route(a)
    if lib is None:
        return np.linalg.svd(a, compute_uv=vectors)
    return _square_svd(lib, a, vectors)


def gesdd_probes(a: np.ndarray, values: np.ndarray):
    """(s, W^T values, V^T values): the singular values s of `a` and the
    real n x S `values` under its polar factors W = U_pol |a|^(1/2) and
    V = |a|^(1/2) (see `kernels.MFactorization`), or None where gesdd hands
    `a` to numpy.linalg.svd.

    s is gesdd(a, vectors=True)'s, bit for bit: the same steps up to
    dbdsdc('U', 'I'). W and V are then applied to `values` through zgebrd's
    reflectors and dbdsdc's real ru and rvt (`_probe_blocks`), and the
    n x n singular vectors are never formed. `a` is as for gesdd and is
    overwritten; the same errors.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[0] != a.shape[0]:
        raise ValueError(f"values must have {a.shape[0]} rows, got shape {values.shape}")
    lib = _square_route(a)
    if lib is None:
        return None
    return _square_svd(lib, a, False, values)


def _square_route(a: np.ndarray) -> types.SimpleNamespace | None:
    """The OpenBLAS binding when `a` takes zgesdd's steps (`_square_svd`),
    else None; ValueError when `a` is no writeable complex128 Fortran-order
    matrix."""
    if (
        a.dtype != np.complex128
        or a.ndim != 2
        or not (a.flags.f_contiguous and a.flags.writeable)
    ):
        raise ValueError("gesdd needs a writeable 2-d complex128 Fortran-order array")
    lib = _openblas()
    m, n = a.shape
    return None if lib is None or m != n or n < 2 else lib


def numerical_rank(sigma: np.ndarray, size: int) -> int:
    """How many of the descending singular values `sigma` of a matrix whose
    larger side is `size` exceed size * eps * sigma[0] (numpy's
    matrix_rank threshold); 0 when sigma[0] is not positive."""
    if not (sigma.size and sigma[0] > 0):
        return 0
    return int(np.sum(sigma > size * np.finfo(float).eps * sigma[0]))


def _square_svd(lib: types.SimpleNamespace, a: np.ndarray, vectors: bool,
                values: np.ndarray | None = None):
    """gesdd(a, vectors=vectors) for a square `a` with n >= 2, as zgesdd
    takes it (M >= N, M < 5N/3: its path 6a for jobz 'A', 6n for jobz 'N'),
    one step per call; with `values`, gesdd_probes(a, values) instead:

      query zgesdd's optimal complex workspace, for jobz 'A' with vectors
        or values, else 'N';
      scale a when its largest |entry| lies outside [smlnum, bignum];
      zgebrd:            a = Q B P^H, B real upper bidiagonal (s, e);
      wait for the lane `beside` started from this thread, if any;
      s alone,
        dbdsdc('U', 'N'):  the singular values s of B;
      else
        dbdsdc('U', 'I'):  B = ru diag(s) rvt;
      undo the scaling of s;
      with values, the probe blocks (`_probe_blocks`);
      with vectors,
        zunmbr('P'):       vh = rvt P^H;
        zunmbr('Q'):       u = Q ru.

    Every call gets the arguments zgesdd passes it, workspace sizes
    included, so the bits are zgesdd's. After dbdsdc, its 3 N^2 + 4 N real
    workspace is freed before anything else is allocated, and ru and rvt
    are each once copied into u and vh; the peak is a, ru, rvt and that
    workspace, 56 N^2 B, where zgesdd holds a, u, vh and its whole real
    workspace, 88 N^2 B. The probe blocks take a, ru, rvt and a few n x S
    blocks. Up to the wait for the lane only a (16 N^2 B) and the complex
    workspace (lwork entries, about 2 nb N for zgebrd's block size nb) are
    alive, so a lane's own matrix and workspaces never add to that peak.
    """
    lane = vars(_lane).pop("current", None)
    full = vectors or values is not None
    n = a.shape[0]
    ptr = a.ctypes.data
    info = _Info()
    query = np.zeros(1, dtype=complex)
    lib.zgesdd(b"A" if full else b"N", _i(n), _i(n), ptr, _i(n), None, None, _i(n),
               None, _i(n), query.ctypes.data, _i(-1), None, None, info.ref, 1)
    info.check()
    lwork = max(1, int(query[0].real))

    anrm = lib.zlange(b"M", _i(n), _i(n), ptr, _i(n), None, 1)
    if np.isnan(anrm):
        raise np.linalg.LinAlgError("SVD did not converge")
    # zgesdd's bounds: sqrt(dlamch('S')) / dlamch('P') and its reciprocal
    smlnum = np.sqrt(np.finfo(float).tiny) / np.finfo(float).eps
    bignum = 1.0 / smlnum
    scaled_to = smlnum if 0.0 < anrm < smlnum else bignum if anrm > bignum else None
    if scaled_to is not None:
        lib.zlascl(b"G", _i(0), _i(0), _f(anrm), _f(scaled_to), _i(n), _i(n), ptr, _i(n),
                   info.ref, 1)

    s, e = np.empty(n), np.empty(n)
    # tauq, taup, then the work every step gets, lwork - 2n long
    work = np.empty(lwork, dtype=complex)
    tauq, taup, rest = work[:n], work[n : 2 * n], work[2 * n :]
    lib.zgebrd(_i(n), _i(n), ptr, _i(n), s.ctypes.data, e.ctypes.data, tauq.ctypes.data,
               taup.ctypes.data, rest.ctypes.data, _i(lwork - 2 * n), info.ref)
    if lane is not None:
        lane()  # the rest of the SVD runs after the lane's own work

    iwork = np.empty(8 * n, dtype=np.int64)
    if not full:
        bd_work = np.empty(4 * n)
        lib.dbdsdc(b"U", b"N", _i(n), s.ctypes.data, e.ctypes.data, None, _i(1), None,
                   _i(1), None, None, bd_work.ctypes.data, iwork.ctypes.data, info.ref,
                   1, 1)
    else:
        ru = np.empty((n, n), order="F")
        rvt = np.empty((n, n), order="F")
        bd_work = np.empty(3 * n * n + 4 * n)
        lib.dbdsdc(b"U", b"I", _i(n), s.ctypes.data, e.ctypes.data, ru.ctypes.data, _i(n),
                   rvt.ctypes.data, _i(n), None, None, bd_work.ctypes.data,
                   iwork.ctypes.data, info.ref, 1, 1)
    del bd_work, iwork
    info.check()
    if scaled_to is not None:
        lib.dlascl(b"G", _i(0), _i(0), _f(scaled_to), _f(anrm), _i(n), _i(1), s.ctypes.data,
                   _i(n), info.ref, 1)
    if not full:
        return s
    if values is not None:
        return (s, *_probe_blocks(lib, a, work, s, ru, rvt, values))

    vh = np.empty((n, n), dtype=complex, order="F")
    vh[...] = rvt
    del rvt
    u = np.empty((n, n), dtype=complex, order="F")
    u[...] = ru
    del ru
    _zunmbr(lib, b"P", b"R", b"C", a, taup, vh, rest)
    _zunmbr(lib, b"Q", b"L", b"N", a, tauq, u, rest)
    return _c_order(u), s, _c_order(vh)


def _probe_blocks(lib: types.SimpleNamespace, a: np.ndarray, work: np.ndarray,
                  s: np.ndarray, ru: np.ndarray, rvt: np.ndarray, values: np.ndarray):
    """(W^T values, V^T values) from a = Q B P^H (zgebrd's a and work),
    B = ru diag(s) rvt and the real n x S `values` U_p, with u = Q ru,
    vh = rvt P^H and r = numerical_rank(s, n), as `MFactorization`'s
    w_values and v_values:

      W^T U_p = vh_r^T (sqrt(s_r) u_r^T U_p)
              = conj(P rvt_r^T conj(sqrt(s_r) ru_r^T conj(Q^H U_p))),
      V^T U_p = vh^T (sqrt(s) conj(vh) U_p)
              = conj(P rvt^T (sqrt(s) rvt (P^H U_p))).

    Q^H U_p and P^H U_p are one zunmbr each on an n x S block, and both
    products with P one zunmbr on the n x 2S block; each product with the
    real ru or rvt is one real GEMM on the float64 view of a C-order complex
    block, so no complex copy of ru or rvt is made.
    """
    n, width = values.shape
    tauq, taup, rest = work[:n], work[n : 2 * n], work[2 * n :]
    r = numerical_rank(s, n)
    root = np.sqrt(s)

    def real_product(m: np.ndarray, z: np.ndarray) -> np.ndarray:
        """m @ z for the real m and the complex C-order z, as one real GEMM."""
        return (m @ z.view(np.float64)).view(complex)

    x = np.array(values, dtype=complex, order="F")
    y = np.array(values, dtype=complex, order="F")
    _zunmbr(lib, b"Q", b"L", b"C", a, tauq, x, rest)
    _zunmbr(lib, b"P", b"L", b"C", a, taup, y, rest)
    inner = real_product(ru[:, :r].T, np.conj(x, order="C"))
    inner *= root[:r, None]
    stacked = np.empty((n, 2 * width), dtype=complex, order="F")
    stacked[:, :width] = real_product(rvt[:r].T, np.conj(inner))
    inner = real_product(rvt, np.ascontiguousarray(y))
    inner *= root[:, None]
    stacked[:, width:] = real_product(rvt.T, inner)
    _zunmbr(lib, b"P", b"L", b"N", a, taup, stacked, rest)
    np.conjugate(stacked, out=stacked)
    return stacked[:, :width], stacked[:, width:]


def _zunmbr(lib: types.SimpleNamespace, vect: bytes, side: bytes, trans: bytes,
            a: np.ndarray, tau: np.ndarray, c: np.ndarray, work: np.ndarray) -> None:
    """zunmbr(vect, side, trans) of the Fortran-order c with zgebrd's
    reflectors in the square a and tau, as zgesdd calls it; raises
    LinAlgError on a nonzero info."""
    n = a.shape[0]
    m, cols = c.shape
    info = _Info()
    lib.zunmbr(vect, side, trans, _i(m), _i(cols), _i(n), a.ctypes.data, _i(n),
               tau.ctypes.data, c.ctypes.data, _i(m), work.ctypes.data, _i(work.size),
               info.ref, 1, 1, 1)
    info.check()


class _Info:
    """LAPACK's info argument; `check` raises on a nonzero value."""

    def __init__(self):
        self.value = ctypes.c_int64(0)
        self.ref = ctypes.byref(self.value)

    def check(self) -> None:
        if self.value.value:
            raise np.linalg.LinAlgError("SVD did not converge")


def _i(v: int):
    return ctypes.byref(ctypes.c_int64(v))


def _f(v: float):
    return ctypes.byref(ctypes.c_double(v))
