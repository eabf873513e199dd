"""numpy's bundled OpenBLAS: one thread per report, and zgesdd.

The per-lambda work is dense N x N linear algebra. Every report runs on one
OpenBLAS thread (`one_blas_thread`), and `beside` runs a values-only SVD on a
second Python thread, the lane, while this one prepares and bidiagonalizes
the matrix of a full SVD; the lane's thread then makes that SVD's
back-transform vh = rvt P^H while this one makes u = Q ru. So two cores stay
busy for about the CPU time of one thread. One thread also makes the
reports independent of the thread count the process started with, at every
size.

Every SVD of the package goes through `gesdd`. For a square matrix it makes
the steps of the LAPACK routine that numpy.linalg.svd calls, zgesdd, one
call each with that routine's arguments, on a Fortran-order array the
caller gives up and into the arrays it returns, so that each workspace is
freed when its step ends; numpy.linalg.svd also keeps a Fortran copy of its
input and copies both singular-vector sets into new arrays. Every other
shape goes to numpy.linalg.svd.

Memory, in N^2 B for an N x N complex matrix: a full SVD peaks at 56 (its
input, the real singular-vector blocks and dbdsdc's workspace), a
values-only one at its input, 16. A full SVD beside a lane waits for the
lane's value before its first large allocation, so a report's pair of SVDs
peaks at the full one's 56, never at 56 + 16.
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
# median wall / CPU time in ms; "pair" is a report's two SVDs, the values of
# one n x n matrix and the full SVD of another, serial or `beside` (in
# brackets: beside, with zunmbr('P') on the calling thread after the lane):
#   n     1 thread     2 threads     pair, 2 threads   pair beside, 1 each
#   128   4.7 / 5.4    6.5 / 14      9.6 / 18          7.1 / 15     (9.0 / 15)
#   256   23 / 23      26 / 50       37 / 73           29 / 51      (32 / 44)
#   512   166 / 166    113 / 223     199 / 398         175 / 289    (234 / 329)
#   1024  1305 / 1305  873 / 1669    1319 / 2577       1113 / 1962  (1450 / 2162)
#   2048  8085 / 8082  4970 / 9619   8220 / 16030      8061 / 14500 (9247 / 14450)
# A second OpenBLAS thread saves at most a third of the wall time of one SVD
# for 1.2-2 times its CPU time. The pair beside is now faster than serial on
# two threads at every n, for 10-27 % less CPU time at n >= 512. Without a
# lane (alpha = 0, where a report has one N x N SVD) both back-transforms
# stay on the calling thread: a thread started for zunmbr('P') in each SVD
# took 9 % more CPU time and no less wall time on 64 SVDs at n = 128
# (`verify` at depth 7, alpha = 0).

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


class _Lane:
    """The thread `beside` starts: it runs lane(), then at most one task
    that the first SVD of main() hands it (`_square_svd`), then ends."""

    def __init__(self, lane: Callable):
        self._value = {}
        self._ready = threading.Event()  # lane() has returned or raised
        self._handed = threading.Event()  # the task, or None, is set
        self._task = None
        self.join = started("thirdkind-lane", lambda: self._run(lane))

    def _run(self, lane: Callable) -> None:
        try:
            self._value["lane"] = lane()
        finally:
            self._ready.set()
        self._handed.wait()
        if self._task is not None:
            self._task()
            self._task = None  # nor does its workspace outlive the SVD

    def value(self):
        """Wait for lane()'s value; when lane() raised, wait for the thread
        to end and raise that exception."""
        self._ready.wait()
        if "lane" not in self._value:
            self.join()
        return self._value["lane"]

    def hand(self, task: Callable | None) -> None:
        """Run task() on the lane's thread after lane(); None lets the
        thread end. Only the first call counts, and only `beside`'s thread
        makes one."""
        if not self._handed.is_set():
            self._task = task
            self._handed.set()


def beside(lane: Callable, main: Callable) -> tuple:
    """(lane(), main()). lane() runs on a second thread while this one runs
    main(). The first SVD main() makes (`_square_svd`) waits for lane()'s
    value at the end of its bidiagonalization: under `one_blas_thread` two
    SVDs keep both cores busy, and whatever lane() held is freed before that
    SVD allocates its singular vectors. A full SVD then hands its
    back-transform vh = rvt P^H to the lane's thread and makes u = Q ru on
    this one. The lane's exception, when it raises, is the one that
    propagates, and its thread has ended when this returns or raises."""
    worker = _Lane(lane)
    _lane.current = worker
    try:
        second = main()
    finally:
        vars(_lane).pop("current", None)  # when main() made no SVD
        worker.hand(None)
        worker.join()
    return worker.value(), second


# the lane `beside` started from a thread, until an SVD of that thread takes it
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
    if (
        a.dtype != np.complex128
        or a.ndim != 2
        or not (a.flags.f_contiguous and a.flags.writeable)
    ):
        raise ValueError("gesdd needs a writeable 2-d complex128 Fortran-order array")
    lib = _openblas()
    m, n = a.shape
    if lib is None or m != n or n < 2:
        return np.linalg.svd(a, compute_uv=vectors)
    return _square_svd(lib, a, vectors)


def _square_svd(lib: types.SimpleNamespace, a: np.ndarray, vectors: bool):
    """gesdd(a, vectors=vectors) for a square `a` with n >= 2, as zgesdd
    takes it (M >= N, M < 5N/3: its path 6a for jobz 'A', 6n for jobz 'N'),
    one step per call:

      query zgesdd's optimal complex workspace for that jobz;
      scale a when its largest |entry| lies outside [smlnum, bignum];
      zgebrd:            a = Q B P^H, B real upper bidiagonal (s, e);
      wait for the value of the lane `beside` started from this thread, if any;
      without vectors,
        dbdsdc('U', 'N'):  the singular values s of B;
      with vectors,
        dbdsdc('U', 'I'):  B = ru diag(s) rvt;
        zunmbr('P'):       vh = rvt P^H, on the lane's thread when there is one;
        zunmbr('Q'):       u = Q ru;
      undo the scaling of s.

    Every call gets the arguments zgesdd passes it, workspace sizes
    included, so the bits are zgesdd's; a zunmbr('P') beside zunmbr('Q')
    gets its own workspace of the same length. The two read disjoint parts
    of a, P's reflectors above its diagonal and Q's on and below it. With
    vectors, the 3 N^2 + 4 N real workspace of dbdsdc is freed before vh is
    allocated, and ru and rvt each once copied into u and vh; the peak is a,
    ru, rvt and that workspace, 56 N^2 B, where zgesdd holds a, u, vh and its
    whole real workspace, 88 N^2 B. Up to the wait for the lane only a
    (16 N^2 B) and the complex workspace (lwork entries, about 2 nb N for
    zgebrd's block size nb) are alive, so a lane's own matrix and workspaces
    never add to that peak.
    """
    lane = vars(_lane).pop("current", None)
    n = a.shape[0]
    ptr = a.ctypes.data
    info = _Info()
    query = np.zeros(1, dtype=complex)
    lib.zgesdd(b"A" if vectors else b"N", _i(n), _i(n), ptr, _i(n), None, None, _i(n),
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
        lane.value()  # the rest of a full SVD runs after the lane's own work

    iwork = np.empty(8 * n, dtype=np.int64)
    if not vectors:
        bd_work = np.empty(4 * n)
        lib.dbdsdc(b"U", b"N", _i(n), s.ctypes.data, e.ctypes.data, None, _i(1), None,
                   _i(1), None, None, bd_work.ctypes.data, iwork.ctypes.data, info.ref,
                   1, 1)
        info.check()
    else:
        ru = np.empty((n, n), order="F")
        rvt = np.empty((n, n), order="F")
        bd_work = np.empty(3 * n * n + 4 * n)
        lib.dbdsdc(b"U", b"I", _i(n), s.ctypes.data, e.ctypes.data, ru.ctypes.data, _i(n),
                   rvt.ctypes.data, _i(n), None, None, bd_work.ctypes.data,
                   iwork.ctypes.data, info.ref, 1, 1)
        del bd_work, iwork
        info.check()

        # vh and u before P's own workspace, so that the peak stays dbdsdc's
        vh = np.empty((n, n), dtype=complex, order="F")
        vh[...] = rvt
        del rvt
        u = np.empty((n, n), dtype=complex, order="F")
        u[...] = ru
        del ru
        if lane is None:
            _zunmbr(lib, b"P", b"R", b"C", a, taup, vh, rest)
        else:  # beside Q, P gets a workspace of its own
            lane.hand(lambda: _zunmbr(lib, b"P", b"R", b"C", a, taup, vh, np.empty_like(rest)))
        _zunmbr(lib, b"Q", b"L", b"N", a, tauq, u, rest)
        if lane is not None:
            lane.join()

    if scaled_to is not None:
        lib.dlascl(b"G", _i(0), _i(0), _f(scaled_to), _f(anrm), _i(n), _i(1), s.ctypes.data,
                   _i(n), info.ref, 1)
    if not vectors:
        return s
    return _c_order(u), s, _c_order(vh)


def _zunmbr(lib: types.SimpleNamespace, vect: bytes, side: bytes, trans: bytes,
            a: np.ndarray, tau: np.ndarray, c: np.ndarray, work: np.ndarray) -> None:
    """zunmbr(vect, side, trans) of the square c with zgebrd's reflectors in
    a and tau, as zgesdd calls it; raises LinAlgError on a nonzero info."""
    n = a.shape[0]
    info = _Info()
    lib.zunmbr(vect, side, trans, _i(n), _i(n), _i(n), a.ctypes.data, _i(n), tau.ctypes.data,
               c.ctypes.data, _i(n), work.ctypes.data, _i(work.size), info.ref, 1, 1, 1)
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
