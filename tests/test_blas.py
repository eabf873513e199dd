"""numpy's bundled OpenBLAS: one BLAS thread for every report, restored
afterwards, and the in-place zgesdd steps every square SVD goes through."""

import ctypes
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import thirdkind.blas as blas
import thirdkind.pipeline as pipeline
from thirdkind import KernelPencil, NearSingularError, Reduction, m_factorize, solve_second_kind
from thirdkind.config import parse_config
from thirdkind.kernels import absolute_tail_sup, polar_probes

LIB = blas._openblas()
needs_openblas = pytest.mark.skipif(LIB is None, reason="numpy's OpenBLAS not found")

CONFIG = {
    "depth": 6,
    "lambda": [[0.3, 0.1], [0.5, -0.2]],
    "eps0": 0.25,
    "ratio": 0.5,
    "bands": 3,
    "coefficient": {"kind": "linear"},
    "kernel": {"kind": "exp_xy", "scale": 1.0},
    "seed": 11,
}


def threads() -> int:
    return LIB.get_threads()


@pytest.fixture
def two_threads():
    """Start each test from two BLAS threads, so a count left at one shows."""
    previous = LIB.get_threads()
    LIB.set_threads(2)
    yield
    LIB.set_threads(previous)


@needs_openblas
def test_loader_loads_once():
    assert blas._openblas() is LIB
    assert set(vars(LIB)) == {
        "set_threads", "get_threads", "zgesdd",
        # zgesdd's steps for a square matrix with vectors
        "zlange", "zlascl", "zgebrd", "dbdsdc", "zunmbr", "dlascl",
    }


@needs_openblas
def test_one_thread_inside_restored_after(two_threads):
    with blas.one_blas_thread():
        assert threads() == 1
    assert threads() == 2


@needs_openblas
def test_restored_after_near_singular_error(two_threads):
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 1.0
    pencil = KernelPencil(1.0, np.zeros((3, 3), dtype=complex), a)
    with pytest.raises(NearSingularError):
        with blas.one_blas_thread():
            solve_second_kind(pencil, 1.0, np.ones(3, dtype=complex))
    assert threads() == 2


@needs_openblas
@pytest.mark.parametrize("depth", [6, 10])
def test_reports_on_one_thread_at_every_size(two_threads, monkeypatch, depth):
    """Every report runs on one BLAS thread, N = 1024 as N = 64, and the
    inherited count is back after the run."""
    seen = []
    original = pipeline.verify_equivalence

    def spy(*args, **kwargs):
        seen.append(threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "verify_equivalence", spy)
    config = {**CONFIG, "depth": depth, "alpha": 0.25, "lambda": CONFIG["lambda"][:1]}
    run = pipeline.run_reduction(parse_config(config))
    assert run.reduction.pencil.size == 2**depth
    assert seen == [1]
    assert threads() == 2


@needs_openblas
def test_missing_symbols_left_alone(two_threads, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert blas._openblas.__wrapped__() is None
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.one_blas_thread():
        assert threads() == 2
    assert threads() == 2


@needs_openblas
@pytest.mark.parametrize("run", [pipeline.run_reduction, pipeline.run_verification])
def test_run_uses_one_thread_after_prepare(two_threads, monkeypatch, run):
    seen = {}

    def spy(name, original):
        def wrapped(*args, **kwargs):
            seen.setdefault(name, threads())
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, wrapped)

    spy("build_sequence", pipeline.build_sequence)
    spy("verify_equivalence", pipeline.verify_equivalence)
    run(parse_config({**CONFIG, "alpha": 0.25}))
    # prepare keeps the inherited count; the per-lambda reports run on one
    assert seen == {"build_sequence": 2, "verify_equivalence": 1}
    assert threads() == 2


def test_beside_always_takes_a_second_thread():
    here = threading.get_ident()
    for _ in range(3):
        lane, main = blas.beside(threading.get_ident, threading.get_ident)
        assert main == here != lane


@pytest.mark.parametrize("failing", ["lane", "main", "both"])
def test_beside_finishes_both_sides_before_raising(failing):
    """Each side runs to its end, the lane's thread is gone, and the lane's
    error wins, as when it ran first."""
    finished = []

    def lane():
        time.sleep(0.05)  # still running when main raises
        finished.append("lane")
        if failing != "main":
            raise np.linalg.LinAlgError("SVD did not converge")

    def main():
        finished.append("main")
        if failing != "lane":
            raise MemoryError("out of memory")

    before = threading.active_count()
    expected = MemoryError if failing == "main" else np.linalg.LinAlgError
    with pytest.raises(expected):
        blas.beside(lane, main)
    assert sorted(finished) == ["lane", "main"]
    assert threading.active_count() == before


@pytest.mark.parametrize("lane_fails", [False, True])
def test_full_svd_waits_for_the_lane_after_zgebrd(monkeypatch, lane_fails):
    """A full SVD in main() bidiagonalizes beside the lane, then waits for
    it: dbdsdc, the first step to allocate singular vectors, starts after
    the lane has ended, and when the lane raises, its error is raised there
    and no further step runs."""
    lib = blas._openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS symbols are not available")
    steps = []
    for name in ("zgebrd", "dbdsdc"):
        def logged(*args, _name=name, _step=getattr(lib, name)):
            steps.append(_name)
            return _step(*args)

        monkeypatch.setattr(lib, name, logged)

    def lane():
        time.sleep(0.2)  # far longer than main's bidiagonalization
        steps.append("lane")
        if lane_fails:
            raise np.linalg.LinAlgError("SVD did not converge")
        return "values"

    a = np.asfortranarray(MATRICES["random64"])
    if lane_fails:
        with pytest.raises(np.linalg.LinAlgError):
            blas.beside(lane, lambda: blas.gesdd(a, vectors=True))
        assert steps == ["zgebrd", "lane"]
    else:
        values, (_, s, _) = blas.beside(lane, lambda: blas.gesdd(a, vectors=True))
        assert values == "values" and s.shape == (64,)
        assert steps == ["zgebrd", "lane", "dbdsdc"]


@needs_openblas
@pytest.mark.parametrize("alpha", [0.25, 0.0])
def test_reports_make_no_back_transform(monkeypatch, alpha):
    """No report applies zgebrd's reflectors to an n x n matrix: each takes
    Q^H and P^H of the n x S probe values, then P of an n x 2S block, on
    the calling thread. Only `verify`'s report 0 forms u and vh, for the
    battery's W and V, with P's back-transform first, as zgesdd runs them."""
    calls = []
    original = LIB.zunmbr

    def recorded(vect, side, trans, m, cols, *args):
        calls.append((threading.current_thread().name, vect, side, trans,
                      m._obj.value, cols._obj.value))
        return original(vect, side, trans, m, cols, *args)

    monkeypatch.setattr(LIB, "zunmbr", recorded)
    config = parse_config({**CONFIG, "alpha": alpha})
    caller = threading.current_thread().name
    n, width = pipeline.run_reduction(config).reduction.pencil.size, config.probe_points
    route = [(caller, b"Q", b"L", b"C", n, width), (caller, b"P", b"L", b"C", n, width),
             (caller, b"P", b"L", b"N", n, 2 * width)]
    assert calls == route * len(CONFIG["lambda"])
    calls.clear()
    pipeline.run_verification(config)
    vectors = [(caller, b"P", b"R", b"C", n, n), (caller, b"Q", b"L", b"N", n, n)]
    assert calls == vectors + route * (len(CONFIG["lambda"]) - 1)


@needs_openblas
@pytest.mark.parametrize("lane", [False, True])
@pytest.mark.parametrize("vect", [b"P", b"Q"])
def test_back_transform_info_raises_on_the_caller(monkeypatch, lane, vect):
    """A nonzero info from either zunmbr raises LinAlgError on the calling
    thread, also beside a lane, and no thread is left."""
    original = LIB.zunmbr

    def failing(*args):
        original(*args)
        if args[0] == vect:
            args[13]._obj.value = -1  # info, byref

    monkeypatch.setattr(LIB, "zunmbr", failing)
    a = np.asfortranarray(MATRICES["random64"])
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        if lane:
            blas.beside(lambda: "values", lambda: blas.gesdd(a, vectors=True))
        else:
            blas.gesdd(a, vectors=True)
    assert threading.active_count() == before


# ---------------------------------------------------------------------------
# zgesdd binding
# ---------------------------------------------------------------------------


def matrices():
    rng = np.random.default_rng(91)
    for n in (1, 2, 7, 64, 300):
        yield f"random{n}", rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    yield "zero", np.zeros((7, 7), dtype=complex)
    left = rng.standard_normal((64, 5)) + 1j * rng.standard_normal((64, 5))
    right = rng.standard_normal((5, 64)) + 1j * rng.standard_normal((5, 64))
    yield "rank5", left @ right
    # largest |entry| above zgesdd's bignum (1.5e138) and below its smlnum
    # (6.7e-139): both take its scaling
    yield "huge", 1e300 * (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48)))
    yield "tiny", 1e-300 * (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48)))
    # not square: numpy.linalg.svd itself
    yield "tall40x24", rng.standard_normal((40, 24)) + 1j * rng.standard_normal((40, 24))
    yield "wide24x40", rng.standard_normal((24, 40)) + 1j * rng.standard_normal((24, 40))


MATRICES = dict(matrices())


def assert_bitwise(got, expected):
    assert got.dtype == expected.dtype
    assert got.flags.c_contiguous == expected.flags.c_contiguous
    raw = [np.ascontiguousarray(x).view(np.uint8) for x in (got, expected)]
    np.testing.assert_array_equal(*raw)


def gesdd_of(a, vectors):
    return blas.gesdd(np.array(a, order="F"), vectors=vectors)


@needs_openblas
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_bitwise_equal_to_numpy(name):
    a = MATRICES[name]
    for got, expected in zip(gesdd_of(a, True), np.linalg.svd(a)):
        assert_bitwise(got, expected)
    assert_bitwise(gesdd_of(a, False), np.linalg.svd(a, compute_uv=False))


def random_square(n):
    rng = np.random.default_rng(n)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@needs_openblas
def test_values_bitwise_equal_to_numpy_on_one_thread():
    """The lane's shape: N = 512, values only, on the report's one thread."""
    a = random_square(512)
    with blas.one_blas_thread():
        assert_bitwise(gesdd_of(a, False), np.linalg.svd(a, compute_uv=False))


@needs_openblas
def test_values_bitwise_equal_to_numpy_on_two_threads(two_threads):
    """reduce-d10's shape: N = 1024, values only, on two threads, the count
    the public `gesdd` keeps outside a run."""
    a = random_square(1024)
    assert threads() == 2
    assert_bitwise(gesdd_of(a, False), np.linalg.svd(a, compute_uv=False))


@pytest.mark.parametrize("name", ["random7", "rank5"])
def test_without_the_symbol_same_results(monkeypatch, name):
    a = MATRICES[name]
    expected = gesdd_of(a, True), gesdd_of(a, False)
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    got = gesdd_of(a, True), gesdd_of(a, False)
    for g, e in zip(got[0], expected[0]):
        assert_bitwise(g, e)
    assert_bitwise(got[1], expected[1])


@needs_openblas
def test_input_is_overwritten_in_place():
    a = np.array(MATRICES["random7"], order="F")
    blas.gesdd(a, vectors=True)
    assert not np.array_equal(a, MATRICES["random7"])


@pytest.mark.parametrize("vectors", [True, False])
def test_nan_raises_linalg_error(vectors):
    a = np.array(MATRICES["random7"], order="F")
    a[2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        blas.gesdd(a, vectors=vectors)


@pytest.mark.parametrize(
    "a",
    [
        np.zeros((3, 3), dtype=complex),  # C order
        np.zeros((3, 3), order="F"),  # real
        np.zeros(3, dtype=complex),
        np.broadcast_to(np.zeros(3, dtype=complex), (3, 3)).T,  # read-only
    ],
)
def test_only_complex_fortran_matrices(a):
    with pytest.raises(ValueError, match="Fortran-order"):
        blas.gesdd(a, vectors=True)


@pytest.mark.parametrize("order", ["C", "F"])
def test_m_factorize_leaves_its_argument(order):
    a = np.array(MATRICES["random64"], order=order)
    kept = a.copy(order="A")
    fact = m_factorize(a)
    assert_bitwise(a, kept)
    np.testing.assert_allclose((fact.u * fact.sigma) @ fact.vh, kept, atol=1e-12)


# the CLI with the loader patched out; no option of the program is involved
NO_OPENBLAS = (
    "import sys; import thirdkind.blas as b; b._openblas = lambda: None; "
    "from thirdkind.cli import main; sys.exit(main(sys.argv[1:]))"
)


def run_cli(argv_head, command, cfg, out):
    src = str(Path(__file__).resolve().parents[1] / "src")
    # one thread in both runs: without the loader the count is not managed
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [*argv_head, command, "--config", str(cfg), "--out", str(out)]
    done = subprocess.run(argv, env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()


# "tail_sup": <number> in a report, and the rest of its file around it
TAIL = re.compile(rb'"tail_sup": ([^,\n]+)')


@needs_openblas
@pytest.mark.parametrize("alpha", [0.25, 0.0])
@pytest.mark.parametrize("command", ["reduce", "verify"])
def test_cli_outputs_identical_without_the_symbol(tmp_path, command, alpha):
    """Without the binding every file is byte-identical but for the reports'
    tail_sup values, which the fallback forms from numpy's full SVD instead
    of zgebrd's reflectors: those agree within TAIL_RTOL."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**CONFIG, "depth": 7, "alpha": alpha}))
    outs = [tmp_path / "binding", tmp_path / "fallback"]
    run_cli([sys.executable, "-m", "thirdkind.cli"], command, cfg, outs[0])
    run_cli([sys.executable, "-c", NO_OPENBLAS], command, cfg, outs[1])
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    tails = 0
    for name in names:
        binding, fallback = ((out / name).read_bytes() for out in outs)
        assert TAIL.sub(b"", binding) == TAIL.sub(b"", fallback), name
        for got, expected in zip(TAIL.findall(fallback), TAIL.findall(binding)):
            assert float(got) == pytest.approx(float(expected), rel=TAIL_RTOL, abs=0.0)
            tails += 1
    assert tails == len(CONFIG["lambda"])


# ---------------------------------------------------------------------------
# probe route: singular values and probe blocks without u and vh
# ---------------------------------------------------------------------------

# The route's tail_sup against the full SVD's, measured: at most 1.2e-15
# relative on the benchmark's pencils at N = 128, 512 and 1024 (alpha 0.25
# and 0, scaled past bignum or not, projected or not) and 2.2e-15 on a
# rank-one pencil at N = 128.
TAIL_RTOL = 1e-14


def _reduction(depth, alpha, **overrides):
    """The run's reduction for CONFIG at this depth and alpha; a `kernel`
    override keeps only A of its pencil (A0 = 0)."""
    config = parse_config({**CONFIG, "depth": depth, "alpha": alpha, **overrides})
    seq = pipeline.prepare(config)
    surrogate = pipeline._surrogate(config, seq)
    phi = pipeline.random_grid_function(np.random.default_rng(config.seed), seq.space)
    points = pipeline.probe_grid(config.probe_bound, config.probe_points)
    reduction = Reduction(seq, surrogate, points, phi)
    if "kernel" in overrides:
        pencil = KernelPencil(alpha, np.zeros_like(reduction.pencil.a), reduction.pencil.a)
        object.__setattr__(reduction, "pencil", pencil)
    return reduction, config.lambdas[0]


def check_route(reduction, lam, scale=1.0):
    """The route's singular values are the full SVD's, bit for bit, and its
    blocks and tail agree with those formed from that SVD's u and vh. Returns
    the full SVD's rank."""
    d = scale * reduction.pencil.pencil_kernel(lam).matrix
    grid = reduction.probes
    with blas.one_blas_thread():
        fact = m_factorize(d)
        polar = polar_probes(np.array(d, order="F"), grid)
    assert_bitwise(polar.sigma, fact.sigma)
    assert polar.factorization is None
    for got, expected in ((polar.w_values, fact.w_values(grid.values)),
                          (polar.v_values, fact.v_values(grid.values))):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))
    expected = absolute_tail_sup(fact.w_values(grid.values), fact.v_values(grid.values))
    got = absolute_tail_sup(polar.w_values, polar.v_values)
    assert got == pytest.approx(expected, rel=TAIL_RTOL, abs=0.0)
    return fact.rank


@needs_openblas
@pytest.mark.parametrize("alpha", [0.25, 0.0])
@pytest.mark.parametrize("depth", [7, 9, 10])
def test_probe_route_agrees_with_the_full_svd(depth, alpha):
    reduction, lam = _reduction(depth, alpha)
    assert reduction.pencil.size == 2**depth
    assert check_route(reduction, lam) == 2**depth


@needs_openblas
def test_probe_route_on_a_rank_one_pencil():
    """D = -lambda A for a rank-one kernel: the route's products keep the
    first r columns of ru and rows of rvt, r = 1."""
    kernel = {"kind": "rank_one", "left": {"kind": "exp", "scale": 1.0}}
    reduction, lam = _reduction(7, 0.25, kernel=kernel)
    assert check_route(reduction, lam) == 1


@needs_openblas
def test_probe_route_on_a_projected_pencil():
    reduction, lam = _reduction(9, 0.25, basis_size=128)
    assert reduction.pencil.size == 128 and reduction.surrogate.projected
    check_route(reduction, lam)


@needs_openblas
def test_probe_route_past_bignum(monkeypatch):
    """D scaled past zgesdd's bignum takes its zlascl scaling, and the
    blocks read the singular values with the scaling undone."""
    scaled = []
    original = LIB.zlascl

    def recorded(*args):
        scaled.append(args[0])
        return original(*args)

    monkeypatch.setattr(LIB, "zlascl", recorded)
    reduction, lam = _reduction(7, 0.0)
    check_route(reduction, lam, scale=1e300)
    assert scaled == [b"G", b"G"]  # m_factorize's SVD, then the route


@needs_openblas
@pytest.mark.parametrize("step", [(b"Q", b"C"), (b"P", b"C"), (b"P", b"N")])
def test_probe_route_info_raises(monkeypatch, step):
    """A nonzero info from any of the route's zunmbr raises LinAlgError."""
    original = LIB.zunmbr

    def failing(*args):
        original(*args)
        if (args[0], args[2]) == step:
            args[13]._obj.value = -1  # info, byref

    monkeypatch.setattr(LIB, "zunmbr", failing)
    a = np.array(MATRICES["random64"], order="F")
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        blas.gesdd_probes(a, np.ones((64, 3)))


def test_probe_route_takes_the_values_of_its_matrix():
    a = np.array(MATRICES["random7"], order="F")
    with pytest.raises(ValueError, match="7 rows"):
        blas.gesdd_probes(a, np.ones((6, 3)))
    with pytest.raises(ValueError, match="Fortran-order"):
        blas.gesdd_probes(np.array(MATRICES["random7"]), np.ones((7, 3)))


def test_probe_route_without_the_symbol(monkeypatch):
    """Without the binding the route hands the matrix back, and
    `polar_probes` forms the blocks from numpy's full SVD."""
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    a = np.array(MATRICES["random64"], order="F")
    assert blas.gesdd_probes(a, np.ones((64, 3))) is None
    reduction, lam = _reduction(6, 0.25)
    check_route(reduction, lam)
