"""One BLAS thread for small pencils, restored afterwards."""

import ctypes

import numpy as np
import pytest

import thirdkind.blas as blas
import thirdkind.pipeline as pipeline
from thirdkind import KernelPencil, NearSingularError, solve_second_kind
from thirdkind.config import parse_config

FUNCS = blas._openblas()
pytestmark = pytest.mark.skipif(FUNCS is None, reason="numpy's OpenBLAS not found")

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
    return FUNCS[1]()


@pytest.fixture
def two_threads():
    """Start each test from two BLAS threads, so a count left at one shows."""
    set_threads, get_threads = FUNCS
    previous = get_threads()
    set_threads(2)
    yield
    set_threads(previous)


def test_one_thread_inside_restored_after(two_threads):
    with blas.blas_threads_for(blas.SINGLE_THREAD_MAX_SIZE):
        assert threads() == 1
    assert threads() == 2


def test_restored_after_near_singular_error(two_threads):
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 1.0
    pencil = KernelPencil(1.0, np.zeros((3, 3), dtype=complex), a)
    with pytest.raises(NearSingularError):
        with blas.blas_threads_for(3):
            solve_second_kind(pencil, 1.0, np.ones(3, dtype=complex))
    assert threads() == 2


def test_large_size_left_alone(two_threads):
    with blas.blas_threads_for(512):
        assert threads() == 2
    assert threads() == 2


def test_missing_symbols_left_alone(two_threads, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
    assert blas._openblas() is None
    with blas.blas_threads_for(128):
        assert threads() == 2
    assert threads() == 2


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
