"""Acceptance suite: one test per criterion, each printing a pass line.

Every tolerance here is pinned; the runtime budgets are asserted against
the process's CPU time, with the budgeted body on one BLAS thread, so that
other load on the machine does not inflate it.
Expected values marked by construction below are computed in-test by
independent routes (raw matvec oracles, closed forms, block pattern
construction), never by the code paths they are checking.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from thirdkind import (
    BilinearKernel,
    GridFunction,
    GridKernel,
    MeasurableSet,
    MeasureSpace,
    ProbeGrid,
    Reduction,
    SmoothBasis,
    UnitarySurrogate,
    build_sequence,
    forward_third_kind,
    inner_product,
    m_factorize,
    multiplier_matrix,
    rademacher,
    scale_by_multiplier,
    series_consistency,
    solve_first_kind,
    verify_equivalence,
)
from thirdkind.blas import one_blas_thread
from thirdkind.kernels import (
    adjoint_column_quarter_maxima,
    carleman,
    finite_difference_defect,
    hs_norm,
    probe_grid,
    vanishing_at_radius,
)
from thirdkind.pipeline import random_grid_function

from problem_family import build_problem_instance, random_problem_instance
from thirdkind.serialize import write_matrix_csv


@contextlib.contextmanager
def _budget(name, seconds):
    """Assert the body ran inside its CPU-time budget (all of the process's
    threads), then report. The body runs on one BLAS thread, as the pipeline
    runs at these sizes, so that its CPU time is its own work and not two
    BLAS threads spinning against another process's on a shared machine."""
    with one_blas_thread():
        start = time.process_time()
        yield
        elapsed = time.process_time() - start
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s over the {seconds}s budget"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s CPU)")


def test_c1_rademacher_orthonormality():
    with _budget("1 rademacher suite", 1.0):
        depth = 10
        space = MeasureSpace(depth)
        E = MeasurableSet(space, np.arange(space.cell_count))
        functions = [rademacher(E, n) for n in range(1, 9)]

        gram = np.array(
            [[inner_product(f, g) for g in functions] for f in functions]
        )
        assert np.max(np.abs(gram - np.eye(8))) <= 1e-12

        one = GridFunction(space, np.ones(space.cell_count))
        for f in functions:
            assert abs(inner_product(f, one)) <= 1e-14

        # first three sign patterns: alternating blocks of width 2**(depth-n)
        for n in (1, 2, 3):
            signs = np.where(np.arange(1 << n) % 2 == 0, 1.0, -1.0)
            expected = np.repeat(signs, space.cell_count >> n)
            np.testing.assert_array_equal(functions[n - 1].values, expected)


def test_c2_damping_sequence_bounds():
    with _budget("2 damping sequence suite", 10.0):
        depth = 12
        space = MeasureSpace(depth)
        H = GridFunction.sample(space, lambda y: y)
        centers = space.centers()
        K = GridKernel(space, np.exp(np.outer(centers, centers)))
        seq = build_sequence(H, K, 0.0, count=6, eps0=1.0, ratio=0.5, depth_max=16)
        assert seq.space.depth == depth  # schedule never forces refinement here

        w = space.cell_width
        for n in range(1, 7):
            eps_n = 2.0**-n
            assert seq.epsilons[n - 1] == eps_n
            # multiplication bound, grid-exact by band membership
            assert seq.norm_coefficient[n - 1] <= eps_n

            # independent oracle: rebuild e_n from its block pattern and
            # apply the raw sample matrix directly
            band = seq.bands[n - 1]
            k = seq.levels[n - 1]
            pieces = 1 << k
            block = band.cell_count // pieces
            amp = 1.0 / math.sqrt(band.measure)
            e = np.zeros(space.cell_count)
            e[band.cell_indices] = np.repeat(
                np.where(np.arange(pieces) % 2 == 0, amp, -amp), block
            )
            forward = np.linalg.norm(K.entries @ e * w) * math.sqrt(w)
            backward = np.linalg.norm(K.entries.T @ e * w) * math.sqrt(w)
            assert forward + backward <= 1.0 / n
            assert seq.norm_kernel[n - 1] + seq.norm_kernel_adjoint[n - 1] == (
                pytest.approx(forward + backward, rel=1e-12)
            )

            # continuum value of the band norm: (1/mu E) integral y^2
            analytic = (7.0 / 12.0) * 4.0**-n
            assert seq.norm_coefficient[n - 1] ** 2 == pytest.approx(
                analytic, abs=2.0 * 2.0**-depth
            )


def test_c3_surrogate_unitarity():
    with _budget("3 unitarity suite", 10.0):
        space = MeasureSpace(8)
        H = GridFunction.sample(space, lambda y: y)
        centers = space.centers()
        K = GridKernel(space, np.exp(np.outer(centers, centers)))
        seq = build_sequence(H, K, 0.25, count=3, eps0=0.25, ratio=0.5, depth_max=12)
        U = UnitarySurrogate.from_sequence(seq, "full")
        assert not U.projected and U.size == 256

        rng = np.random.default_rng(1234)
        iso = 0.0
        trip = 0.0
        for _ in range(50):
            phi = random_grid_function(rng, seq.space)
            psi = random_grid_function(rng, seq.space)
            cphi, cpsi = U.forward(phi), U.forward(psi)
            iso = max(iso, abs(np.vdot(cpsi, cphi) - inner_product(phi, psi)))
            back = U.inverse(cphi)
            trip = max(trip, GridFunction(seq.space, back.values - phi.values).norm())
        assert iso <= 1e-10
        assert trip <= 1e-10


def test_c4_equivalence_battery(tmp_path):
    with _budget("4 equivalence suite", 60.0):
        rng = np.random.default_rng(20260810)
        for trial in range(20):
            depth = int(rng.integers(6, 9))
            inst = random_problem_instance(rng, depth)
            _, _, seq, U = build_problem_instance(inst)
            phi = random_grid_function(rng, seq.space)
            lam = inst["lambda"]
            report, _ = verify_equivalence(Reduction(seq, U, probe_grid(), phi), lam)
            assert report.passage_residual <= 1e-9, f"trial {trial}"
            assert report.round_trip_error <= 1e-10, f"trial {trial}"

            if trial < 3:
                # the matrices may not depend on lambda: byte-identical files
                # from two reductions that served different lambdas
                lam2 = lam * -0.5 + 0.3j
                run1 = Reduction(seq, U, probe_grid(), phi)
                verify_equivalence(run1, lam)
                run2 = Reduction(seq, U, probe_grid(), phi)
                verify_equivalence(run2, lam2)
                for tag, m1, m2 in (
                    ("a0", run1.pencil.a0, run2.pencil.a0),
                    ("a", run1.pencil.a, run2.pencil.a),
                ):
                    f1 = tmp_path / f"{tag}_{trial}_1.csv"
                    f2 = tmp_path / f"{tag}_{trial}_2.csv"
                    write_matrix_csv(f1, m1)
                    write_matrix_csv(f2, m2)
                    assert f1.read_bytes() == f2.read_bytes()


def test_c5_factorization_series():
    with _budget("5 factorization series suite", 10.0):
        rng = np.random.default_rng(55)
        probes = [(s, t) for s in np.linspace(-2, 2, 5) for t in np.linspace(-2, 2, 5)]
        for size in (4, 8, 16):
            hermitian = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
                (size, size)
            )
            hermitian = (hermitian + hermitian.conj().T) / 2
            general = rng.standard_normal((size, size)) + 1j * rng.standard_normal(
                (size, size)
            )
            for a in (hermitian, general):
                w, v = m_factorize(a).polar_factors()
                assert np.linalg.norm(
                    w @ v.conj().T - a, "fro"
                ) <= 1e-10 * np.linalg.norm(a, "fro")

                kernel = BilinearKernel(a)
                for i in (0, 1):
                    for j in (0, 1):
                        for s, t in probes:
                            chk = series_consistency(kernel, w, v, i, j, s, t)
                            assert (
                                abs(chk.direct - chk.via_factorization) <= 1e-10
                            )
                            sums = chk.abs_partial_sums
                            assert np.all(np.diff(sums) >= -1e-15)
                            assert np.isfinite(sums[-1])
                            assert sums[-1] >= abs(chk.direct) - 1e-12


def _pipeline_run(depth, alpha, lam):
    space = MeasureSpace(depth)
    H = GridFunction.sample(space, lambda y: y)
    centers = space.centers()
    K = GridKernel(space, np.exp(np.outer(centers, centers)))
    seq = build_sequence(H, K, alpha, count=3, eps0=0.25, ratio=0.5, depth_max=depth + 4)
    U = UnitarySurrogate.from_sequence(seq, "full")
    rng = np.random.default_rng(99)
    phi = random_grid_function(rng, seq.space)
    psi = forward_third_kind(seq.coefficient, seq.kernel, lam, phi)
    run = Reduction(seq, U, probe_grid(), phi)
    return run, U.forward(psi), U.forward(phi)


def test_c6_kernel_smoothness():
    with _budget("6 smoothness suite", 30.0):
        pencil = _pipeline_run(6, alpha=0.25, lam=0.4)[0].pencil
        size = pencil.size
        assert size == 64
        pk = pencil.pencil_kernel(0.4)

        pts = np.linspace(-4, 4, 9)
        defects = finite_difference_defect(pk, pts)
        assert len(defects) == 9  # every (i, j) with 0 < i + j <= 3
        for defect in defects.values():
            assert defect <= 1e-5

        radius = 8.0 + math.sqrt(2.0 * size)
        assert vanishing_at_radius(pk, pts) <= 1e-6
        edges = ProbeGrid(pk.basis, np.array([radius, -radius]))
        assert np.max(np.linalg.norm(carleman(pk, "row", 0, edges), axis=0)) <= 1e-6


def test_c7_first_kind_multiplier():
    with _budget("7 first kind suite", 30.0):
        lam = 0.3
        run, g, f = _pipeline_run(6, alpha=0.0, lam=lam)
        w = run.m_matrix @ g

        # Hilbert-Schmidt bound with the probe-grid Carleman sup
        plain = run.pencil.pencil_kernel(lam)
        gamma_pencil = scale_by_multiplier(plain, run.m_matrix)
        probes = ProbeGrid(plain.basis, np.linspace(-8, 8, 161))
        sup = float(np.max(np.linalg.norm(carleman(plain, "row", 0, probes), axis=0)))
        hs = hs_norm(gamma_pencil)
        assert np.isfinite(hs)
        slack = max(0.0, hs - sup * math.pi**0.25)
        assert hs <= sup * math.pi**0.25 + slack + 1e-12
        assert slack <= 1e-9

        # multiplier derivative expansion against finite differences
        pts = np.linspace(-3, 3, 7)
        defects = finite_difference_defect(gamma_pencil, pts)
        for i, j in ((1, 0), (1, 1), (2, 0), (2, 1)):
            assert defects[i, j] <= 1e-5

        # multiplied-system identity at the forward image
        residual = np.linalg.norm(gamma_pencil.multiplied_matrix @ f - w)
        assert residual <= 1e-9 * np.linalg.norm(w)

        # manufacture-then-solve at a size where nothing is truncated
        space = MeasureSpace(4)
        H = GridFunction.sample(space, lambda y: y)
        centers = space.centers()
        K = GridKernel(space, np.exp(np.outer(centers, centers)))
        seq = build_sequence(H, K, 0.0, count=2, eps0=1.0, ratio=0.5, depth_max=8)
        U = UnitarySurrogate.from_sequence(seq, "full")
        rng = np.random.default_rng(100)
        small = Reduction(seq, U, probe_grid(), random_grid_function(rng, seq.space))
        # c0 is the draw after phi
        n = small.pencil.size
        c0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        system = scale_by_multiplier(
            small.pencil.pencil_kernel(lam), small.m_matrix
        ).multiplied_matrix
        sol = solve_first_kind(system, system @ c0, cutoff=1e-10)
        assert sol.kept == n  # no spectral truncation occurred
        assert np.linalg.norm(sol.coefficients - c0) <= 1e-8 * np.linalg.norm(c0)


def test_c8_adjoint_column_decay():
    with _budget("8 column decay suite", 5.0):
        rng = np.random.default_rng(888)
        basis = SmoothBasis(64)
        m_matrix = multiplier_matrix(basis)
        for trial in range(10):
            a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
            first, last = adjoint_column_quarter_maxima(m_matrix @ a)
            assert last < first, f"trial {trial}: {last} >= {first}"
