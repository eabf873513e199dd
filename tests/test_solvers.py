"""Forward model, reduction identities, and the reduced solvers."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import thirdkind.blas
import thirdkind.kernels
import thirdkind.solvers
from thirdkind import (
    BilinearKernel,
    DegenerateSystemError,
    GridFunction,
    GridKernel,
    KernelPencil,
    MeasureSpace,
    NearSingularError,
    ProbeGrid,
    Reduction,
    RightHandSideOverflowError,
    UnitarySurrogate,
    build_sequence,
    carleman,
    eval_kernel,
    forward_third_kind,
    matrix_elements,
    multiplier_matrix,
    reduce_problem,
    solve_first_kind,
    verify_equivalence,
)
from thirdkind.blas import one_blas_thread
from thirdkind.config import make_kernel, parse_config
from thirdkind.kernels import condition_number, probe_grid
from thirdkind.pipeline import CONDITION_LIMIT, _gated_report, prepare, random_grid_function
from thirdkind.reduction import BlockDiagonal
from thirdkind.solvers import FirstKindSystem

from reference import characteristic_value, dense_difference, one_block


def exp_kernel(space, scale=1.0):
    c = space.centers()
    return GridKernel(space, np.exp(scale * np.outer(c, c)))


def product_kernel(space):
    c = space.centers()
    return GridKernel(space, np.outer(c, c))


def build_chain(depth, alpha, kernel_factory=exp_kernel, bands=3, eps0=0.25):
    space = MeasureSpace(depth)
    H = GridFunction.sample(space, lambda y: y)
    K = kernel_factory(space)
    seq = build_sequence(H, K, alpha, bands, eps0, 0.5, depth_max=depth + 4)
    U = UnitarySurrogate.from_sequence(seq, "full")
    return seq.coefficient, seq.kernel, seq, U


class TestForward:
    def test_lambda_zero_is_multiplication(self):
        space = MeasureSpace(4)
        H = GridFunction.sample(space, lambda y: y * y)
        K = exp_kernel(space)
        rng = np.random.default_rng(61)
        phi = random_grid_function(rng, space)
        out = forward_third_kind(H, K, 0.0, phi)
        np.testing.assert_allclose(out.values, H.values * phi.values, atol=1e-14)

    def test_pure_integral_part(self):
        # H = 0, K = 1, lambda = 1, phi = 1: psi = -integral of phi = -1
        space = MeasureSpace(5)
        H = GridFunction(space, np.zeros(space.cell_count))
        K = GridKernel(space, np.ones((32, 32)))
        phi = GridFunction(space, np.ones(space.cell_count))
        out = forward_third_kind(H, K, 1.0, phi)
        np.testing.assert_allclose(out.values, -1.0, atol=1e-14)
        # K phi applied beforehand, as a run passes it, gives the same bits
        applied = forward_third_kind(H, K.apply(phi), 1.0, phi)
        np.testing.assert_array_equal(applied.values, out.values)

    def test_zero_input(self):
        space = MeasureSpace(4)
        H = GridFunction.sample(space, lambda y: y)
        out = forward_third_kind(H, exp_kernel(space), 0.5, GridFunction(space, np.zeros(space.cell_count)))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_inputs_on_another_grid_rejected(self):
        space, other = MeasureSpace(4), MeasureSpace(5)
        H = GridFunction.sample(space, lambda y: y)
        K = exp_kernel(space)
        phi = GridFunction(space, np.zeros(space.cell_count))
        for args in (
            (GridFunction.sample(other, lambda y: y), K, phi),
            (H, exp_kernel(other), phi),
            (H, GridFunction(other, np.zeros(other.cell_count)), phi),
            (H, K, GridFunction(other, np.zeros(other.cell_count))),
        ):
            with pytest.raises(ValueError, match="different grids"):
                forward_third_kind(args[0], args[1], 0.3, args[2])

    @pytest.mark.parametrize("lam", [1e300, -1e300, 1e200 + 1e200j])
    def test_overflowing_right_hand_side_raises_without_warning(self, lam, recwarn):
        space = MeasureSpace(4)
        H = GridFunction.sample(space, lambda y: y)
        K = GridKernel(space, np.full((16, 16), 1e300))
        phi = GridFunction(space, np.ones(space.cell_count))
        with pytest.raises(RightHandSideOverflowError, match="overflows"):
            forward_third_kind(H, K, lam, phi)
        assert [str(w.message) for w in recwarn] == []


class TestReduce:
    def test_passage_identity_lambda_zero(self):
        H, K, seq, U = build_chain(6, alpha=0.5)
        rng = np.random.default_rng(64)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        g = U.forward(forward_third_kind(H, K, 0.0, phi))
        f = U.forward(phi)
        lhs = 0.5 * f + (pencil.a0.toarray() - 0.0 * pencil.a) @ f
        assert np.linalg.norm(lhs - g) <= 1e-10 * np.linalg.norm(g)

    def test_full_pipeline_depth_eight(self):
        H, K, seq, U = build_chain(8, alpha=0.0)
        rng = np.random.default_rng(65)
        phi = random_grid_function(rng, seq.space)
        lam = 0.3
        pencil = reduce_problem(seq, U)
        g = U.forward(forward_third_kind(H, K, lam, phi))
        f = U.forward(phi)
        lhs = (pencil.a0.toarray() - lam * pencil.a) @ f
        assert np.linalg.norm(lhs - g) <= 1e-9 * np.linalg.norm(g)

    def test_pencil_is_the_sequence_problem(self):
        # alpha, H and K come from the sequence: the pencil against the dense
        # images of every row under H - alpha and K on the final grid
        H, K, seq, U = build_chain(5, alpha=0.25, bands=2)
        pencil = reduce_problem(seq, U)
        assert pencil.alpha == seq.alpha == 0.25
        B, w = U.b_matrix, seq.space.cell_width
        np.testing.assert_allclose(
            pencil.a0.toarray(),
            matrix_elements(seq.space, B, B * (H.values - 0.25)),
            rtol=0,
            atol=1e-13,
        )
        np.testing.assert_allclose(
            pencil.a, matrix_elements(seq.space, B, (K.entries @ B.T).T * w), rtol=0, atol=1e-13
        )

    def test_pencil_is_affine_in_lambda(self):
        _, _, seq, U = build_chain(6, alpha=0.25)
        pencil = reduce_problem(seq, U)
        lam = 1.3 - 0.4j
        direct = pencil.pencil_kernel(lam).matrix
        affine = pencil.pencil_kernel(0.0).matrix + np.multiply(
            pencil.a, -lam, dtype=complex
        )
        np.testing.assert_array_equal(direct, affine)


def complex_constant_kernel(space):
    return make_kernel({"kind": "constant", "value": [1.0, -0.5]}, space)


def assert_same_bytes(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


class TestPencilDtype:
    def test_real_problem_gives_float64_pencil(self):
        # the benchmark's shape: H = y, exp(x y), real alpha
        _, _, seq, U = build_chain(6, alpha=0.25)
        pencil = reduce_problem(seq, U)
        assert pencil.a0.dtype == np.float64
        for m in (pencil.a0.diagonal, *(v for _, v in pencil.a0.blocks), pencil.a):
            assert m.dtype == np.float64
            assert m.flags.c_contiguous

    @pytest.mark.parametrize(
        "alpha, kernel_factory, bands, complex_matrices",
        [
            (0.25 + 0.1j, exp_kernel, 1, ("a0",)),
            (0.25, complex_constant_kernel, 3, ("a",)),
        ],
    )
    def test_complex_data_keeps_complex128(
        self, alpha, kernel_factory, bands, complex_matrices
    ):
        _, _, seq, U = build_chain(6, alpha, kernel_factory, bands=bands)
        pencil = reduce_problem(seq, U)
        for name in ("a0", "a"):
            expected = np.complex128 if name in complex_matrices else np.float64
            assert getattr(pencil, name).dtype == expected, name

    @pytest.mark.parametrize("lam", [0.4 - 0.3j, 0.5])
    def test_lambda_matrices_do_not_depend_on_the_dtype(self, lam):
        _, _, seq, U = build_chain(6, alpha=0.25)
        real = reduce_problem(seq, U)
        wide = KernelPencil(
            real.alpha, real.a0.map(lambda m: m.astype(complex)), real.a.astype(complex)
        )
        assert_same_bytes(real.pencil_kernel(lam).matrix, wide.pencil_kernel(lam).matrix)
        assert_same_bytes(real.system_matrix(lam), wide.system_matrix(lam))
        grid = ProbeGrid(real.basis, probe_grid())
        polar, wide_polar = (p.polar_probes(lam, grid, vectors=True) for p in (real, wide))
        for name in ("sigma", "w_values", "v_values"):
            assert_same_bytes(getattr(polar, name), getattr(wide_polar, name))
        fact, wide_fact = polar.factorization, wide_polar.factorization
        for name in ("u", "sigma", "vh"):
            assert_same_bytes(getattr(fact, name), getattr(wide_fact, name))
        assert fact.rank == wide_fact.rank


def manufactured(depth, lam):
    """A full-truncation alpha = 0.25 run with the reduced right-hand side
    g = U psi of its phi at lam."""
    _, _, seq, U = build_chain(depth, alpha=0.25)
    phi = random_grid_function(np.random.default_rng(77), seq.space)
    run = Reduction(seq, U, probe_grid(), phi)
    psi = forward_third_kind(seq.coefficient, seq.kernel, lam, phi)
    return run, phi, U.forward(psi)


class TestSolveSecondKind:
    """The report's gate on alpha I + D (`pipeline._gated_report`): a lambda
    too near a characteristic value for the second-kind equation to be
    solved raises NearSingularError, with the condition and the lambda."""

    def test_near_singular(self):
        run, _, _ = manufactured(6, 0.3)
        lam = characteristic_value(run.pencil)
        with pytest.raises(NearSingularError) as err:
            _gated_report(run, 1, lam, 1e-10)
        assert err.value.condition > CONDITION_LIMIT
        assert (err.value.lam, err.value.index) == (lam, 1)

    def test_nan_condition_is_near_singular(self, monkeypatch):
        run, _, _ = manufactured(6, 0.7)
        monkeypatch.setattr(
            thirdkind.solvers, "gesdd", lambda a, *, vectors: np.full(4, np.nan)
        )
        with pytest.raises(NearSingularError) as err:
            _gated_report(run, 0, 0.7, 1e-10)
        assert math.isnan(err.value.condition)


def first_kind_system(run, lam):
    """M (A0 - lambda A), the first-kind matrix the report solves, dense."""
    return run.m_matrix @ run.pencil.pencil_kernel(lam).matrix


def dense_system(matrix):
    """The dense square first-kind matrix as a system over the identity basis."""
    return FirstKindSystem(np.eye(matrix.shape[0]), matrix)


class TestOneSecondKindProducer:
    """The report takes its condition from the one shifted matrix,
    KernelPencil.system_matrix, and a dense solve with that matrix maps g
    back to U phi."""

    def test_condition_is_the_reports_and_the_solve_recovers_f(self):
        lam = 0.4 + 0.2j
        run, phi, g = manufactured(6, lam)
        condition = condition_number(
            thirdkind.blas.gesdd(run.pencil.system_matrix(lam), vectors=False)
        )
        assert condition == verify_equivalence(run, lam)[0].condition
        c = np.linalg.solve(run.pencil.system_matrix(lam), g)
        f = run.surrogate.forward(phi)
        assert np.linalg.norm(c - f) <= 1e-8 * np.linalg.norm(f)


class TestFirstKind:
    def run_from_chain(self, depth=4):
        H, K, seq, U = build_chain(depth, alpha=0.0, bands=2, eps0=0.5)
        rng = np.random.default_rng(68)
        phi = random_grid_function(rng, seq.space)
        run = Reduction(seq, U, probe_grid(), phi)
        return run, U.forward(forward_third_kind(H, K, 0.3, phi)), U.forward(phi)

    def test_zero_rhs(self):
        run, g, _ = self.run_from_chain()
        w = run.m_matrix @ np.zeros_like(g)
        np.testing.assert_array_equal(w, 0.0)
        sol = solve_first_kind(dense_system(first_kind_system(run, 0.3)), w, 1e-10)
        np.testing.assert_array_equal(sol.coefficients, 0.0)
        assert sol.discarded_energy == 0.0

    def test_alpha_not_zero_has_no_multiplier(self):
        _, _, seq, U = build_chain(4, alpha=0.25, bands=2, eps0=0.5)
        assert reduction_of(seq, U).m_matrix is None

    def test_hs_bound_with_gaussian_multiplier(self):
        from thirdkind import hs_norm

        run, _, _ = self.run_from_chain()
        plain = BilinearKernel(run.pencil.a)
        gamma = BilinearKernel(plain.matrix, multiplied_matrix=run.m_matrix @ plain.matrix)
        probes = ProbeGrid(plain.basis, probe_grid(8.0, 161))
        sup = float(np.max(np.linalg.norm(carleman(plain, "row", 0, probes), axis=0)))
        assert hs_norm(gamma) <= sup * math.pi**0.25 + 1e-12

    def test_multiplied_identity_preserved(self):
        run, g, f = self.run_from_chain()
        w = run.m_matrix @ g
        lhs = first_kind_system(run, 0.3) @ f
        assert np.linalg.norm(lhs - w) <= 1e-9 * np.linalg.norm(w)

    def test_identity_system_any_cutoff(self):
        n = 5
        g = np.arange(1.0, n + 1.0).astype(complex)
        for cutoff in (1e-12, 1e-6, 0.5):
            sol = solve_first_kind(dense_system(np.eye(n)), g, cutoff)
            np.testing.assert_allclose(sol.coefficients, g, atol=1e-12)
            assert sol.discarded_energy == 0.0

    def test_system_left_unchanged(self):
        # a writeable complex Fortran-order system is what the SVD would
        # overwrite if it were factored without a copy
        rng = np.random.default_rng(77)
        system = np.asfortranarray(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        w = rng.standard_normal(6) + 0j
        kept = system.copy()
        sol = solve_first_kind(dense_system(system), w, 1e-10)
        np.testing.assert_array_equal(system, kept)
        np.testing.assert_allclose(system @ sol.coefficients, w, atol=1e-10)

    def test_manufacture_then_solve_recovery(self):
        # wide bands keep the grid at depth 4 (16 modes), where the
        # multiplier matrix is far from its truncation floor
        _, _, seq, U = build_chain(4, alpha=0.0, bands=2, eps0=1.0)
        rng = np.random.default_rng(69)
        run = Reduction(seq, U, probe_grid(), random_grid_function(rng, seq.space))
        # c0 is the draw after phi
        n = run.pencil.size
        c0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        system = first_kind_system(run, 0.3)
        # well-conditioned at this size: nothing gets truncated
        assert np.linalg.cond(system) < 1e7
        sol = solve_first_kind(dense_system(system), system @ c0, 1e-10)
        assert sol.kept == n
        assert np.linalg.norm(sol.coefficients - c0) <= 1e-8 * np.linalg.norm(c0)
        # the report's route: every eigenvalue of M is kept at N = 16
        factored = run.multiplied.system(0.3)
        assert factored.basis.shape == (n, n)
        sol = solve_first_kind(factored, factored.apply(c0), 1e-10)
        assert sol.kept == n
        assert np.linalg.norm(sol.coefficients - c0) <= 1e-8 * np.linalg.norm(c0)

    @pytest.mark.parametrize("lam", [0.39 - 0.26j, 0.48 - 0.11j])
    def test_eigenbasis_solve_against_the_dense_one_at_256(self, lam):
        """The report's solve in M's eigenbasis (k = 126 of N = 256) against
        the SVD of the dense M D, on the benchmark's shape. Measured: `kept`
        99 on both; coefficients 7.8e-8 and 2.5e-7 apart (relative), the
        sensitivity of the truncated solve at the cutoff 1e-10; discarded
        energy (2.1e-21) 5.5e-7 and 3.5e-6 apart, recovery error 4.2e-10 and
        1.3e-9 apart (relative)."""
        config = parse_config({
            "depth": 8, "alpha": 0.0, "lambda": [[lam.real, lam.imag]], "eps0": 0.25,
            "ratio": 0.5, "bands": 3, "coefficient": {"kind": "linear"},
            "kernel": {"kind": "exp_xy", "scale": 1.0}, "seed": 23,
        })
        seq = prepare(config)
        U = UnitarySurrogate.from_sequence(seq)
        with one_blas_thread():
            phi = random_grid_function(np.random.default_rng(config.seed), seq.space)
            run = Reduction(seq, U, probe_grid(), phi)
            psi = forward_third_kind(run.coefficient, run.k_phi, lam, phi)
            w = run.m_matrix @ U.forward(psi)
            dense = solve_first_kind(dense_system(first_kind_system(run, lam)), w, 1e-10)
            factored = solve_first_kind(run.multiplied.system(lam), w, 1e-10)
        assert run.multiplied.basis.shape == (256, 126)
        assert factored.kept == dense.kept == 99
        gap = np.linalg.norm(factored.coefficients - dense.coefficients)
        assert gap <= 1e-6 * np.linalg.norm(dense.coefficients)
        assert factored.discarded_energy == pytest.approx(dense.discarded_energy, rel=2e-5)

        def recovery(sol):
            return np.linalg.norm(sol.coefficients - run.f) / np.linalg.norm(run.f)

        assert recovery(factored) == pytest.approx(recovery(dense), rel=1e-8)

    def test_degenerate_system(self):
        n = 4
        with pytest.raises(DegenerateSystemError):
            solve_first_kind(dense_system(np.zeros((n, n))), np.ones(n), 1e-10)

    def test_cutoff_range_checked(self):
        run, g, _ = self.run_from_chain()
        system, w = dense_system(first_kind_system(run, 0.3)), run.m_matrix @ g
        with pytest.raises(ValueError):
            solve_first_kind(system, w, 0.0)
        with pytest.raises(ValueError):
            solve_first_kind(system, w, 1.0)


class TestReduction:
    @staticmethod
    def chain_of(coefficient, depth=6, alpha=0.25, bands=3):
        space = MeasureSpace(depth)
        H = GridFunction.sample(space, coefficient)
        K = exp_kernel(space)
        seq = build_sequence(H, K, alpha, bands, 0.25, 0.5, depth_max=depth + 4)
        return seq, UnitarySurrogate.from_sequence(seq, "full")

    def test_pencil_of_another_sequence_cannot_be_formed(self):
        """A pencil of H = y^2 next to the sequence of H = y (same alpha and
        size) gave a passage residual of 0.33; the pair can no longer be formed."""
        seq, U = self.chain_of(lambda y: y)
        other_seq, other_U = self.chain_of(lambda y: y**2)
        other = reduce_problem(other_seq, other_U)
        assert other.alpha == seq.alpha == 0.25
        assert other.size == U.size == 64
        pts = probe_grid()
        phi = random_grid_function(np.random.default_rng(76), seq.space)
        with pytest.raises(TypeError):
            Reduction(seq, U, pts, phi, pencil=other)
        run = Reduction(seq, U, pts, phi)
        # replace() must be given the sequence, which the run does not keep
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(run, sequence=seq, pencil=other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            run.pencil = other
        own = reduce_problem(seq, U)
        assert np.array_equal(run.pencil.a0.toarray(), own.a0.toarray())
        assert np.array_equal(run.pencil.a, own.a)
        assert not np.array_equal(run.pencil.a0.toarray(), other.a0.toarray())
        assert verify_equivalence(run, 0.4 + 0.2j)[0].passage_residual <= 1e-9

    def test_surrogate_on_another_grid_rejected(self):
        seq, U = self.chain_of(lambda y: y)
        coarse_seq, coarse_U = self.chain_of(lambda y: y, depth=5, bands=2)
        with pytest.raises(ValueError, match="surrogate lives on another grid"):
            reduction_of(seq, coarse_U)
        coarse_phi = GridFunction(coarse_seq.space, np.ones(coarse_seq.space.cell_count))
        with pytest.raises(ValueError, match="phi lives on another grid"):
            Reduction(seq, U, probe_grid(), coarse_phi)

    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_probes_and_multiplier_over_the_pencil_basis(self, alpha):
        seq, U = self.chain_of(lambda y: y, depth=5, alpha=alpha, bands=2)
        run = Reduction(seq, U, probe_grid(6.0, 9), random_grid_function(np.random.default_rng(1), seq.space))
        assert run.probes.basis == run.pencil.basis
        np.testing.assert_array_equal(run.probes.points, probe_grid(6.0, 9))
        if alpha != 0:
            assert run.m_matrix is None
        else:
            np.testing.assert_array_equal(
                run.m_matrix, multiplier_matrix(run.pencil.basis)
            )


def rank_one_kernel(space):
    """K(x, y) = (2x + 1/2) exp(-3y/2): left != right, so K is not symmetric."""
    spec = {
        "kind": "rank_one",
        "left": {"kind": "linear", "scale": 2.0, "offset": 0.5},
        "right": {"kind": "exp", "scale": -1.5},
    }
    return make_kernel(spec, space)


class TestBiCarleman:
    """Both Carleman sides of a pencil kernel that is not symmetric; on the
    benchmark's exp(x y) pencil, D(lambda) is complex symmetric and the
    column side equals the row side."""

    @pytest.fixture(scope="class")
    def pencil_kernel(self):
        _, _, seq, U = build_chain(6, 0.25, rank_one_kernel)
        run = reduction_of(seq, U)
        return run.pencil.pencil_kernel(0.4 + 0.2j), run.probes

    def test_column_side_differs_from_row_side(self, pencil_kernel):
        pk, probes = pencil_kernel
        assert pk.matrix.shape == (64, 64)
        row = np.linalg.norm(carleman(pk, "row", 0, probes), axis=0)
        column = np.linalg.norm(carleman(pk, "column", 0, probes), axis=0)
        # measured 0.053 at the largest gap, with both sups near 0.70
        assert np.max(np.abs(column - row)) >= 0.02

    @pytest.mark.parametrize("x", [-1.3, 0.2, 2.6])
    def test_each_side_against_quadrature(self, pencil_kernel, x):
        # ||T(x, .)||^2 and ||T(., x)||^2, integrated over [-20, 20], where
        # every u_n with n < 64 has decayed
        pk, _ = pencil_kernel
        grid = ProbeGrid(pk.basis, [x])
        row = np.linalg.norm(carleman(pk, "row", 0, grid)[:, 0])
        column = np.linalg.norm(carleman(pk, "column", 0, grid)[:, 0])
        over_t, _ = quad(lambda t: abs(eval_kernel(pk, 0, 0, x, t)) ** 2, -20, 20, limit=400)
        over_s, _ = quad(lambda s: abs(eval_kernel(pk, 0, 0, s, x)) ** 2, -20, 20, limit=400)
        assert row**2 == pytest.approx(over_t, abs=1e-6)
        assert column**2 == pytest.approx(over_s, abs=1e-6)


def reduction_of(seq, U, phi=None):
    """The run's lambda-free data over the default probe grid (41 points on
    [-8, 8]), for the manufactured solution `phi` (0 when not given)."""
    if phi is None:
        phi = GridFunction(seq.space, np.zeros(seq.space.cell_count))
    return Reduction(seq, U, probe_grid(), phi)


class TestA0Structure:
    """A0 is held as its indicator diagonal and one block per band, and
    every matrix of the pencil formed from it is the dense A0's, bit for bit."""

    def test_reduction_holds_no_dense_a0(self, monkeypatch):
        # measured at 2.75 % of 8 N^2 B at N = 256 (blocks of 32, 16 and 8)
        _, _, seq, U = build_chain(8, alpha=0.25)
        run = reduction_of(seq, U)
        a0, n = run.pencil.a0, run.pencil.size
        assert n == 256
        assert isinstance(a0, BlockDiagonal)
        parts = (a0.rows, a0.diagonal, *(p for pair in a0.blocks for p in pair))
        assert sum(p.nbytes for p in parts) <= 0.03 * 8 * n * n
        assert np.count_nonzero(a0.toarray()) <= a0.diagonal.size + sum(
            v.size for _, v in a0.blocks
        )
        # and no report makes it dense
        dense = []
        original = BlockDiagonal.__getitem__
        monkeypatch.setattr(
            BlockDiagonal, "__getitem__", lambda self, rows: dense.append(rows) or original(self, rows)
        )
        verify_equivalence(run, 0.4 + 0.2j)
        assert dense == []

    @staticmethod
    def pencils(alpha, exact_zeros, complex_a0):
        _, _, seq, U = build_chain(6, alpha=alpha)
        pencil = reduce_problem(seq, U)
        a0, a = pencil.a0, pencil.a.copy()
        if complex_a0:
            a0 = a0.map(lambda m: m * (1 + 0.5j))
        if exact_zeros:  # inside A0's blocks and outside, in rows and columns
            rows, _ = a0.blocks[0]
            a[rows[:3], :] = 0.0
            a[:, 5:9] = 0.0
            a[rows[1], rows[2]] = 0.0
        return KernelPencil(alpha, a0, a), a0.toarray(), a

    @pytest.mark.parametrize("complex_a0", [False, True])
    @pytest.mark.parametrize("exact_zeros", [False, True])
    @pytest.mark.parametrize("lam", [0.4 - 0.3j, 0.5, 0.3 + 0.6j, 1j])
    def test_matrices_equal_those_of_the_dense_a0(self, lam, exact_zeros, complex_a0):
        pencil, a0, a = self.pencils(0.25, exact_zeros, complex_a0)
        n = pencil.size
        want = dense_difference(a0, a, lam)
        if exact_zeros:  # -lambda A holds a -0.0 that the dense add turns to +0.0
            zero = (a == 0) & (a0 == 0)
            minus = np.multiply(a[zero], -lam, dtype=complex)
            assert np.signbit(minus.real).any() or np.signbit(minus.imag).any()
            assert not np.signbit(want.real[zero]).any() and not np.signbit(want.imag[zero]).any()
        assert_same_bytes(pencil.pencil_kernel(lam).matrix, want)
        for rows in (slice(0, 16), slice(16, 40), slice(40, n)):
            assert_same_bytes(pencil.pencil_rows(lam, rows), want[rows])
        d = pencil._fortran_matrix(lam)
        assert d.flags.f_contiguous
        assert_same_bytes(d, dense_difference(a0, a, lam, "F"))
        system = pencil.system_matrix(lam)
        want = dense_difference(a0, a, lam, "F")
        want.flat[:: n + 1] += pencil.alpha
        assert system.flags.f_contiguous
        assert_same_bytes(system, want)
        # a dense A0 as one block gives the same matrices
        dense = KernelPencil(pencil.alpha, one_block(a0), a)
        assert len(dense.a0.blocks) == 1 and dense.a0.diagonal.size == 0
        assert_same_bytes(dense.system_matrix(lam), system)
        assert_same_bytes(dense.pencil_kernel(lam).matrix, pencil.pencil_kernel(lam).matrix)

    def test_dense_views(self):
        pencil, a0, _ = self.pencils(0.25, False, True)
        structure = pencil.a0
        assert structure.shape == a0.shape and structure.dtype == a0.dtype
        assert_same_bytes(structure.toarray(), a0)
        assert_same_bytes(structure.T.toarray(), np.ascontiguousarray(a0.T))
        assert_same_bytes(structure[10:50], a0[10:50])
        assert_same_bytes(structure.T[7:9], np.ascontiguousarray(a0.T[7:9]))


class TestVerifyEquivalence:
    def test_zero_solution_zero_residuals(self):
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        phi = GridFunction(seq.space, np.zeros(seq.space.cell_count))
        report, _ = verify_equivalence(reduction_of(seq, U, phi), 1.0)
        assert report.passage_residual == 0.0
        assert report.round_trip_error == 0.0

    def test_depth_six_product_kernel(self):
        _, _, seq, U = build_chain(6, alpha=0.25, kernel_factory=product_kernel)
        rng = np.random.default_rng(70)
        phi = random_grid_function(rng, seq.space)
        report, _ = verify_equivalence(reduction_of(seq, U, phi), 1.0)
        assert report.passage_residual <= 1e-9
        assert report.round_trip_error <= 1e-9
        assert report.first_kind is None

    def test_alpha_zero_adds_first_kind_section(self):
        _, _, seq, U = build_chain(6, alpha=0.0)
        rng = np.random.default_rng(71)
        phi = random_grid_function(rng, seq.space)
        report, _ = verify_equivalence(reduction_of(seq, U, phi), 0.4)
        fk = report.first_kind
        assert fk is not None
        assert fk.residual <= 1e-9
        assert fk.bound_slack <= 1e-9
        assert fk.hs_norm_pencil <= fk.carleman_sup * fk.multiplier_norm + 1e-9

    def test_report_serializes(self):
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        rng = np.random.default_rng(72)
        phi = random_grid_function(rng, seq.space)
        report, _ = verify_equivalence(reduction_of(seq, U, phi), 0.2)
        d = report.to_dict()
        for key in (
            "passage_residual",
            "round_trip_error",
            "condition",
            "hs_norm",
            "carleman_sup",
            "tail_sup",
            "discarded_energy",
        ):
            assert key in d

    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_report_keys_in_written_order(self, alpha):
        """The report JSON keeps its key order; `first_kind` comes last and
        only when alpha = 0."""
        _, _, seq, U = build_chain(5, alpha=alpha, bands=2)
        rng = np.random.default_rng(75)
        phi = random_grid_function(rng, seq.space)
        d = verify_equivalence(reduction_of(seq, U, phi), 0.2)[0].to_dict()
        keys = [
            "passage_residual",
            "round_trip_error",
            "condition",
            "hs_norm",
            "carleman_sup",
            "tail_sup",
            "discarded_energy",
            "projected",
        ]
        if alpha != 0:
            assert list(d) == keys
            return
        assert list(d) == keys + ["first_kind"]
        assert list(d["first_kind"]) == [
            "residual",
            "hs_norm_pencil",
            "carleman_sup",
            "multiplier_norm",
            "bound_slack",
            "coefficient_form_gap",
            "column_first_quarter_max",
            "column_last_quarter_max",
            "discarded_energy",
            "truncated_directions",
            "recovery_error",
        ]

    def test_randomized_equivalence_battery(self):
        from problem_family import build_problem_instance, random_problem_instance

        rng = np.random.default_rng(73)
        for _ in range(5):
            inst = random_problem_instance(rng, depth=int(rng.integers(6, 8)))
            _, _, seq, U = build_problem_instance(inst)
            phi = random_grid_function(rng, seq.space)
            report, _ = verify_equivalence(reduction_of(seq, U, phi), inst["lambda"])
            assert report.passage_residual <= 1e-9

    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_one_factorization_per_lambda(self, monkeypatch, alpha):
        """D = A0 - lambda A is factorized once, by the probe route, and no
        N x N SVD with vectors is made unless `factors` asks for D's, which
        then takes the route's place; with alpha = 0 D's singular values
        also give the condition and the first-kind solve takes numpy's thin
        SVD of the k x N Y, otherwise alpha I + D takes one values-only SVD."""
        _, _, seq, U = build_chain(6, alpha=alpha)
        rng = np.random.default_rng(74)
        phi = random_grid_function(rng, seq.space)
        lam = 0.4 + 0.2j
        run = reduction_of(seq, U, phi)
        calls = {"vectors": 0, "values": 0, "probes": 0, "thin": []}
        original, numpy_svd = thirdkind.blas.gesdd, np.linalg.svd
        original_probes = thirdkind.blas.gesdd_probes

        def counted(a, *, vectors):
            calls["vectors" if vectors else "values"] += 1
            return original(a, vectors=vectors)

        def probed(a, values):
            calls["probes"] += 1
            return original_probes(a, values)

        def thin(a, *args, **kwargs):
            calls["thin"].append(a.shape)
            return numpy_svd(a, *args, **kwargs)

        # every module of the package that binds the entry points
        for module in (thirdkind.kernels, thirdkind.solvers):
            monkeypatch.setattr(module, "gesdd", counted)
        monkeypatch.setattr(thirdkind.kernels, "gesdd_probes", probed)
        monkeypatch.setattr(np.linalg, "svd", thin)
        report, fact = verify_equivalence(run, lam)
        assert fact is None
        k = run.multiplied.basis.shape[1] if alpha == 0 else None
        if alpha == 0:
            assert k < run.pencil.size
            thin_calls = [(k, run.pencil.size)]
        else:
            thin_calls = []
        values = int(alpha != 0)
        assert calls == {"vectors": 0, "values": values, "probes": 1, "thin": thin_calls}
        # with factors, D's full SVD in the route's place: the same singular
        # values, so the same report but for the tail's rounding
        again, fact = verify_equivalence(run, lam, factors=True)
        monkeypatch.undo()
        assert calls["probes"] == 1 and calls["vectors"] == 1
        assert dataclasses.replace(again, tail_sup=report.tail_sup) == report
        assert again.tail_sup == pytest.approx(report.tail_sup, rel=1e-14)
        expected = thirdkind.kernels.m_factorize(run.pencil.pencil_kernel(lam).matrix)
        np.testing.assert_array_equal(fact.sigma, expected.sigma)
        # an oracle formed apart from KernelPencil.system_matrix, the report's
        n, a0, a = run.pencil.size, run.pencil.a0.toarray(), run.pencil.a
        expected = np.linalg.cond(alpha * np.eye(n) + a0 - lam * a)
        assert report.condition == pytest.approx(expected, rel=1e-12)

    def test_transient_memory_of_one_lambda(self):
        """The per-lambda transient at N = 256 is one stepwise SVD: D, ru, rvt
        and the 3 N^2 real workspace of dbdsdc (56 N^2 B) with the complex
        workspace, 60.8 N^2 B in every run. The values-only SVD of
        alpha I + D runs on the lane beside the reads of D and D's
        bidiagonalization, and D's singular vectors wait for the lane, so its
        matrix (16 N^2 B) never adds to that peak, whichever thread ends
        first; nor may any other n x n complex array alive during the SVD."""
        self.check_transient_memory(alpha=0.25, bound=64)

    def test_transient_memory_of_one_lambda_alpha_zero(self):
        """With alpha = 0 the first-kind section reads M D as Z_k Y, with Y
        k x N (k = 126 at N = 256), and solves from Y's thin SVD, so D's SVD
        is the only N x N one and sets the peak: 60.8 N^2 B, as with
        alpha != 0. A dense M D (16 N^2 B) alive during D's SVD, or an SVD
        of it, would raise it."""
        self.check_transient_memory(alpha=0.0, bound=64)

    @staticmethod
    def check_transient_memory(alpha, bound):
        _, _, seq, U = build_chain(8, alpha=alpha)
        run = reduction_of(seq, U, random_grid_function(np.random.default_rng(75), seq.space))
        n = run.pencil.size
        assert n == 256
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            verify_equivalence(run, 0.4 + 0.2j)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < bound * n * n
