"""Bilinear kernels: evaluation, Carleman sections, factorization, norms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from thirdkind import (
    BilinearKernel,
    MFactorization,
    ProbeGrid,
    SmoothBasis,
    carleman,
    eval_kernel,
    gaussian,
    hs_norm,
    m_factorize,
    multiplier_matrix,
    scale_by_multiplier,
    series_consistency,
)
from thirdkind.kernels import (
    FD_STEP,
    absolute_tail_sup,
    adjoint_column_quarter_maxima,
    coefficient_form_gap,
    finite_difference_defect,
    polar_probes,
    vanishing_at_radius,
)


def rank_one_kernel(size=4):
    a = np.zeros((size, size), dtype=complex)
    a[0, 0] = 1.0
    return BilinearKernel(a)


def random_kernel(size, seed, scale=None):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if scale is None:
        scale = 1.0 / size
    return BilinearKernel(a * scale)


class TestSynthesizeAndEval:
    def test_rank_one_at_origin(self):
        # u0(0)^2 = pi^{-1/2}
        T = rank_one_kernel()
        assert eval_kernel(T, 0, 0, 0.0, 0.0) == pytest.approx(
            math.pi**-0.5, abs=1e-14
        )

    def test_zero_matrix(self):
        T = BilinearKernel(np.zeros((3, 3)))
        s = np.linspace(-2, 2, 7)
        np.testing.assert_array_equal(eval_kernel(T, 0, 0, s, s), 0.0)

    def test_hermitian_conjugate_symmetry(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = (a + a.conj().T) / 2
        T = BilinearKernel(a)
        s = np.linspace(-3, 3, 9)
        grid = eval_kernel(T, 0, 0, s, s)
        assert np.max(np.abs(grid - grid.conj().T)) <= 1e-12

    def test_rank_one_mixed_derivative(self):
        # u0'(1) u0(0), with u0' = -s u0
        T = rank_one_kernel()
        expected = (-math.pi**-0.25 * math.exp(-0.5)) * math.pi**-0.25
        assert eval_kernel(T, 1, 0, 1.0, 0.0) == pytest.approx(expected, abs=1e-14)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="square"):
            BilinearKernel(np.zeros((3, 4)))

    def test_basis_follows_matrix_size(self):
        assert BilinearKernel(np.zeros((5, 5))).basis == SmoothBasis(5)

    def test_fd_cross_check_random_small(self):
        # scaled random coefficients keep high derivatives at unit size, so
        # the stencil's own h^2 term stays well under the 1e-5 budget
        T = random_kernel(16, seed=7)
        pts = np.linspace(-4, 4, 7)
        defects = finite_difference_defect(T, pts)
        for i, j in ((1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (3, 0)):
            assert defects[i, j] <= 1e-5

    @pytest.mark.parametrize("multiplied", [False, True])
    def test_fd_defect_all_orders_matches_each_order(self, multiplied):
        # reference: the Richardson stencil of each (i, j) at the one step,
        # built here from eval_kernel at explicitly shifted points, with no
        # shared table
        T = random_kernel(16, seed=7)
        if multiplied:
            T = scale_by_multiplier(T, multiplier_matrix(T.basis))
        pts = np.linspace(-2.5, 2.5, 5)
        defects = finite_difference_defect(T, pts)
        assert set(defects) == {(i, j) for i in range(4) for j in range(4 - i) if i or j}
        for (i, j), defect in defects.items():

            def central(h):
                if i:
                    hi = eval_kernel(T, i - 1, j, pts + h, pts)
                    lo = eval_kernel(T, i - 1, j, pts - h, pts)
                else:
                    hi = eval_kernel(T, i, j - 1, pts, pts + h)
                    lo = eval_kernel(T, i, j - 1, pts, pts - h)
                return (hi - lo) / (2 * h)

            coarse, fine = central(FD_STEP), central(FD_STEP / 2)
            exact = eval_kernel(T, i, j, pts, pts)
            reference = float(np.max(np.abs(fine + (fine - coarse) / 3 - exact)))
            # both are rounding over the step; they agree at that level
            assert abs(defect - reference) <= 1e-10
            assert defect <= 1e-5

    def test_linearity_in_coefficients(self):
        basis = SmoothBasis(5)
        rng = np.random.default_rng(32)
        a0 = rng.standard_normal((5, 5))
        a1 = rng.standard_normal((5, 5))
        lam = 0.7 - 0.2j
        s = np.linspace(-2, 2, 5)
        combo = eval_kernel(BilinearKernel(a0 - lam * a1), 0, 0, s, s)
        separate = eval_kernel(BilinearKernel(a0), 0, 0, s, s) - lam * eval_kernel(
            BilinearKernel(a1), 0, 0, s, s
        )
        assert np.max(np.abs(combo - separate)) <= 1e-12


class TestCarleman:
    def test_rank_one_row_section(self):
        T = rank_one_kernel()
        vec = carleman(T, "row", 0, ProbeGrid(T.basis, [0.0]))[:, 0]
        expected = np.zeros(4, dtype=complex)
        expected[0] = math.pi**-0.25
        np.testing.assert_allclose(vec, expected, atol=1e-14)

    def test_zero_kernel(self):
        T = BilinearKernel(np.zeros((3, 3)))
        np.testing.assert_array_equal(carleman(T, "row", 0, ProbeGrid(T.basis, [0.3])), 0.0)
        np.testing.assert_array_equal(carleman(T, "column", 2, ProbeGrid(T.basis, [-1.0])), 0.0)

    def test_row_norm_against_quadrature(self):
        # ||t(s)||^2 must equal the t-integral of |T(s, t)|^2
        T = random_kernel(6, seed=33)
        s0 = 0.4
        norm = np.linalg.norm(carleman(T, "row", 0, ProbeGrid(T.basis, [s0]))[:, 0])
        integrand = lambda t: abs(eval_kernel(T, 0, 0, s0, t)) ** 2
        expected, _ = quad(integrand, -14, 14, limit=200)
        assert norm**2 == pytest.approx(expected, abs=1e-6)

    def test_column_norm_against_quadrature(self):
        T = random_kernel(6, seed=34)
        t0 = -0.8
        norm = np.linalg.norm(carleman(T, "column", 0, ProbeGrid(T.basis, [t0]))[:, 0])
        integrand = lambda s: abs(eval_kernel(T, 0, 0, s, t0)) ** 2
        expected, _ = quad(integrand, -14, 14, limit=200)
        assert norm**2 == pytest.approx(expected, abs=1e-6)

    def test_adjoint_symmetry(self):
        # the row section (conjugation built into its definition) of A*
        # reproduces the column section of A: the basis is real-valued
        T = random_kernel(8, seed=35)
        T_star = BilinearKernel(T.matrix.conj().T)
        grid = ProbeGrid(T.basis, [0.9])
        for order in (0, 1, 2):
            col = carleman(T, "column", order, grid)
            row_star = carleman(T_star, "row", order, grid)
            assert np.max(np.abs(col - row_star)) <= 1e-12

    def test_row_derivative_is_coefficient_ladder(self):
        # differentiating the section in s only touches the u_m(s) factor
        T = random_kernel(5, seed=36)
        s0, h = 0.2, 1e-5
        hi, lo = carleman(T, "row", 0, ProbeGrid(T.basis, [s0 + h, s0 - h])).T
        fd = (hi - lo) / (2 * h)
        exact = carleman(T, "row", 1, ProbeGrid(T.basis, [s0]))[:, 0]
        assert np.max(np.abs(fd - exact)) <= 1e-7

    @pytest.mark.parametrize("multiplied", [False, True])
    def test_grid_columns_are_pointwise_sections(self, multiplied):
        # column k of a grid's sections is the section at point k alone
        T = random_kernel(8, seed=37)
        if multiplied:
            T = scale_by_multiplier(T, multiplier_matrix(T.basis))
        xs = [-2.0, -0.3, 0.0, 1.7]
        for side in ("row", "column"):
            for order in (0, 1, 2):
                sections = carleman(T, side, order, ProbeGrid(T.basis, xs))
                assert sections.shape == (8, 4)
                for k, x in enumerate(xs):
                    alone = carleman(T, side, order, ProbeGrid(T.basis, [x]))[:, 0]
                    np.testing.assert_allclose(sections[:, k], alone, rtol=0, atol=1e-13)

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            carleman(rank_one_kernel(), "diagonal", 0, ProbeGrid(SmoothBasis(4), [0.0]))


class TestMFactorization:
    def test_identity(self):
        W, V = m_factorize(np.eye(3, dtype=complex)).polar_factors()
        np.testing.assert_allclose(W, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(V, np.eye(3), atol=1e-14)

    def test_rank_deficient_diagonal(self):
        W, V = m_factorize(np.diag([2.0, 0.0]).astype(complex)).polar_factors()
        s2 = math.sqrt(2.0)
        np.testing.assert_allclose(W, np.diag([s2, 0.0]), atol=1e-14)
        np.testing.assert_allclose(V, np.diag([s2, 0.0]), atol=1e-14)
        np.testing.assert_allclose(W @ V.conj().T, np.diag([2.0, 0.0]), atol=1e-14)

    def test_random_reconstruction(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        W, V = m_factorize(a).polar_factors()
        assert np.linalg.norm(W @ V.conj().T - a, "fro") <= 1e-10 * np.linalg.norm(
            a, "fro"
        )

    def test_factors_positive_semidefinite(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        W, V = m_factorize(a).polar_factors()
        for product in (W @ W.conj().T, V @ V.conj().T):
            eigs = np.linalg.eigvalsh((product + product.conj().T) / 2)
            assert eigs.min() >= -1e-12

    def test_zero_matrix(self):
        W, V = m_factorize(np.zeros((4, 4))).polar_factors()
        np.testing.assert_array_equal(W @ V.conj().T, 0.0)

    def test_condition_matches_numpy(self):
        rng = np.random.default_rng(56)
        a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        assert m_factorize(a).condition == pytest.approx(np.linalg.cond(a), rel=1e-12)

    def test_condition_of_singular_and_zero_is_inf(self):
        singular = np.diag([2.0, 1.0, 0.0])
        assert np.linalg.cond(singular) == math.inf
        assert m_factorize(singular).condition == math.inf
        assert np.linalg.cond(np.zeros((3, 3))) == math.inf
        assert m_factorize(np.zeros((3, 3))).condition == math.inf

    def test_condition_keeps_nan(self):
        # an SVD of a NaN matrix does not converge, for cond and here alike
        nan_matrix = np.full((3, 3), np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cond(nan_matrix)
        with pytest.raises(np.linalg.LinAlgError):
            m_factorize(nan_matrix)
        # NaN singular values give NaN, not the inf of 0/0
        F = m_factorize(np.eye(3))
        nan_fact = MFactorization(u=F.u, sigma=np.full(3, np.nan), vh=F.vh, rank=3)
        assert math.isnan(nan_fact.condition)

    @pytest.mark.parametrize("rank", [16, 5, 0])
    def test_probe_values_match_explicit_factors(self, rank):
        rng = np.random.default_rng(57)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a = a[:, :rank] @ a[:rank, :]
        F = m_factorize(a)
        assert F.rank == rank
        W, V = F.polar_factors()
        u = SmoothBasis(16).value_matrix(0, np.linspace(-4, 4, 9))
        np.testing.assert_allclose(F.w_values(u), W.T @ u, rtol=0, atol=1e-13)
        np.testing.assert_allclose(F.v_values(u), V.T @ u, rtol=0, atol=1e-13)


class TestSeriesConsistency:
    def test_rank_one_exact(self):
        T = rank_one_kernel()
        W, V = m_factorize(T.matrix).polar_factors()
        chk = series_consistency(T, W, V, 0, 0, 0.5, -0.5)
        assert chk.direct == pytest.approx(chk.via_factorization, abs=1e-15)

    def test_random_hermitian(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (a + a.conj().T) / 2
        T = BilinearKernel(a)
        W, V = m_factorize(a).polar_factors()
        chk = series_consistency(T, W, V, 0, 0, 0.3, -0.7)
        assert abs(chk.direct - chk.via_factorization) <= 1e-10

    def test_partial_sums_monotone_and_bounded(self):
        T = random_kernel(8, seed=44, scale=1.0)
        W, V = m_factorize(T.matrix).polar_factors()
        chk = series_consistency(T, W, V, 1, 1, 0.2, 0.9)
        sums = chk.abs_partial_sums
        assert np.all(np.diff(sums) >= 0)
        assert sums[-1] >= abs(chk.direct)


class TestMultiplierKernels:
    def test_pointwise_value_at_origin(self):
        T = rank_one_kernel()
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        assert eval_kernel(G, 0, 0, 0.0, 0.0) == pytest.approx(
            math.pi**-0.5, abs=1e-13
        )

    def test_hs_norm_bounded_by_carleman_sup(self):
        # double integral of |m T|^2 <= sup ||t(s)||^2 ||m||^2, ||m||^2 = sqrt(pi)
        T = random_kernel(8, seed=46)
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        s = np.linspace(-8, 8, 161)
        sup = float(np.max(np.linalg.norm(carleman(T, "row", 0, ProbeGrid(T.basis, s)), axis=0)))
        assert hs_norm(G) <= sup * math.pi**0.25 + 1e-12

    def test_leibniz_derivative_fd(self):
        T = random_kernel(8, seed=47)
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        pts = np.linspace(-2, 2, 5)
        defects = finite_difference_defect(G, pts)
        for i, j in ((1, 0), (2, 0), (1, 1), (2, 1)):
            assert defects[i, j] <= 1e-5

    def test_row_section_has_multiplier_factor(self):
        T = random_kernel(6, seed=48)
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        s0 = ProbeGrid(T.basis, [0.6])
        np.testing.assert_allclose(
            carleman(G, "row", 0, s0),
            float(gaussian(0, 0.6)) * carleman(T, "row", 0, s0),
            atol=1e-13,
        )

    def test_column_section_uses_coefficient_form(self):
        T = random_kernel(6, seed=49)
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        t0 = ProbeGrid(T.basis, [-0.4])
        np.testing.assert_allclose(
            carleman(G, "column", 0, t0),
            M @ carleman(T, "column", 0, t0),
            atol=1e-13,
        )

    def test_coefficient_form_gap_reported(self):
        T = random_kernel(6, seed=50)
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        s = np.linspace(-3, 3, 11)
        probes = ProbeGrid(T.basis, s)
        gap = coefficient_form_gap(G, probes, probes)
        assert gap >= 0.0
        assert coefficient_form_gap(T, probes, probes) == 0.0
        # against the two pointwise evaluations
        via_coeff = eval_kernel(BilinearKernel(M @ T.matrix), 0, 0, s, s)
        expected = float(np.max(np.abs(eval_kernel(G, 0, 0, s, s) - via_coeff)))
        assert gap == pytest.approx(expected, rel=1e-12)

    def test_double_multiplier_rejected(self):
        T = random_kernel(4, seed=51)
        M = multiplier_matrix(T.basis)
        G = scale_by_multiplier(T, M)
        with pytest.raises(ValueError):
            scale_by_multiplier(G, M)


class TestHsNorm:
    def test_single_coefficient(self):
        a = np.zeros((3, 3), dtype=complex)
        a[1, 2] = 0.25 - 0.5j
        assert hs_norm(BilinearKernel(a)) == pytest.approx(
            abs(a[1, 2]), abs=1e-15
        )

    def test_identity_matrix(self):
        n = 7
        assert hs_norm(BilinearKernel(np.eye(n))) == pytest.approx(
            math.sqrt(n), abs=1e-14
        )

    def test_against_double_quadrature(self):
        # Gauss-Legendre product rule on [-8, 8]^2, independent of the
        # coefficient-space route
        T = random_kernel(4, seed=52)
        nodes, weights = np.polynomial.legendre.leggauss(120)
        x = 8.0 * nodes
        w = 8.0 * weights
        grid = eval_kernel(T, 0, 0, x, x)
        integral = float(np.einsum("i,ij,j->", w, np.abs(grid) ** 2, w))
        assert hs_norm(T) ** 2 == pytest.approx(integral, abs=1e-4)


class TestProbes:
    def test_vanishing_at_radius(self):
        # read at the radius 8 + sqrt(2N), from samples and row sections there
        T = random_kernel(16, seed=53, scale=1.0)
        edges = np.array([-1.0, 1.0]) * (8.0 + math.sqrt(2.0 * 16))
        probe = np.linspace(-8, 8, 9)
        sections = carleman(T, "row", 0, ProbeGrid(T.basis, edges))
        expected = max(
            np.max(np.abs(eval_kernel(T, 0, 0, edges, probe))),
            np.max(np.abs(eval_kernel(T, 0, 0, probe, edges))),
            np.max(np.linalg.norm(sections, axis=0)),
        )
        assert vanishing_at_radius(T, probe) == pytest.approx(expected, rel=1e-12)
        assert 0 < expected < 1e-8

    def test_tail_sup_nonnegative_and_small_for_rank_one(self):
        T = rank_one_kernel(8)
        probes = ProbeGrid(T.basis, np.linspace(-4, 4, 9))
        fact = m_factorize(T.matrix)
        polar = polar_probes(np.array(T.matrix, order="F"), probes)
        # all the mass sits in the first factor pair, so the tail is zero
        for w_vals, v_vals in (
            (fact.w_values(probes.values), fact.v_values(probes.values)),
            (polar.w_values, polar.v_values),
        ):
            assert absolute_tail_sup(w_vals, v_vals) == pytest.approx(0.0, abs=1e-15)

    def test_tail_sup_matches_pairwise_sum(self):
        # reference: sum over the tail of |w_n(s) conj(v_n(t))| for each pair,
        # from the explicit factors W, V; full rank, rank 5 of 16, and zero
        T = random_kernel(16, seed=55, scale=1.0)
        s = np.linspace(-5, 5, 11)
        t = np.linspace(-4, 6, 7)
        u_s = T.basis.value_matrix(0, s).astype(complex)
        u_t = T.basis.value_matrix(0, t).astype(complex)
        for a in (T.matrix, T.matrix[:, :5] @ T.matrix[:5, :], np.zeros((16, 16))):
            fact = m_factorize(a)
            W, V = fact.polar_factors()
            w_vals = W.T @ u_s
            v_vals = V.T @ u_t
            tail = np.abs(w_vals[8:, :, None] * np.conj(v_vals[8:, None, :]))
            expected = float(np.max(np.sum(tail, axis=0)))
            got = absolute_tail_sup(fact.w_values(u_s.real), fact.v_values(u_t.real))
            assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_grid_holds_basis_values_at_its_points(self):
        basis = SmoothBasis(12)
        probes = ProbeGrid(basis, [-1.5, 0.0, 2.0])
        assert probes.points.dtype == np.float64
        np.testing.assert_array_equal(probes.values, basis.value_matrix(0, probes.points))

    def test_grid_over_another_basis_rejected(self):
        T = random_kernel(8, seed=58)
        G = scale_by_multiplier(T, multiplier_matrix(T.basis))
        own = ProbeGrid(T.basis, np.linspace(-3, 3, 5))
        other = ProbeGrid(SmoothBasis(9), np.linspace(-3, 3, 5))
        for side in ("row", "column"):
            with pytest.raises(ValueError, match="probe grid"):
                carleman(T, side, 0, other)
        for s, t in ((own, other), (other, own)):
            with pytest.raises(ValueError, match="probe grid"):
                coefficient_form_gap(G, s, t)
        with pytest.raises(ValueError, match="probe grid"):
            polar_probes(np.array(T.matrix, order="F"), other)

    def test_adjoint_column_decay_for_damped_products(self):
        rng = np.random.default_rng(54)
        basis = SmoothBasis(32)
        M = multiplier_matrix(basis)
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        first, last = adjoint_column_quarter_maxima(M @ a)
        assert last < first
