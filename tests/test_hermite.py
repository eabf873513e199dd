"""Smooth basis values, exact derivatives, and the multiplier matrix."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from thirdkind import (
    GAUSSIAN_L2_NORM,
    SmoothBasis,
    gaussian,
    multiplier_matrix,
)
from thirdkind.hermite import hermite_function_values
from thirdkind.measure import row_blocks


def hermite_closed_form(n, x):
    """Independent route: physicists' polynomial with the textbook norm."""
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return eval_hermite(n, x) * np.exp(-0.5 * x * x) / norm


def derivative_coefficients(count, order):
    """Dense reference ladder: the expansion of u_n^(order) in the basis, rows
    n < count, columns m < count + order. One application sends coefficients
    c to c'[k] = sqrt((k+1)/2) c[k+1] - sqrt(k/2) c[k-1]."""
    width = count + order
    coef = np.eye(count, width)
    idx = np.arange(width, dtype=np.float64)
    up = np.sqrt((idx + 1.0) / 2.0)
    down = np.sqrt(idx / 2.0)
    for _ in range(order):
        nxt = np.zeros_like(coef)
        nxt[:, :-1] = coef[:, 1:] * up[:-1]
        nxt[:, 1:] -= coef[:, :-1] * down[1:]
        coef = nxt
    return coef


def basis_value(n, order, s):
    """u_n^(order) at the points s: row n of the value matrix."""
    return SmoothBasis(n + 1).value_matrix(order, s)[n]


class TestBasisValue:
    def test_ground_state_at_origin(self):
        assert basis_value(0, 0, 0.0)[0] == pytest.approx(math.pi**-0.25, abs=1e-15)

    def test_ground_state_derivative(self):
        # u0'(s) = -s u0(s)
        expected = -math.pi**-0.25 * math.exp(-0.5)
        assert basis_value(0, 1, 1.0)[0] == pytest.approx(expected, abs=1e-15)

    def test_first_state_odd(self):
        assert basis_value(1, 0, 0.0)[0] == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 12])
    def test_matches_closed_form(self, n):
        s = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(
            basis_value(n, 0, s), hermite_closed_form(n, s), atol=1e-12
        )

    def test_derivative_consistency_fd(self):
        # central differences track the exact ladder to 1e-6 for n < 16,
        # i < 3, |s| <= 4; the step keeps the stencil's own h^2 truncation
        # term (roughly h^2 |u^(i+3)| / 6, up to ~1.8e3 here) below that
        s = np.linspace(-4, 4, 17)
        h = 2e-5
        basis = SmoothBasis(16)
        for i in range(3):
            fd = (basis.value_matrix(i, s + h) - basis.value_matrix(i, s - h)) / (2 * h)
            exact = basis.value_matrix(i + 1, s)
            assert np.max(np.abs(fd - exact)) < 1e-6

    def test_tail_decay(self):
        for n in range(0, 32, 5):
            s = 8.0 + math.sqrt(2.0 * n)
            for i in range(3):
                assert np.all(np.abs(basis_value(n, i, [s, -s])) < 1e-8)

    def test_rejects_negative_orders(self):
        with pytest.raises(ValueError):
            SmoothBasis(0)
        with pytest.raises(ValueError):
            SmoothBasis(1).value_matrix(-1, 0.0)
        with pytest.raises(ValueError):
            gaussian(-1, 0.0)


class TestSmoothBasis:
    def test_value_matrix_matches_scalar_path(self):
        # a batch of points gives the columns of one point at a time
        basis = SmoothBasis(8)
        s = np.array([-1.3, 0.0, 0.7, 2.2])
        for order in (0, 1, 2):
            mat = basis.value_matrix(order, s)
            for j, point in enumerate(s):
                np.testing.assert_allclose(
                    mat[:, j], basis.value_matrix(order, point)[:, 0], atol=1e-13
                )

    @pytest.mark.parametrize("n", [64, 1024, 2048])
    def test_ladder_steps_match_the_dense_ladder(self, n):
        # every order of one recurrence against the dense reference applied
        # to a table of n + order values, out to the edge of the basis
        edge = math.sqrt(2.0 * n) + 6.0
        s = np.linspace(-edge, edge, 86)
        tables = SmoothBasis(n).value_matrices(3, s)
        np.testing.assert_array_equal(tables[0], hermite_function_values(n, s))
        for order in (1, 2, 3):
            dense = derivative_coefficients(n, order) @ hermite_function_values(n + order, s)
            np.testing.assert_array_equal(tables[order], SmoothBasis(n).value_matrix(order, s))
            assert np.max(np.abs(tables[order] - dense)) <= 1e-15 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [16, 128, 256])
    def test_orthonormal_by_quadrature(self, n):
        # independent route: the trapezoid rule on [-40, 40] at step 0.05,
        # where every u_k with k < 256 is negligible at the ends
        s = np.arange(-800, 801) * 0.05
        values = hermite_function_values(n, s)
        weights = np.full(s.size, 0.05)
        weights[[0, -1]] = 0.025
        gram = (values * weights) @ values.T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def plain_recurrence(count, s, dtype=np.float64):
    """The two-term recurrence seeded with pi^(-1/4) exp(-s^2/2), in `dtype`."""
    s = np.asarray(s, dtype=dtype)
    out = np.empty((count,) + s.shape, dtype=dtype)
    out[0] = np.asarray(math.pi, dtype=dtype) ** dtype(-0.25) * np.exp(-s * s / 2)
    out[1] = np.sqrt(dtype(2)) * s * out[0]
    for n in range(1, count - 1):
        out[n + 1] = (
            np.sqrt(dtype(2) / (n + 1)) * s * out[n] - np.sqrt(dtype(n) / (n + 1)) * out[n - 1]
        )
    return out


class TestValuesOnR:
    """The seed exp(-s^2/2) is subnormal beyond |s| of about 37.6 and 0 beyond
    38.6, while u_n with n near s^2/2 is of order 1 there."""

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_indritz_bound_out_to_the_edge(self, n):
        # |u_n(s)| <= pi^(-1/4) for every n and s (Indritz, Proc. AMS 12, 1961);
        # the unscaled seed read 0.948 at s = 38.603
        edge = math.sqrt(2.0 * n) + 6.0
        s = np.concatenate([np.linspace(0, edge, 1200), np.linspace(37, 39, 2001)])
        values = hermite_function_values(n, s)
        assert np.max(np.abs(values)) <= math.pi**-0.25
        assert np.all(np.max(np.abs(values), axis=0) > 0)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).minexp > -16000, reason="long double has no wider exponent range"
    )
    @pytest.mark.parametrize("n", [1024, 2048])
    def test_matches_an_extended_range_recurrence(self, n):
        # np.longdouble holds the seed out to |s| of about 150. The agreement at
        # each point is relative to the largest |u_n| there; the double rounding
        # of s^2/2 alone moves every value at |s| = 50 by about 1e-13
        edge = math.sqrt(2.0 * n) + 6.0
        s = np.concatenate([np.linspace(0, edge, 600), np.linspace(37, 39, 201)])
        got = hermite_function_values(n, s)
        ref = plain_recurrence(n, s, np.longdouble)
        scale = np.max(np.abs(ref), axis=0).astype(np.float64)
        assert np.all(np.max(np.abs(got - ref), axis=0).astype(np.float64) <= 1e-12 * scale)

    def test_plain_recurrence_where_the_seed_is_normal(self):
        # the scaled path is taken only where the seed is subnormal or 0
        s = np.linspace(-37.5, 37.5, 301)
        np.testing.assert_array_equal(hermite_function_values(300, s), plain_recurrence(300, s))

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_every_order_vanishes_at_infinity(self, order):
        # u_n^(k)(+-inf) = 0, and at points too large to square (1e200) too,
        # with no overflow or invalid-value warning; the finite points beside
        # them keep the bits they have alone
        finite = np.array([0.5, -3.0, 40.0, -1e5])
        s = np.array([np.inf, 0.5, -np.inf, -3.0, 1e200, 40.0, -1e300, -1e5])
        basis = SmoothBasis(64)
        values = basis.value_matrix(order, s)
        np.testing.assert_array_equal(values[:, [0, 2, 4, 6]], 0.0)
        np.testing.assert_array_equal(values[:, [1, 3, 5, 7]], basis.value_matrix(order, finite))


class TestMultiplier:
    def test_gaussian_value_and_positivity(self):
        s = np.linspace(-6, 6, 25)
        np.testing.assert_allclose(gaussian(0, s), np.exp(-0.5 * s * s))
        assert np.all(gaussian(0, s) > 0)

    def test_derivatives_vanish_at_infinity(self):
        for order in range(4):
            assert abs(float(gaussian(order, 9.0))) < 1e-8

    def test_derivative_fd(self):
        s = np.linspace(-3, 3, 13)
        h = 1e-5
        for order in range(3):
            fd = (gaussian(order, s + h) - gaussian(order, s - h)) / (2 * h)
            np.testing.assert_allclose(fd, gaussian(order + 1, s), atol=1e-8)

    def test_l2_norm(self):
        assert GAUSSIAN_L2_NORM == pytest.approx(math.pi**0.25, abs=1e-15)


class TestMultiplierMatrix:
    def test_corner_entry_closed_form(self):
        # integral of e^{-s^2/2} u0^2 = pi^{-1/2} integral e^{-3 s^2 / 2}
        #                             = pi^{-1/2} sqrt(2 pi / 3) = sqrt(2/3)
        basis = SmoothBasis(6)
        M = multiplier_matrix(basis)
        assert M[0, 0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-13)

    def test_odd_entry_vanishes(self):
        basis = SmoothBasis(6)
        M = multiplier_matrix(basis)
        assert abs(M[0, 1]) <= 1e-14

    def test_against_adaptive_quadrature(self):
        basis = SmoothBasis(8)
        M = multiplier_matrix(basis)
        for p, q in ((0, 0), (1, 1), (2, 4), (3, 3), (0, 6)):
            expected, _ = quad(
                lambda s, p=p, q=q: math.exp(-0.5 * s * s)
                * basis_value(p, 0, s)[0]
                * basis_value(q, 0, s)[0],
                -12,
                12,
            )
            assert M[p, q] == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self):
        M = multiplier_matrix(SmoothBasis(12))
        np.testing.assert_allclose(M, M.T, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    def test_recurrence_matches_gauss_hermite_oracle(self, n):
        # independent route: Gauss-Hermite quadrature of the orthonormal
        # Hermite polynomials, exact for these degrees; its weights stay
        # finite only for moderate node counts, hence n <= 128
        nodes, weights = np.polynomial.hermite.hermgauss(2 * n + 64)
        h = np.empty((n, nodes.size))
        h[0] = math.pi**-0.25
        h[1] = math.sqrt(2.0) * nodes * h[0]
        for k in range(1, n - 1):
            h[k + 1] = (
                math.sqrt(2.0 / (k + 1)) * nodes * h[k] - math.sqrt(k / (k + 1.0)) * h[k - 1]
            )
        assert np.max(np.abs((h * weights) @ h.T - np.eye(n))) <= 1e-10
        oracle = (h * (weights * np.exp(-0.5 * nodes**2))) @ h.T
        M = multiplier_matrix(SmoothBasis(n))
        assert np.max(np.abs(M - oracle)) <= 1e-14

    @pytest.mark.parametrize("n", [256, 1024])
    def test_large_sizes_finite_symmetric_contractive(self, n):
        # the quadrature this replaced returned NaN from n = 256 on
        M = multiplier_matrix(SmoothBasis(n))
        assert np.all(np.isfinite(M))
        np.testing.assert_allclose(M, M.T, rtol=0, atol=1e-14)
        spectrum = np.linalg.eigvalsh(M)
        assert spectrum[0] >= -1e-14
        assert spectrum[-1] < 1.0

    @pytest.mark.parametrize(
        "n",
        [
            3072,
            pytest.param(4096, marks=pytest.mark.xfail(
                strict=True,
                reason="ROADMAP item 2: the row recurrence loses symmetry at N = 4096 "
                "(max |M - M^T| = 4.95e-3)",
            )),
        ],
    )
    def test_symmetric_at_depth(self, n):
        """M is a Gram matrix, so symmetric: max |M - M^T| read 9.0e-17 at
        N = 3072. The difference is formed a block of rows at a time, so that
        besides M only one block of it is alive."""
        M = multiplier_matrix(SmoothBasis(n))
        gap = max(float(np.max(np.abs(M[rows] - M[:, rows].T))) for rows in row_blocks(n))
        assert gap <= 1e-16
