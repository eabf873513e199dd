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


def hermite_closed_form(n, x):
    """Independent route: physicists' polynomial with the textbook norm."""
    norm = math.sqrt(2.0**n * math.factorial(n) * math.sqrt(math.pi))
    return eval_hermite(n, x) * np.exp(-0.5 * x * x) / norm


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
