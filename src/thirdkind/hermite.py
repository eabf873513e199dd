"""Smooth orthonormal image basis on the real line, with exact derivatives.

The family is the Hermite functions u_n(s) = c_n H_n(s) exp(-s^2/2):
orthonormal in L2(R), infinitely differentiable, and vanishing at infinity
together with all derivatives. Values follow the stable two-term recurrence

    u_0 = pi^(-1/4) exp(-s^2/2),  u_1 = sqrt(2) s u_0,
    u_{n+1} = sqrt(2/(n+1)) s u_n - sqrt(n/(n+1)) u_{n-1},

and derivatives use the exact ladder u_n' = sqrt(n/2) u_{n-1}
- sqrt((n+1)/2) u_{n+1}, applied in coefficient space; no numerical
differentiation anywhere.

The module also houses the positive multiplier m used to pass from the
second-kind to the first-kind form, the Gaussian m(s) = exp(-s^2/2)
(= pi^(1/4) u_0, which makes its derivatives free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def hermite_function_values(count: int, s) -> np.ndarray:
    """Values of u_0 .. u_{count-1} at the points s, shape (count, *s.shape)."""
    s = np.asarray(s, dtype=np.float64)
    out = np.empty((count,) + s.shape)
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * s * s)
    if count > 1:
        out[1] = math.sqrt(2.0) * s * out[0]
    for n in range(1, count - 1):
        out[n + 1] = (
            math.sqrt(2.0 / (n + 1)) * s * out[n]
            - math.sqrt(n / (n + 1.0)) * out[n - 1]
        )
    return out


def derivative_coefficients(count: int, order: int) -> np.ndarray:
    """Expansion of u_n^(order) in the basis, rows n < count, cols m < count+order.

    One application of the ladder sends coefficients c to
    c'[k] = sqrt((k+1)/2) c[k+1] - sqrt(k/2) c[k-1].
    """
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


@dataclass(frozen=True)
class SmoothBasis:
    """Truncated orthonormal basis {u_n : n < size} of L2(R)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("basis size must be >= 1")

    def value_matrix(self, order: int, s) -> np.ndarray:
        """Matrix of u_n^(order)(s_j), shape (size, len(s))."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        pts = np.atleast_1d(np.asarray(s, dtype=np.float64))
        if order == 0:
            return hermite_function_values(self.size, pts)
        coef = derivative_coefficients(self.size, order)
        return coef @ hermite_function_values(self.size + order, pts)


# ||m|| in L2: (integral of e^{-s^2})^(1/2) = pi^(1/4)
GAUSSIAN_L2_NORM = math.pi ** 0.25


def gaussian(order: int, s) -> np.ndarray:
    """order-th derivative of the multiplier m(s) = exp(-s^2/2) at s.

    Positive, square integrable, and all derivatives vanish at infinity.
    Since m equals pi^(1/4) u_0, its derivatives are row 0 of the basis's
    value matrix; the result has the shape of s.
    """
    s = np.asarray(s, dtype=np.float64)
    if order == 0:
        return np.exp(-0.5 * s * s)
    row = SmoothBasis(1).value_matrix(order, s.ravel())[0]
    return GAUSSIAN_L2_NORM * row.reshape(s.shape)


def multiplier_matrix(basis: SmoothBasis) -> np.ndarray:
    """Coefficient matrix M_pq = integral of m(s) u_q(s) u_p(s) ds, exactly.

    The generating function of integral e^{-3s^2/2} H_p H_q yields
    M_00 = sqrt(2/3), M_0,q+1 = -(1/3) sqrt(q) M_0,q-1 / sqrt(q+1) and
    M_p+1,q = ((2/3) sqrt(q) M_p,q-1 - (1/3) sqrt(p) M_p-1,q) / sqrt(p+1),
    applied row by row. Every entry lies in [-1, 1], so nothing overflows.
    """
    n = basis.size
    M = np.zeros((n, n))
    M[0, 0] = math.sqrt(2.0 / 3.0)
    for q in range(1, n - 1, 2):
        M[0, q + 1] = -math.sqrt(q / (q + 1.0)) * M[0, q - 1] / 3.0
    sqrt_q = np.sqrt(np.arange(1.0, n))
    for p in range(n - 1):
        M[p + 1, 1:] = (2.0 / 3.0) * sqrt_q * M[p, :-1]
        if p:
            M[p + 1] -= (math.sqrt(p) / 3.0) * M[p - 1]
        M[p + 1] /= math.sqrt(p + 1.0)
    return M
