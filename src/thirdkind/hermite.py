"""Smooth orthonormal image basis on the real line, with exact derivatives.

The family is the Hermite functions u_n(s) = c_n H_n(s) exp(-s^2/2):
orthonormal in L2(R), infinitely differentiable, and vanishing at infinity
together with all derivatives. Values follow the stable two-term recurrence

    u_0 = pi^(-1/4) exp(-s^2/2),  u_1 = sqrt(2) s u_0,
    u_{n+1} = sqrt(2/(n+1)) s u_n - sqrt(n/(n+1)) u_{n-1},

and derivatives use the exact ladder u_n' = sqrt(n/2) u_{n-1}
- sqrt((n+1)/2) u_{n+1}, a banded step on a table of values: one
recurrence of size + order rows, then one step per order, each row n
reading rows n - 1 and n + 1; no numerical differentiation anywhere.

The module also houses the positive multiplier m used to pass from the
second-kind to the first-kind form, the Gaussian m(s) = exp(-s^2/2)
(= pi^(1/4) u_0, which makes its derivatives free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


# log(2) in two parts, as fdlibm splits it: k * _LN2_HI is exact for |k| < 2^21
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10


def hermite_function_values(count: int, s) -> np.ndarray:
    """Values of u_0 .. u_{count-1} at the points s, shape (count, *s.shape).

    Where the seed u_0 is subnormal or 0 (|s| above about 37.6), the
    recurrence runs on u_n 2^-e with an integer exponent e per point (Bunck,
    BIT 49, 2009): e starts from -s^2/2 in base 2 and grows by 500 whenever
    a scaled value passes 2^500, and ldexp unscales each row. Elsewhere e is
    0 and the values are the plain recurrence's, bit for bit. Every u_n
    with n below 10^7 underflows to 0 beyond |s| = 2^15, so the points there,
    +-inf among them, take the values at +-2^15: 0.
    """
    s = np.clip(np.asarray(s, dtype=np.float64), -(2.0**15), 2.0**15)
    x = -0.5 * s * s
    cur = math.pi ** -0.25 * np.exp(x)
    far = cur < np.finfo(np.float64).tiny
    scaled = bool(np.any(far))
    e = np.zeros(s.shape, dtype=np.int64)
    if scaled:
        e = np.where(far, np.floor(x / math.log(2.0)), 0.0).astype(np.int64)
        cur = np.where(far, math.pi ** -0.25 * np.exp((x - e * _LN2_HI) - e * _LN2_LO), cur)
    prev = np.zeros_like(cur)
    out = np.empty((count,) + s.shape)
    for n in range(count):
        if n:
            prev, cur = cur, math.sqrt(2.0 / n) * s * cur - math.sqrt((n - 1.0) / n) * prev
        if scaled:
            big = np.abs(cur) > 2.0**500
            if big.any():
                cur, prev = (np.where(big, v * 2.0**-500, v) for v in (cur, prev))
                e = e + 500 * big
        out[n] = np.ldexp(cur, e) if scaled else cur
    return out


def ladder_step(values: np.ndarray) -> np.ndarray:
    """One derivative order of a value table: from rows n <= count of
    u_n^(k) at some points (a 2-d array), rows n < count of u_n^(k+1), by
    the ladder u_n' = sqrt(n/2) u_{n-1} - sqrt((n+1)/2) u_{n+1}."""
    n = np.arange(values.shape[0] - 1, dtype=np.float64)[:, None]
    up = np.sqrt((n + 1.0) / 2.0)
    down = np.sqrt(n / 2.0)
    out = -up * values[1:]
    out[1:] += down[1:] * values[:-2]
    return out


@dataclass(frozen=True)
class SmoothBasis:
    """Truncated orthonormal basis {u_n : n < size} of L2(R)."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("basis size must be >= 1")

    def value_matrix(self, order: int, s) -> np.ndarray:
        """Matrix of u_n^(order)(s_j), shape (size, len(s))."""
        return self.value_matrices(order, s)[order]

    def value_matrices(self, top: int, s) -> list[np.ndarray]:
        """[value_matrix(k, s) for k = 0 .. top], from one recurrence of
        size + top rows and `top` successive ladder steps."""
        if top < 0:
            raise ValueError("derivative order must be >= 0")
        pts = np.atleast_1d(np.asarray(s, dtype=np.float64))
        tables = [hermite_function_values(self.size + top, pts)]
        for _ in range(top):
            tables.append(ladder_step(tables[-1]))
        return [table[: self.size] for table in tables]


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
