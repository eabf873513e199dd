"""Bilinear-series kernels over the smooth basis, with exact calculus.

A kernel here is T(s, t) = sum_{m,n} a_mn u_m(s) conj(u_n(t)), carried by
its coefficient matrix. Every partial derivative and both Carleman section
maps evaluate through the exact derivative ladder of the basis. Multiplier
kernels G(s, t) = m(s) T(s, t) keep both views: the pointwise form (exact)
and the coefficient form M A (truncated product expansion), used where the
Hilbert-Schmidt picture is needed.

The polar factorization A = W V* (W = U_pol P, V = P, P = |A|^(1/2))
feeds the single-index series sum_n [W u_n]^(i)(s) conj([V u_n]^(j)(t)),
whose absolute partial sums witness absolute convergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .hermite import Multiplier, SmoothBasis


@dataclass(frozen=True, eq=False)
class BilinearKernel:
    """Kernel given by a coefficient matrix over the smooth basis.

    `multiplier` is present for scaled kernels m(s) T(s, t); then
    `multiplied_matrix` holds M @ matrix for norm and operator use.
    """

    matrix: np.ndarray
    basis: SmoothBasis
    multiplier: Multiplier | None = None
    multiplied_matrix: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        n = self.basis.size
        if a.shape != (n, n):
            raise ValueError(f"coefficient matrix must be {n}x{n}, got {a.shape}")
        object.__setattr__(self, "matrix", a)
        if (self.multiplier is None) != (self.multiplied_matrix is None):
            raise ValueError("multiplier and multiplied matrix come together")
        if self.multiplied_matrix is not None:
            ma = np.asarray(self.multiplied_matrix, dtype=complex)
            if ma.shape != (n, n):
                raise ValueError("multiplied matrix has wrong shape")
            object.__setattr__(self, "multiplied_matrix", ma)

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """Matrix backing the operator view: M A for multiplier kernels."""
        return self.matrix if self.multiplied_matrix is None else self.multiplied_matrix

    def eval(self, i: int, j: int, s, t):
        return eval_kernel(self, i, j, s, t)


def synthesize(matrix: np.ndarray, basis: SmoothBasis) -> BilinearKernel:
    """Wrap a coefficient matrix as an evaluable bilinear kernel."""
    return BilinearKernel(matrix=matrix, basis=basis)


def _pair_eval(
    matrix: np.ndarray, basis: SmoothBasis, i: int, j: int, s: np.ndarray, t: np.ndarray
) -> np.ndarray:
    left = basis.value_matrix(i, s)
    right = basis.value_matrix(j, t)
    return left.T @ matrix @ np.conj(right)


def eval_kernel(kernel: BilinearKernel, i: int, j: int, s, t):
    """Partial derivative d^{i+j} T / ds^i dt^j at (s, t); scalars or 1-d arrays.

    Multiplier kernels use the Leibniz expansion
    sum_{r<=i} C(i, r) m^(i-r)(s) d^{r+j} T, with the plain kernel's exact
    derivatives inside; the order-0 case is the exact pointwise m(s) T(s, t).
    """
    if i < 0 or j < 0:
        raise ValueError("derivative orders must be >= 0")
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if kernel.multiplier is None:
        out = _pair_eval(kernel.matrix, kernel.basis, i, j, s_arr, t_arr)
    else:
        m = kernel.multiplier
        out = np.zeros((s_arr.size, t_arr.size), dtype=complex)
        for r in range(i + 1):
            weight = comb(i, r) * m.derivative(i - r, s_arr)
            out += weight[:, None] * _pair_eval(
                kernel.matrix, kernel.basis, r, j, s_arr, t_arr
            )
    return complex(out[0, 0]) if scalar else out


def carleman(kernel: BilinearKernel, side: str, order: int, x: float) -> np.ndarray:
    """Coefficient vector of a Carleman section derivative.

    Row side: the map s -> conj(T(s, .)), derivative of the given order at
    x, so component n is conj(sum_m a_mn u_m^(order)(x)). Column side: the
    map t -> T(., t), component m is sum_n a_mn conj(u_n^(order)(x)).
    Multiplier kernels use the Leibniz form on the row side and apply the
    multiplier's coefficient matrix on the column side.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if side not in ("row", "column"):
        raise ValueError("side must be 'row' or 'column'")
    basis = kernel.basis
    if kernel.multiplier is None:
        u = basis.value_matrix(order, x)[:, 0]
        if side == "row":
            return np.conj(kernel.matrix.T @ u)
        return kernel.matrix @ np.conj(u)
    if side == "column":
        u = basis.value_matrix(order, x)[:, 0]
        return kernel.multiplied_matrix @ np.conj(u)
    m = kernel.multiplier
    out = np.zeros(basis.size, dtype=complex)
    for r in range(order + 1):
        u_r = basis.value_matrix(r, x)[:, 0]
        weight = comb(order, r) * float(m.derivative(order - r, x))
        out += weight * np.conj(kernel.matrix.T @ u_r)
    return out


def carleman_norm(kernel: BilinearKernel, side: str, order: int, x: float) -> float:
    return float(np.linalg.norm(carleman(kernel, side, order, x)))


def carleman_row_norms(kernel: BilinearKernel, s: np.ndarray) -> np.ndarray:
    """||t(s_j)|| for all probe points at once (order 0)."""
    u = kernel.basis.value_matrix(0, s)
    norms = np.linalg.norm(kernel.matrix.T @ u.astype(complex), axis=0)
    if kernel.multiplier is not None:
        norms = norms * np.abs(kernel.multiplier.value(np.atleast_1d(s)))
    return norms


@dataclass(frozen=True, eq=False)
class MFactorization:
    """Factorization A = W V* with W V* reconstructing A.

    Canonical choice from the polar decomposition A = U_pol |A|: take
    P = |A|^(1/2), W = U_pol P, V = P. Then W W* = A U_pol* and V V* = |A|
    are both positive semidefinite. Rank-deficient A uses the partial
    isometry convention (U_pol vanishes on the null space).
    """

    w_factor: np.ndarray
    v_factor: np.ndarray

    def reconstruction(self) -> np.ndarray:
        return self.w_factor @ self.v_factor.conj().T


def m_factorize(matrix: np.ndarray) -> MFactorization:
    """Polar factorization A = W V* via the SVD.

    With A = U diag(sigma) V^h: |A| = V diag(sigma) V^h, the square root
    P uses sqrt(sigma) (never negative, so positivity survives rounding),
    and the partial isometry keeps only directions with sigma > 0.
    """
    a = np.asarray(matrix, dtype=complex)
    u, sigma, vh = np.linalg.svd(a)
    if sigma.size and sigma[0] > 0:
        rank = int(np.sum(sigma > max(a.shape) * np.finfo(float).eps * sigma[0]))
    else:
        rank = 0
    u_pol = u[:, :rank] @ vh[:rank, :]
    p = (vh.conj().T * np.sqrt(sigma)) @ vh
    return MFactorization(w_factor=u_pol @ p, v_factor=p)


@dataclass(frozen=True)
class SeriesCheck:
    direct: complex
    via_factorization: complex
    abs_partial_sums: np.ndarray


def series_consistency(
    kernel: BilinearKernel, fact: MFactorization, i: int, j: int, s: float, t: float
) -> SeriesCheck:
    """Compare coefficient-form evaluation against the factorized series.

    The series is sum_n [W u_n]^(i)(s) conj([V u_n]^(j)(t)); its running
    absolute partial sums are the convergence witness (nondecreasing and
    bounded). `fact` must factor the kernel's coefficient matrix; for
    multiplier kernels both sides use the coefficient form M A.
    """
    basis = kernel.basis
    u_i = basis.value_matrix(i, s)[:, 0].astype(complex)
    u_j = basis.value_matrix(j, t)[:, 0].astype(complex)
    w_vals = fact.w_factor.T @ u_i
    v_vals = np.conj(fact.v_factor.T @ u_j)
    terms = w_vals * v_vals
    direct = complex(u_i @ kernel.coefficient_matrix @ np.conj(u_j))
    return SeriesCheck(
        direct=direct,
        via_factorization=complex(np.sum(terms)),
        abs_partial_sums=np.cumsum(np.abs(terms)),
    )


def scale_by_multiplier(
    kernel: BilinearKernel, m: Multiplier, m_matrix: np.ndarray
) -> BilinearKernel:
    """Attach a multiplier: pointwise kernel m(s) T(s, t), coefficients M A.

    Pointwise evaluation stays exact; the coefficient matrix M A (a truncated
    product expansion) backs the Hilbert-Schmidt norm and the first-kind
    operator. The gap between the two views is a reportable quantity, see
    `coefficient_form_gap`.
    """
    if kernel.multiplier is not None:
        raise ValueError("kernel already carries a multiplier")
    m_matrix = np.asarray(m_matrix, dtype=complex)
    if m_matrix.shape != kernel.matrix.shape:
        raise ValueError("multiplier matrix size does not match the kernel")
    return BilinearKernel(
        matrix=kernel.matrix,
        basis=kernel.basis,
        multiplier=m,
        multiplied_matrix=m_matrix @ kernel.matrix,
    )


def coefficient_form_gap(
    kernel: BilinearKernel, s: np.ndarray, t: np.ndarray
) -> float:
    """Max |m(s) T(s,t) - (M A)-form(s,t)| over a probe grid (0 without multiplier)."""
    if kernel.multiplier is None:
        return 0.0
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    exact = eval_kernel(kernel, 0, 0, s, t)
    via_coeff = _pair_eval(kernel.multiplied_matrix, kernel.basis, 0, 0, s, t)
    return float(np.max(np.abs(exact - via_coeff)))


def hs_norm(kernel: BilinearKernel) -> float:
    """Hilbert-Schmidt norm: Frobenius norm of the coefficient matrix.

    Equals the L2 double integral of |kernel|^2 by orthonormality of the
    basis (for multiplier kernels this is the coefficient-form view M A).
    """
    return float(np.linalg.norm(kernel.coefficient_matrix, "fro"))


def probe_grid(bound: float = 8.0, points: int = 41) -> np.ndarray:
    """Uniform probe points on [-bound, bound] for sup-style diagnostics."""
    return np.linspace(-bound, bound, points)


def absolute_tail_sup(
    kernel: BilinearKernel, s: np.ndarray, t: np.ndarray, start: int | None = None
) -> float:
    """Sup over the probe grid of the absolute series tail beyond `start`.

    The series is the canonical factorized one; the default tail starts at
    n = size/2. This is the finite-truncation observable standing in for
    absolute/uniform convergence of the infinite expansion. Since
    |w conj(v)| = |w| |v|, the tail sums over all probe pairs are one real
    product |W_tail^T u_s|^T |V_tail^T u_t|.
    """
    fact = m_factorize(kernel.coefficient_matrix)
    n = kernel.basis.size
    if start is None:
        start = n // 2
    s = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    u_s = kernel.basis.value_matrix(0, s).astype(complex)
    u_t = kernel.basis.value_matrix(0, t).astype(complex)
    w_vals = fact.w_factor.T @ u_s  # (n, S)
    v_vals = fact.v_factor.T @ u_t  # (n, T)
    sums = np.abs(w_vals[start:]).T @ np.abs(v_vals[start:])  # (S, T)
    return float(np.max(sums)) if sums.size else 0.0


def finite_difference_defect(
    kernel: BilinearKernel,
    i: int,
    j: int,
    s_points: np.ndarray,
    t_points: np.ndarray,
    step: float = 1e-4,
) -> float:
    """Max gap between the (i, j) derivative and a central difference.

    The difference is taken on the analytic derivative one order lower (in s
    when i > 0, else in t), so each order is validated against the previous
    one with a single first-order stencil.
    """
    if i == 0 and j == 0:
        raise ValueError("nothing to difference at order (0, 0)")
    s_points = np.atleast_1d(np.asarray(s_points, dtype=np.float64))
    t_points = np.atleast_1d(np.asarray(t_points, dtype=np.float64))
    exact = eval_kernel(kernel, i, j, s_points, t_points)
    if i > 0:
        hi = eval_kernel(kernel, i - 1, j, s_points + step, t_points)
        lo = eval_kernel(kernel, i - 1, j, s_points - step, t_points)
    else:
        hi = eval_kernel(kernel, i, j - 1, s_points, t_points + step)
        lo = eval_kernel(kernel, i, j - 1, s_points, t_points - step)
    return float(np.max(np.abs((hi - lo) / (2 * step) - exact)))


def vanishing_at_radius(kernel: BilinearKernel, radius: float, t_probe) -> float:
    """Largest of |T| samples and Carleman row norms at |s| = radius.

    The finite-truncation stand-in for vanishing at infinity: beyond the
    classically allowed region of the highest basis function everything is
    Gaussian-small.
    """
    edges = np.array([-radius, radius])
    t_probe = np.atleast_1d(np.asarray(t_probe, dtype=np.float64))
    corner = float(np.max(np.abs(eval_kernel(kernel, 0, 0, edges, t_probe))))
    side = float(np.max(np.abs(eval_kernel(kernel, 0, 0, t_probe, edges))))
    row = float(np.max(carleman_row_norms(kernel, edges)))
    return max(corner, side, row)


def adjoint_column_quarter_maxima(matrix: np.ndarray) -> tuple[float, float]:
    """Column-norm maxima of the adjoint matrix over first and last quarter.

    For a product M A with M the Gaussian multiplier matrix, the adjoint's
    n-th column is A^h (M e_n), whose norm is controlled by ||M e_n|| =
    ||projection of m u_n|| and therefore decays along the basis index for
    any bounded A. Returns (max over first quarter, max over last quarter).
    """
    a = np.asarray(matrix)
    norms = np.linalg.norm(a.conj().T, axis=0)  # column norms of the adjoint
    n = norms.size
    quarter = max(1, n // 4)
    return float(np.max(norms[:quarter])), float(np.max(norms[-quarter:]))
