"""Bilinear-series kernels over the smooth basis, with exact calculus.

A kernel here is T(s, t) = sum_{m,n} a_mn u_m(s) conj(u_n(t)), carried by
its coefficient matrix. Every partial derivative and both Carleman section
maps evaluate through the exact derivative ladder of the basis. Multiplier
kernels G(s, t) = m(s) T(s, t) keep both views: the pointwise form (exact)
and the coefficient form M A (truncated product expansion), used where the
Hilbert-Schmidt picture is needed.

The polar factorization A = W V* (W = U_pol P, V = P, P = |A|^(1/2))
feeds the single-index series sum_n [W u_n]^(i)(s) conj([V u_n]^(j)(t)),
whose absolute partial sums witness absolute convergence. A report reads
the series at the probe points only (`polar_probes`), from A's bidiagonal
factors, with no n x n singular vectors. `MFactorization` keeps the SVD
factors of A, and the explicit n x n matrices W, V are formed from them
only when asked for (the verification battery's reconstruction and series
checks).

Each concept has one producer here: `carleman` gives the section vectors of
either side at any order, one column per point of a `ProbeGrid` (which builds
the basis values once with the points they belong to); `_leibniz` forms the
Leibniz sum of a Gaussian-scaled kernel for every evaluation; and
`finite_difference_defect` checks every derivative order against central
differences at one step. Where several derivative orders meet at one point
set (the Leibniz pieces, the difference tables), their basis values come
from one recurrence and successive ladder steps (`SmoothBasis.value_matrices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .blas import gesdd, gesdd_probes, numerical_rank
from .hermite import SmoothBasis, gaussian
from .measure import row_blocks, scaled_norm


@dataclass(frozen=True, eq=False)
class BilinearKernel:
    """Kernel given by a square coefficient matrix over the basis of its size.

    With `multiplied_matrix` set the kernel is the Gaussian-scaled m(s) T(s, t),
    and `multiplied_matrix` holds M @ matrix for norm and operator use.
    """

    matrix: np.ndarray
    multiplied_matrix: np.ndarray | None = None

    def __post_init__(self):
        a = np.asarray(self.matrix, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"coefficient matrix must be square, got {a.shape}")
        object.__setattr__(self, "matrix", a)
        if self.multiplied_matrix is not None:
            ma = np.asarray(self.multiplied_matrix, dtype=complex)
            if ma.shape != a.shape:
                raise ValueError("multiplied matrix has wrong shape")
            object.__setattr__(self, "multiplied_matrix", ma)

    @property
    def basis(self) -> SmoothBasis:
        return SmoothBasis(self.matrix.shape[0])

    @property
    def coefficient_matrix(self) -> np.ndarray:
        """Matrix backing the operator view: M A for multiplier kernels."""
        return self.matrix if self.multiplied_matrix is None else self.multiplied_matrix


def _pair_eval(matrix: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_mn a_mn left_m(s) conj(right_n(t)) from basis value matrices."""
    return left.T @ matrix @ np.conj(right)


def _leibniz(kernel: BilinearKernel, i: int, s: np.ndarray, piece):
    """piece(i) for a plain kernel. For a Gaussian-scaled one, the Leibniz sum
    sum_{r<=i} C(i, r) m^(i-r)(s) piece(r) of m(s) times the plain kernel's
    order-r piece; `s` is shaped to broadcast against each piece."""
    if kernel.multiplied_matrix is None:
        return piece(i)
    return sum(comb(i, r) * gaussian(i - r, s) * piece(r) for r in range(i + 1))


def eval_kernel(kernel: BilinearKernel, i: int, j: int, s, t):
    """Partial derivative d^{i+j} T / ds^i dt^j at (s, t); scalars or 1-d arrays.

    Gaussian-scaled kernels use the Leibniz expansion
    sum_{r<=i} C(i, r) m^(i-r)(s) d^{r+j} T, with the plain kernel's exact
    derivatives inside; the order-0 case is the exact pointwise m(s) T(s, t).
    """
    if i < 0 or j < 0:
        raise ValueError("derivative orders must be >= 0")
    scalar = np.ndim(s) == 0 and np.ndim(t) == 0
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    right = kernel.basis.value_matrix(j, t_arr)
    left = kernel.basis.value_matrices(i, s_arr)
    out = _leibniz(
        kernel, i, s_arr[:, None], lambda r: _pair_eval(kernel.matrix, left[r], right)
    )
    return complex(out[0, 0]) if scalar else out


@dataclass(frozen=True, eq=False)
class ProbeGrid:
    """Probe points with the basis values at them, built together.

    `values` is basis.value_matrix(0, points), shape (size, points); it does
    not depend on the kernel, so one grid serves every probe diagnostic over
    the same basis.
    """

    basis: SmoothBasis
    points: np.ndarray
    values: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.atleast_1d(np.asarray(self.points, dtype=np.float64))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", self.basis.value_matrix(0, pts))


def _check_grid(basis: SmoothBasis, *grids: ProbeGrid) -> None:
    for grid in grids:
        if grid.basis != basis:
            raise ValueError(f"probe grid is over {grid.basis}, expected {basis}")


def carleman(kernel: BilinearKernel, side: str, order: int, grid: ProbeGrid) -> np.ndarray:
    """Coefficient vectors of a Carleman section derivative, one column per
    point x of the grid; their column norms are the section norms.

    Row side: the map s -> conj(T(s, .)), derivative of the given order at
    x, so component n is conj(sum_m a_mn u_m^(order)(x)). Column side: the
    map t -> T(., t), component m is sum_n a_mn conj(u_n^(order)(x)).
    Gaussian-scaled kernels use the Leibniz form on the row side and apply
    the multiplier's coefficient matrix on the column side.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if side not in ("row", "column"):
        raise ValueError("side must be 'row' or 'column'")
    _check_grid(kernel.basis, grid)
    tables = [grid.values] if order == 0 else grid.basis.value_matrices(order, grid.points)
    if side == "column":
        return kernel.coefficient_matrix @ np.conj(tables[order])
    return _leibniz(
        kernel, order, grid.points, lambda r: np.conj(kernel.matrix.T @ tables[r])
    )


def condition_number(sigma: np.ndarray) -> float:
    """sigma_0 / sigma_{n-1} of descending singular values, formed as
    numpy.linalg.cond forms it: x/0 and 0/0 give inf unless a singular value
    is NaN, in which case the NaN is kept."""
    with np.errstate(all="ignore"):
        ratio = float(sigma[0] / sigma[-1])
    if np.isnan(ratio) and not np.isnan(sigma).any():
        return float("inf")
    return ratio


@dataclass(frozen=True, eq=False)
class MFactorization:
    """Factorization A = W V* with W V* reconstructing A, kept as the SVD.

    Canonical choice from the polar decomposition A = U_pol |A|: take
    P = |A|^(1/2), W = U_pol P, V = P. Then W W* = A U_pol* and V V* = |A|
    are both positive semidefinite. Rank-deficient A uses the partial
    isometry convention (U_pol vanishes on the null space).

    Stored as A = u diag(sigma) vh with the numerical rank, so that
    W = u_r diag(sqrt(sigma_r)) vh_r and V = vh^h diag(sqrt(sigma)) vh.
    """

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray
    rank: int

    @property
    def condition(self) -> float:
        """2-norm condition number sigma_0 / sigma_{n-1} of A."""
        return condition_number(self.sigma)

    def w_values(self, values: np.ndarray) -> np.ndarray:
        """W^T u: row n holds [W u_n](s_j), from the basis value matrix u.

        Computed as vh_r^T (sqrt(sigma_r) * (u_r^T u)), O(n^2) per point.
        """
        r = self.rank
        inner = self.u[:, :r].T @ values
        inner *= np.sqrt(self.sigma[:r])[:, None]
        return self.vh[:r].T @ inner

    def v_values(self, values: np.ndarray) -> np.ndarray:
        """V^T u: row n holds [V u_n](t_j), as vh^T (sqrt(sigma) * (conj(vh) u));
        conj(vh) u is formed as conj(vh u) for the real u, so that no n x n
        conjugate of vh is made."""
        inner = np.conj(self.vh @ values)
        inner *= np.sqrt(self.sigma)[:, None]
        return self.vh.T @ inner

    def polar_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Explicit (W, V) = (U_pol P, P) with P = |A|^(1/2), formed on each
        call (two n x n products) and not kept here."""
        return self.w_factor(), polar_root(self.sigma, self.vh)

    def w_factor(self) -> np.ndarray:
        """W = U_pol P = u_r diag(sqrt(sigma_r)) vh_r, formed on each call,
        `row_blocks` at a time, so that the scaled u_r is a block's."""
        r = self.rank
        root, vh_r = np.sqrt(self.sigma[:r]), self.vh[:r]
        w = np.empty((self.u.shape[0], vh_r.shape[1]), dtype=complex)
        for rows in row_blocks(w.shape[0]):
            w[rows] = (self.u[rows, :r] * root) @ vh_r
        return w


def polar_root(sigma: np.ndarray, vh: np.ndarray) -> np.ndarray:
    """P = |A|^(1/2) = vh^h diag(sqrt(sigma)) vh, the V of
    `MFactorization.polar_factors`, from A's singular values and right
    singular vectors alone, so that a caller can drop u before forming it.
    Formed `row_blocks` at a time, so that the scaled vh^h is a block's."""
    root = np.sqrt(sigma)
    v = np.empty((vh.shape[1], vh.shape[1]), dtype=complex)
    for rows in row_blocks(v.shape[0]):
        v[rows] = (vh[:, rows].conj().T * root) @ vh
    return v


def m_factorize(matrix: np.ndarray) -> MFactorization:
    """Polar factorization A = W V*, held as one SVD of A.

    With A = U diag(sigma) V^h: |A| = V diag(sigma) V^h, the square root
    P uses sqrt(sigma) (never negative, so positivity survives rounding),
    and the partial isometry keeps only directions with sigma above the
    rank threshold. The explicit W, V exist only on request
    (`polar_factors`); probe values and the condition number need only the SVD.
    `matrix` is copied and left as it is.
    """
    return m_factorize_in_place(np.array(matrix, dtype=complex, order="F"))


def m_factorize_in_place(a: np.ndarray) -> MFactorization:
    """`m_factorize` of the complex Fortran-order `a`, which the SVD overwrites."""
    u, sigma, vh = gesdd(a, vectors=True)
    return MFactorization(u=u, sigma=sigma, vh=vh, rank=numerical_rank(sigma, max(a.shape)))


@dataclass(frozen=True, eq=False)
class PolarProbes:
    """What a report reads of D's polar factorization D = W V*: D's singular
    values, the probe blocks `w_values` = W^T U_p and `v_values` = V^T U_p
    for the basis values U_p of a probe grid (n x S, `MFactorization`'s
    w_values and v_values), and, only when asked for, the factorization
    itself."""

    sigma: np.ndarray
    w_values: np.ndarray
    v_values: np.ndarray
    factorization: MFactorization | None


def polar_probes(a: np.ndarray, grid: ProbeGrid, *, vectors: bool = False) -> PolarProbes:
    """D's `PolarProbes` at the grid's points for the complex Fortran-order
    `a` = D, which the SVD overwrites.

    The singular values are those of `m_factorize`, bit for bit. The
    blocks come from D's bidiagonal factors (`blas.gesdd_probes`), and no
    n x n singular vectors are formed. With `vectors`, or without numpy's
    OpenBLAS symbols, they come instead from D's full SVD, as
    `MFactorization` forms them, and agree with the bidiagonal route to
    rounding; `vectors` also hands back that factorization. The probe
    blocks (2 S n complex entries) are not alive while u and vh are formed,
    so that SVD peaks no higher than the bidiagonal route.
    """
    _check_grid(SmoothBasis(a.shape[0]), grid)
    route = None if vectors else gesdd_probes(a, grid.values)
    if route is not None:
        return PolarProbes(*route, None)
    fact = m_factorize_in_place(a)
    w_vals, v_vals = fact.w_values(grid.values), fact.v_values(grid.values)
    return PolarProbes(fact.sigma, w_vals, v_vals, fact if vectors else None)


@dataclass(frozen=True)
class SeriesCheck:
    direct: complex
    via_factorization: complex
    abs_partial_sums: np.ndarray


def series_consistency(
    kernel: BilinearKernel,
    w: np.ndarray,
    v: np.ndarray,
    i: int,
    j: int,
    s: float,
    t: float,
) -> SeriesCheck:
    """Compare coefficient-form evaluation against the factorized series.

    The series is sum_n [W u_n]^(i)(s) conj([V u_n]^(j)(t)); its running
    absolute partial sums are the convergence witness (nondecreasing and
    bounded). `w`, `v` are the explicit factors (`MFactorization.polar_factors`)
    of the kernel's coefficient matrix; for Gaussian-scaled kernels both sides use
    the coefficient form M A.
    """
    basis = kernel.basis
    u_i = basis.value_matrix(i, s)[:, 0].astype(complex)
    u_j = basis.value_matrix(j, t)[:, 0].astype(complex)
    w_vals = w.T @ u_i
    v_vals = np.conj(v.T @ u_j)
    terms = w_vals * v_vals
    direct = complex(u_i @ kernel.coefficient_matrix @ np.conj(u_j))
    return SeriesCheck(
        direct=direct,
        via_factorization=complex(np.sum(terms)),
        abs_partial_sums=np.cumsum(np.abs(terms)),
    )


def scale_by_multiplier(kernel: BilinearKernel, m_matrix: np.ndarray) -> BilinearKernel:
    """Scale by the Gaussian: pointwise kernel m(s) T(s, t), coefficients M A.

    Pointwise evaluation stays exact; the coefficient matrix M A (a truncated
    product expansion) backs the Hilbert-Schmidt norm and the first-kind
    operator. The gap between the two views is a reportable quantity, see
    `coefficient_form_gap`.
    """
    if kernel.multiplied_matrix is not None:
        raise ValueError("kernel already carries a multiplier")
    m_matrix = np.asarray(m_matrix, dtype=complex)
    if m_matrix.shape != kernel.matrix.shape:
        raise ValueError("multiplier matrix size does not match the kernel")
    return BilinearKernel(kernel.matrix, multiplied_matrix=m_matrix @ kernel.matrix)


def coefficient_form_gap(kernel: BilinearKernel, s: ProbeGrid, t: ProbeGrid) -> float:
    """Max |m(s) T(s,t) - (M A)-form(s,t)| over a probe grid (0 without multiplier)."""
    _check_grid(kernel.basis, s, t)
    if kernel.multiplied_matrix is None:
        return 0.0
    via_coeff = _pair_eval(kernel.multiplied_matrix, s.values, t.values)
    return _form_gap(kernel.matrix, via_coeff, s, t)


def factored_form_gap(
    matrix: np.ndarray, basis: np.ndarray, multiplied: np.ndarray, s: ProbeGrid, t: ProbeGrid
) -> float:
    """`coefficient_form_gap` of the Gaussian-scaled kernel of `matrix` whose
    coefficient form M A is given as basis @ multiplied (N x k and k x N,
    `basis` real): the form's values (basis^T u(s))^T multiplied conj(u(t))
    take O(N k) per point, and no N x N product is formed."""
    _check_grid(SmoothBasis(matrix.shape[0]), s, t)
    via_coeff = _pair_eval(multiplied, basis.T @ s.values, t.values)
    return _form_gap(matrix, via_coeff, s, t)


def _form_gap(matrix: np.ndarray, via_coeff: np.ndarray, s: ProbeGrid, t: ProbeGrid) -> float:
    """Max |m(s) T(s,t) - via_coeff| for the kernel T of `matrix`."""
    exact = gaussian(0, s.points)[:, None] * _pair_eval(matrix, s.values, t.values)
    return float(np.max(np.abs(exact - via_coeff)))


def hs_norm(kernel: BilinearKernel) -> float:
    """Hilbert-Schmidt norm: Frobenius norm of the coefficient matrix.

    Equals the L2 double integral of |kernel|^2 by orthonormality of the
    basis (for Gaussian-scaled kernels this is the coefficient-form view M A).
    """
    return float(scaled_norm(kernel.coefficient_matrix))


def probe_grid(bound: float = 8.0, points: int = 41) -> np.ndarray:
    """Uniform probe points on [-bound, bound] for sup-style diagnostics."""
    return np.linspace(-bound, bound, points)


def absolute_tail_sup(w_values: np.ndarray, v_values: np.ndarray) -> float:
    """Sup over the probe grid of the absolute series tail from n = size/2.

    `w_values` and `v_values` are the probe blocks W^T u_s and V^T u_t of
    the kernel's coefficient matrix (`PolarProbes`, or `MFactorization`'s
    w_values and v_values), one row per term of the canonical factorized
    series. This is the finite-truncation observable standing in for
    absolute/uniform convergence of the infinite expansion. Since
    |w conj(v)| = |w| |v|, the tail sums over all probe pairs are one real
    product |W_tail^T u_s|^T |V_tail^T u_t|.
    """
    n = w_values.shape[0]
    if v_values.shape[0] != n:
        raise ValueError(f"probe blocks of {n} and {v_values.shape[0]} terms")
    sums = np.abs(w_values[n // 2 :]).T @ np.abs(v_values[n // 2 :])  # (S, T)
    return float(np.max(sums)) if sums.size else 0.0


# The difference quotient's step, the same for every order. Below it the
# quotient's rounding, about eps |d^(k-1) T| / h, is what the oracle reports;
# above it Richardson's O(h^4) term is, and both grow with N. On the
# benchmark's shape at N = 4096 and alpha = 0 the worst defect reads 8.0e-6
# at h = 3e-5, 3.4e-6 at 1e-4 and 2.1e-4 at 3e-4.
FD_STEP = 1e-4


def finite_difference_defect(kernel: BilinearKernel, points) -> dict[tuple[int, int], float]:
    """{(i, j): max gap between the (i, j) derivative and a
    Richardson-extrapolated central difference} on the grid points x points,
    for every 0 < i + j <= 3, with the step FD_STEP.

    The difference is taken on the analytic derivative one order lower (in s
    when i > 0, else in t), so each order is validated against the previous
    one. With D(h) the central difference at step h, the estimate
    D(h/2) + (D(h/2) - D(h)) / 3 cancels the h^2 truncation term, leaving
    O(h^4), so the oracle's own error stays far below the ladder's. The basis
    values of every order come from one recurrence over `points` and their
    four shifted grids +h, -h, +h/2, -h/2.
    """
    points = np.atleast_1d(np.asarray(points, dtype=np.float64))
    n, h = points.size, FD_STEP
    shifted = (points + np.array([h, -h, h / 2, -h / 2])[:, None]).ravel()
    tables = kernel.basis.value_matrices(3, np.concatenate([points, shifted]))
    here, moved = slice(0, n), slice(n, 5 * n)

    def derivative(i, s_cols, j, t_cols, s):
        """d^{i+j} T at the table columns s_cols (the points s) x t_cols."""
        return _leibniz(
            kernel, i, s[:, None],
            lambda r: _pair_eval(kernel.matrix, tables[r][:, s_cols], tables[j][:, t_cols]),
        )

    defects = {}
    for i in range(4):
        for j in range(0 if i else 1, 4 - i):
            exact = derivative(i, here, j, here, points)
            # the four shifted grids in one evaluation
            if i > 0:
                grid = derivative(i - 1, moved, j, here, shifted)
                hi, lo, hi2, lo2 = grid.reshape(4, n, n)
            else:
                grid = derivative(i, here, j - 1, moved, points)
                hi, lo, hi2, lo2 = grid.reshape(n, 4, n).transpose(1, 0, 2)
            coarse = (hi - lo) / (2 * h)
            fine = (hi2 - lo2) / h
            defects[i, j] = float(np.max(np.abs(fine + (fine - coarse) / 3 - exact)))
    return defects


def vanishing_at_radius(kernel: BilinearKernel, t_probe) -> float:
    """Largest of |T| samples and Carleman row norms at |s| = 8 + sqrt(2N).

    The finite-truncation stand-in for vanishing at infinity: sqrt(2N) is
    about where the classically allowed region of the highest basis function
    ends, and 8 beyond it everything is Gaussian-small.
    """
    radius = 8.0 + np.sqrt(2.0 * kernel.basis.size)
    edges = np.array([-radius, radius])
    t_probe = np.atleast_1d(np.asarray(t_probe, dtype=np.float64))
    corner = float(np.max(np.abs(eval_kernel(kernel, 0, 0, edges, t_probe))))
    side = float(np.max(np.abs(eval_kernel(kernel, 0, 0, t_probe, edges))))
    sections = carleman(kernel, "row", 0, ProbeGrid(kernel.basis, edges))
    row = float(np.max(scaled_norm(sections, axis=0)))
    return max(corner, side, row)


def adjoint_column_quarter_maxima(matrix: np.ndarray) -> tuple[float, float]:
    """Column-norm maxima of the adjoint matrix over first and last quarter.

    For a product M A with M the Gaussian multiplier matrix, the adjoint's
    n-th column is A^h (M e_n), whose norm is controlled by ||M e_n|| =
    ||projection of m u_n|| and therefore decays along the basis index for
    any bounded A. Returns (max over first quarter, max over last quarter).
    """
    a = np.asarray(matrix)
    return quarter_maxima(scaled_norm(a.conj().T, axis=0))  # column norms of the adjoint


def quarter_maxima(norms: np.ndarray) -> tuple[float, float]:
    """(max over the first quarter, max over the last quarter) of `norms`,
    the adjoint's column norms of `adjoint_column_quarter_maxima`."""
    quarter = max(1, norms.size // 4)
    return float(np.max(norms[:quarter])), float(np.max(norms[-quarter:]))
