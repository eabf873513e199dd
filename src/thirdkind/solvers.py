"""Forward model, reduced solves, and end-to-end equivalence checks.

The input problem is H(x) phi(x) - lambda (K phi)(x) = psi(x) on the grid.
Reduction produces the lambda-independent pair of coefficient matrices
A0 (from H - alpha) and A (from K); the reduced equation reads
alpha f + (A0 - lambda A) f = g with f, g the forward coefficients of
phi, psi. `KernelPencil` is the one producer of D = A0 - lambda A and of
alpha I + D (`system_matrix`, shared by the report and `solve_second_kind`).
With alpha = 0, multiplying by the positive smooth m turns the equation
into the first-kind system M D f = M g, M = `Reduction.m_matrix`, solved by
a truncated-spectral pseudoinverse (the reduction itself is exact; the
first-kind solve is ill-posed and needs a declared policy). M is factored
once per run, and the solve runs in the span of its eigenvectors whose
eigenvalues are not rounding (`MultipliedPencil`), where M D is a k x N
matrix formed from two lambda-free ones.
"""

from __future__ import annotations

from dataclasses import InitVar, asdict, dataclass, field

import numpy as np

from .blas import beside, gesdd
from .errors import DegenerateSystemError, NearSingularError, RightHandSideOverflowError
from .hermite import GAUSSIAN_L2_NORM, SmoothBasis, multiplier_matrix
from .kernels import (
    BilinearKernel,
    MFactorization,
    PolarProbes,
    ProbeGrid,
    absolute_tail_sup,
    carleman,
    condition_number,
    factored_form_gap,
    hs_norm,
    polar_probes,
    quarter_maxima,
)
from .measure import GridFunction, GridKernel, _matvec, row_blocks, scaled_norm
from .rademacher import KorotkovSequence
from .reduction import BlockDiagonal, CoefficientMatrix, UnitarySurrogate, pencil_matrices
# unused here, but perfbench/tracer.py lists this module as a site binding it
from .reduction import matrix_elements  # noqa: F401

CONDITION_LIMIT = 1e12


def forward_third_kind(
    H: GridFunction, K: GridKernel | GridFunction, lam: complex, phi: GridFunction
) -> GridFunction:
    """psi = H phi - lambda K phi, evaluated cellwise with midpoint quadrature.

    `K` is the kernel, or its image K phi (`K.apply(phi)`) when the caller
    applies K once for many lambdas, as a `Reduction` does; psi is the same
    bit for bit. Raises RightHandSideOverflowError when a value of psi
    overflows."""
    if not H.space == K.space == phi.space:
        raise ValueError("coefficient, kernel and function live on different grids")
    k_phi = K if isinstance(K, GridFunction) else K.apply(phi)
    with np.errstate(over="ignore", invalid="ignore"):
        psi = H.values * phi.values - lam * k_phi.values
    if not np.all(np.isfinite(psi)):
        raise RightHandSideOverflowError(lam)
    return GridFunction(H.space, psi)


@dataclass(frozen=True, eq=False)
class KernelPencil:
    """Reduced equation data: shift alpha and matrices A0, A (lambda-free).

    A0 is held as its structure, a `BlockDiagonal` (the indicator diagonal
    and one principal block per band, from `pencil_matrices`); a dense A0
    passed in is stored as one block. A is a dense ndarray. Each is float64
    or complex128 (A0 part by part); `reduce_problem` keeps them float64
    when they are exactly real. The lambda-dependent matrices are complex
    either way and do not depend on that dtype: a real matrix enters their
    arithmetic as x + 0j, the value a complex one with zero imaginary part
    holds. Every one of them is formed as -lambda A, then + 0.0 over the
    whole array, then + A0's parts: entry for entry the dense sum
    -lambda A + A0, whose zeros of A0 turn a -0.0 of -lambda A (A holding an
    exact zero) into +0.0.
    """

    alpha: complex
    a0: BlockDiagonal
    a: CoefficientMatrix

    def __post_init__(self):
        if not isinstance(self.a0, BlockDiagonal):
            object.__setattr__(self, "a0", BlockDiagonal.dense(self.a0))

    @property
    def size(self) -> int:
        return self.a0.size

    @property
    def basis(self) -> SmoothBasis:
        return SmoothBasis(self.size)

    def system_matrix(self, lam: complex) -> np.ndarray:
        """alpha I + (A0 - lambda A) in one new Fortran-order array: D formed
        as `polar_probes` forms it, with alpha then added on the diagonal."""
        d = self._fortran_matrix(lam)
        d.flat[:: self.size + 1] += self.alpha
        return d

    def pencil_rows(self, lam: complex, rows: slice) -> np.ndarray:
        """The rows `rows` of A0 - lambda A in a new array, entry for entry
        as `pencil_kernel` forms them."""
        return _pencil_rows(self.a0, self.a, lam, rows)

    def _fortran_matrix(self, lam: complex) -> np.ndarray:
        """A0 - lambda A in one new Fortran-order array: its transpose formed
        in C order from A^T and A0^T, with no strided pass over A."""
        return _pencil_rows(self.a0.T, self.a.T, lam, slice(None)).T

    def pencil_kernel(self, lam: complex) -> BilinearKernel:
        """The kernel of A0 - lambda A."""
        return BilinearKernel(self.pencil_rows(lam, slice(None)))

    def polar_probes(
        self, lam: complex, grid: ProbeGrid, *, vectors: bool = False
    ) -> PolarProbes:
        """`kernels.polar_probes` of A0 - lambda A at the grid, with the
        matrix formed in Fortran order and factored in place, so that the
        SVD's input is its only copy."""
        return polar_probes(self._fortran_matrix(lam), grid, vectors=vectors)


def _pencil_rows(a0: BlockDiagonal, a: np.ndarray, lam: complex, rows: slice) -> np.ndarray:
    """The rows `rows` of a0 - lam a in a new C-order complex array."""
    d = np.multiply(a[rows], -lam, order="C", dtype=complex)
    d += 0.0  # the dense A0's zeros: a -0.0 of -lambda A becomes +0.0
    a0.add_to(d, rows)
    return d


def reduce_problem(seq: KorotkovSequence, U: UnitarySurrogate) -> KernelPencil:
    """Transform the sequence's problem into the lambda-free reduced pencil.

    A0 and A are the matrices of H - alpha and K over U, with alpha, H and K
    those the sequence was built for (H and K on its final grid): A0 as the
    `BlockDiagonal` of `pencil_matrices`, whose parts, and A, are each kept
    as float64 when exactly real (real H, K and alpha). No dense A0 is made.
    The right-hand side is not needed (its reduced form is g =
    U.forward(psi)). At full truncation the identity
    alpha f + (A0 - lambda A) f = g holds to rounding whenever psi came from
    the forward model at phi and f is the forward image of phi.
    """
    shifted = GridFunction(seq.space, seq.coefficient.values - seq.alpha)
    a0, a = pencil_matrices(U, shifted, seq.kernel)
    return KernelPencil(alpha=seq.alpha, a0=a0.map(_real_if_exact), a=_real_if_exact(a))


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """The real part of `m` as a new float64 array when every imaginary part
    is +0.0 (no -0.0, no NaN), so that x + 0j gives `m` back; else `m`."""
    if m.imag.view(np.uint64).any():
        return m
    return np.ascontiguousarray(m.real)


@dataclass(frozen=True, eq=False)
class FirstKindSystem:
    """The first-kind matrix M (A0 - lambda A) as `basis @ matrix`, from
    `MultipliedPencil.system`: `basis` holds the run's k orthonormal
    eigenvectors of M (real, N x k) and `matrix` is the k x N
    Y = Lambda_k Z_k^T (A0 - lambda A)."""

    basis: np.ndarray
    matrix: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The system times the vector x."""
        return _matvec(self.basis, self.matrix @ x)

    def row_norms(self) -> np.ndarray:
        """The 2-norm of each row of the system, formed `row_blocks` at a
        time, so that no N x N product is alive."""
        norms = np.empty(self.basis.shape[0])
        for rows in row_blocks(norms.size):
            norms[rows] = scaled_norm(_matvec(self.basis[rows], self.matrix), axis=1)
        return norms


# eigenvalues of M at or below this fraction of the largest are rounding:
# eigh resolves them only to about eps ||M||. The counts k it keeps, with the
# times of eigh on one thread: 126 of N = 256, 254 of 1024 (0.2 s), 363 of
# 2048 (1.4 s); k grows like sqrt(N).
MULTIPLIER_RANK_TOLERANCE = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class MultipliedPencil:
    """The lambda-free pencil (A0, A) seen through the multiplier matrix M.

    With M = Z Lambda Z^T (`numpy.linalg.eigh`, once per run) and Z_k the k
    eigenvectors whose eigenvalues exceed MULTIPLIER_RANK_TOLERANCE times the
    largest, M (A0 - lambda A) = Z_k (B0 - lambda B) up to about
    eps ||M|| ||A0 - lambda A||, with the k x N products B0 = Lambda_k Z_k^T A0
    and B = Lambda_k Z_k^T A (`b0`, `b`; float64 when A0, A are). Per lambda
    the first-kind matrix is then O(N k) to form and its SVD O(N k^2).
    """

    basis: np.ndarray  # Z_k, N x k
    b0: np.ndarray
    b: np.ndarray

    @classmethod
    def of(cls, m_matrix: np.ndarray, pencil: KernelPencil) -> "MultipliedPencil":
        values, vectors = np.linalg.eigh(m_matrix)
        keep = values > MULTIPLIER_RANK_TOLERANCE * values[-1]
        basis = np.ascontiguousarray(vectors[:, keep])
        del vectors
        scale = values[keep][:, None]
        b0 = _matvec(basis.T, pencil.a0.toarray())  # the dense A0 goes with the call
        b = _matvec(basis.T, pencil.a)
        b0 *= scale
        b *= scale
        return cls(basis=basis, b0=b0, b=b)

    def system(self, lam: complex) -> FirstKindSystem:
        """M (A0 - lambda A) as Z_k Y, Y = B0 - lambda B formed entry for
        entry as `KernelPencil` forms A0 - lambda A."""
        y = np.multiply(self.b, -lam, dtype=complex)
        y += self.b0
        return FirstKindSystem(self.basis, y)


@dataclass(frozen=True, eq=False)
class Reduction:
    """One run's lambda-free data, derived from the sequence, its surrogate
    and the run's manufactured solution phi.

    `pencil` is reduce_problem(sequence, surrogate), `probes` the basis values
    at `probe_points`, and, when alpha = 0 (else None), `m_matrix` the
    Gaussian multiplier matrix over the pencil's basis and `multiplied` the
    pencil in M's eigenbasis, which the first-kind solve reads. The
    manufactured problem's lambda-free half is here too: `f` = U phi, the
    `round_trip_error` of U^-1 f against phi, and `k_phi` = K phi, from
    which each lambda's psi = H phi - lambda K phi is formed with
    `coefficient` = H. None of them can be passed in, so they always belong
    to the sequence.

    The sequence itself is not kept: the lambda loop reads nothing else of
    it, so its dense kernel sample is freed with it. ValueError when the
    surrogate or phi lives on another grid than the sequence.
    """

    sequence: InitVar[KorotkovSequence]
    surrogate: UnitarySurrogate
    probe_points: np.ndarray
    phi: GridFunction
    pencil: KernelPencil = field(init=False)
    probes: ProbeGrid = field(init=False, repr=False)
    m_matrix: np.ndarray | None = field(init=False, repr=False)
    multiplied: MultipliedPencil | None = field(init=False, repr=False)
    coefficient: GridFunction = field(init=False, repr=False)
    k_phi: GridFunction = field(init=False, repr=False)
    f: np.ndarray = field(init=False, repr=False)
    round_trip_error: float = field(init=False)

    def __post_init__(self, sequence: KorotkovSequence):
        for name, part in (("surrogate", self.surrogate), ("phi", self.phi)):
            if part.space != sequence.space:
                raise ValueError(f"the {name} lives on another grid than the sequence")
        pencil = reduce_problem(sequence, self.surrogate)
        object.__setattr__(self, "pencil", pencil)
        object.__setattr__(self, "probes", ProbeGrid(pencil.basis, self.probe_points))
        m_matrix = multiplier_matrix(pencil.basis) if pencil.alpha == 0 else None
        object.__setattr__(self, "m_matrix", m_matrix)
        multiplied = None if m_matrix is None else MultipliedPencil.of(m_matrix, pencil)
        object.__setattr__(self, "multiplied", multiplied)
        phi = self.phi
        object.__setattr__(self, "coefficient", sequence.coefficient)
        object.__setattr__(self, "k_phi", sequence.kernel.apply(phi))
        f = self.surrogate.forward(phi)
        object.__setattr__(self, "f", f)
        back = self.surrogate.inverse(f)
        diff = GridFunction(phi.space, back.values - phi.values)
        object.__setattr__(self, "round_trip_error", _relative(diff.norm(), phi.norm()))


@dataclass(frozen=True)
class SecondKindSolution:
    coefficients: np.ndarray
    residual: float
    condition: float


def solve_second_kind(
    pencil: KernelPencil, lam: complex, g: np.ndarray
) -> SecondKindSolution:
    """Dense solve of (alpha I + A0 - lambda A) c = g with a condition gate.

    The condition is that of `pencil.system_matrix(lam)`, as the report
    gives it. Raises NearSingularError, before any solve, when it is not
    finite or exceeds 1e12, signalling lambda near a characteristic value.
    """
    if pencil.alpha == 0:
        raise ValueError("alpha must be nonzero for a genuine second-kind solve")
    g = np.asarray(g, dtype=complex)
    if g.shape != (pencil.size,):
        raise ValueError(f"expected {pencil.size} coefficients, got {g.shape}")
    condition = condition_number(gesdd(pencil.system_matrix(lam), vectors=False))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise NearSingularError(condition)
    system = pencil.system_matrix(lam)
    c = np.linalg.solve(system, g)
    scale = float(scaled_norm(g))
    residual = float(scaled_norm(system @ c - g)) / (scale if scale else 1.0)
    return SecondKindSolution(coefficients=c, residual=residual, condition=condition)


@dataclass(frozen=True)
class FirstKindSolution:
    coefficients: np.ndarray
    discarded_energy: float
    kept: int


def solve_first_kind(
    system: FirstKindSystem | np.ndarray, w: np.ndarray, cutoff: float
) -> FirstKindSolution:
    """Truncated-spectral pseudoinverse solve of system c = w.

    `system` is the first-kind matrix M (A0 - lambda A): the report's
    `run.multiplied.system(lam)`, with w = run.m_matrix @ g, or any dense
    square matrix. With the thin SVD of its `matrix`, P S Q^H, the left
    singular vectors of the system are basis @ P (P itself for a dense
    one). Singular values below cutoff * sigma_max are discarded;
    `discarded_energy` is the fraction of ||w||^2 in the discarded left
    singular directions and, with a basis, in the part of w outside its
    span, each summed from the discarded parts themselves. Raises
    DegenerateSystemError when nothing survives the cutoff. `system` is
    left as it is.
    """
    if not 0 < cutoff < 1:
        raise ValueError("cutoff must lie in (0, 1)")
    if isinstance(system, FirstKindSystem):
        basis, matrix = system.basis, system.matrix
    else:
        basis, matrix = None, np.asarray(system, dtype=complex)
    u, sigma, vh = np.linalg.svd(matrix, full_matrices=False)
    if sigma.size == 0 or sigma[0] <= 0:
        raise DegenerateSystemError("system matrix is zero")
    keep = sigma >= cutoff * sigma[0]
    k = int(np.count_nonzero(keep))  # a prefix: sigma does not increase
    if k == 0:
        raise DegenerateSystemError("all singular values fell below the cutoff")
    if basis is None:
        inside, outside = w, w[:0]
    else:  # w's coordinates in the basis, and the rest of w
        inside = _matvec(basis.T, w)
        outside = w - _matvec(basis, inside)
    # P^H inside and vh_k^H inv as conjugated products, with no conjugate copy
    projections = np.conj(u.T @ np.conj(inside))
    inv = projections[:k] / sigma[:k]
    c = np.conj(vh[:k].T @ np.conj(inv))
    with np.errstate(over="ignore"):
        total = float(np.linalg.norm(w) ** 2)
        lost = float(np.linalg.norm(outside) ** 2 + np.sum(np.abs(projections[k:]) ** 2))
    if np.isfinite(total) and np.isfinite(lost):
        discarded = lost / total if total else 0.0
    else:  # a square overflowed: the same fraction from scaled norms
        parts = np.concatenate([outside, projections[k:]])
        discarded = (float(scaled_norm(parts)) / float(scaled_norm(w))) ** 2
    return FirstKindSolution(coefficients=c, discarded_energy=discarded, kept=k)


@dataclass(frozen=True)
class FirstKindSection:
    """First-kind diagnostics attached to an equivalence report when alpha = 0."""

    residual: float
    hs_norm_pencil: float
    carleman_sup: float
    multiplier_norm: float
    bound_slack: float
    coefficient_form_gap: float
    column_first_quarter_max: float
    column_last_quarter_max: float
    discarded_energy: float
    truncated_directions: int
    recovery_error: float


@dataclass(frozen=True)
class EquivalenceReport:
    """Residuals and kernel diagnostics for one manufactured problem; `to_dict`
    follows the field order and leaves out `first_kind` when alpha != 0."""

    passage_residual: float
    round_trip_error: float
    condition: float
    hs_norm: float
    carleman_sup: float
    tail_sup: float
    discarded_energy: float | None
    projected: bool
    first_kind: FirstKindSection | None

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.first_kind is None:
            del out["first_kind"]
        return out


def _relative(value: float, scale: float) -> float:
    return value / scale if scale > 0 else value


def verify_equivalence(
    run: Reduction, lam: complex, cutoff: float = 1e-10, *, factors: bool = False
) -> tuple[EquivalenceReport, MFactorization | None]:
    """Manufacture psi from the run's phi and measure every testable identity.

    Returns the report together with, when `factors` asks for it, the
    factorization of D = A0 - lambda A that it takes its tail and condition
    from (else None): its n x n singular vectors are then formed as well.

    psi = H phi - lambda K phi is the forward model at lambda, formed from
    the run's H and K phi (`forward_third_kind`); the pencil, the probe grid,
    f = U phi, the round trip error and, with alpha = 0, the multiplier
    matrix are those of `run`, built once per run. Only g = U psi and what
    depends on lambda are computed here.
    Reports the relative passage residual ||alpha f + (A0 - lambda A) f - g||
    at f = U phi, the forward/inverse round trip error, and pencil-kernel
    diagnostics over the probe grid. With alpha = 0 the first-kind section is
    added: multiplied-system residual, Hilbert-Schmidt bound slack, adjoint
    column decay, and the truncated-spectral recovery error.

    D = A0 - lambda A is factorized once (`KernelPencil.polar_probes`): its
    bidiagonal factors give the series tail at the probe points and, with
    alpha = 0, its singular values the condition number; with alpha != 0 the
    condition is that of `pencil.system_matrix(lam)`, alpha I + D, from its
    singular values alone. That matrix belongs to the lane of
    `blas.beside`, which forms it, takes its values and drops it on a second
    thread beside the reads of D and D's bidiagonalization, the rest of D's
    SVD waiting for it. A report's peak is then one stepwise SVD (56 N^2 B,
    see `blas._square_svd`) whichever thread ends first. Everything read
    from D itself comes first; D is then formed again in Fortran order and
    factored in place, so that no other n x n copy of it is alive during
    that SVD.
    With alpha = 0 the first-kind section is read from M D in the run's
    eigenbasis of M, Z_k Y with Y k x N (`MultipliedPencil`): its residual,
    Hilbert-Schmidt norm (||Y||_F), coefficient-form gap and row norms cost
    O(N k) or O(N^2 k) with no N x N product, and `solve_first_kind` takes
    the thin SVD of Y. So with alpha = 0 D's SVD is the only N x N one.
    """
    U, pencil, f = run.surrogate, run.pencil, run.f
    probes, m_matrix = run.probes, run.m_matrix
    alpha = pencil.alpha
    g = U.forward(forward_third_kind(run.coefficient, run.k_phi, lam, run.phi))

    def read(pk: BilinearKernel) -> tuple[float, float, float]:
        """The passage residual, Carleman sup and Hilbert-Schmidt norm of D."""
        passage = _relative(float(scaled_norm(alpha * f + pk.matrix @ f - g)),
                            float(scaled_norm(g)))
        carleman_sup = float(np.max(scaled_norm(carleman(pk, "row", 0, probes), axis=0)))
        return passage, carleman_sup, hs_norm(pk)

    discarded = None
    first_kind = None
    if alpha == 0:
        pk = pencil.pencil_kernel(lam)
        passage, carleman_sup, hs = read(pk)
        w = _matvec(m_matrix, g)  # M g
        system = run.multiplied.system(lam)  # M (A0 - lambda A) as Z_k Y
        fk_residual = _relative(
            float(scaled_norm(system.apply(f) - w)), float(scaled_norm(w))
        )
        hs_gamma = float(scaled_norm(system.matrix))  # ||Z_k Y||_F = ||Y||_F
        # sup_s ||t(s)|| of the plain pencil feeds the Hilbert-Schmidt bound
        bound = carleman_sup * GAUSSIAN_L2_NORM
        slack = max(0.0, hs_gamma - bound)
        gap = factored_form_gap(pk.matrix, system.basis, system.matrix, probes, probes)
        del pk
        first_q, last_q = quarter_maxima(system.row_norms())
        try:
            sol = solve_first_kind(system, w, cutoff)
            discarded = sol.discarded_energy
            truncated = pencil.size - sol.kept
            recovery = _relative(
                float(scaled_norm(sol.coefficients - f)), float(scaled_norm(f))
            )
        except DegenerateSystemError:
            discarded = 1.0
            truncated = pencil.size
            recovery = float("inf")
        del system
        first_kind = FirstKindSection(
            residual=fk_residual,
            hs_norm_pencil=hs_gamma,
            carleman_sup=carleman_sup,
            multiplier_norm=GAUSSIAN_L2_NORM,
            bound_slack=slack,
            coefficient_form_gap=gap,
            column_first_quarter_max=first_q,
            column_last_quarter_max=last_q,
            discarded_energy=discarded,
            truncated_directions=truncated,
            recovery_error=recovery,
        )
        # no other n x n copy of D is alive during its SVD
        polar = pencil.polar_probes(lam, probes, vectors=factors)
        condition = condition_number(polar.sigma)
    else:
        # the lane owns alpha I + D: it forms the matrix, takes its values and
        # drops it, beside the reads of D and D's bidiagonalization; the
        # C-order D goes before D's SVD
        values, ((passage, carleman_sup, hs), polar) = beside(
            lambda: gesdd(pencil.system_matrix(lam), vectors=False),
            lambda: (
                read(pencil.pencil_kernel(lam)),
                pencil.polar_probes(lam, probes, vectors=factors),
            ),
        )
        condition = condition_number(values)
    tail = absolute_tail_sup(polar.w_values, polar.v_values)

    return EquivalenceReport(
        passage_residual=passage,
        round_trip_error=run.round_trip_error,
        condition=condition,
        hs_norm=hs,
        carleman_sup=carleman_sup,
        tail_sup=tail,
        discarded_energy=discarded,
        projected=U.projected,
        first_kind=first_kind,
    ), polar.factorization
