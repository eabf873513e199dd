"""Forward model, reduced solves, and end-to-end equivalence checks.

The input problem is H(x) phi(x) - lambda (K phi)(x) = psi(x) on the grid.
Reduction produces the lambda-independent pair of coefficient matrices
A0 (from H - alpha) and A (from K); the reduced equation reads
alpha f + (A0 - lambda A) f = g with f, g the forward coefficients of
phi, psi. With alpha = 0, multiplying by the positive smooth m turns it
into the first-kind system M (A0 - lambda A) f = M g, solved here by a
truncated-spectral pseudoinverse (the reduction itself is exact; the
first-kind solve is ill-posed and needs a declared policy).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .blas import gesdd
from .errors import AlphaNotZeroError, DegenerateSystemError, NearSingularError
from .hermite import GAUSSIAN_L2_NORM, SmoothBasis, multiplier_matrix
from .kernels import (
    BilinearKernel,
    MFactorization,
    ProbeGrid,
    absolute_tail_sup,
    adjoint_column_quarter_maxima,
    carleman_row_norms,
    coefficient_form_gap,
    condition_number,
    hs_norm,
    m_factorize_in_place,
    scale_by_multiplier,
)
from .measure import GridFunction, GridKernel
from .rademacher import KorotkovSequence
from .reduction import CoefficientMatrix, UnitarySurrogate, pencil_matrices
# unused here, but perfbench/tracer.py lists this module as a site binding it
from .reduction import matrix_elements  # noqa: F401

CONDITION_LIMIT = 1e12


def forward_third_kind(
    H: GridFunction, K: GridKernel, lam: complex, phi: GridFunction
) -> GridFunction:
    """psi = H phi - lambda K phi, evaluated cellwise with midpoint quadrature."""
    if not H.space == K.space == phi.space:
        raise ValueError("coefficient, kernel and function live on different grids")
    k_phi = K.apply(phi)
    return GridFunction(H.space, H.values * phi.values - lam * k_phi.values)


@dataclass(frozen=True, eq=False)
class KernelPencil:
    """Reduced equation data: shift alpha and matrices A0, A (lambda-free).

    A0 and A are float64 or complex128; `reduce_problem` keeps them float64
    when they are exactly real. The lambda-dependent matrices are complex
    either way and do not depend on that dtype: a real matrix enters their
    arithmetic as x + 0j, the value a complex one with zero imaginary part
    holds.
    """

    alpha: complex
    a0: CoefficientMatrix
    a: CoefficientMatrix

    @property
    def size(self) -> int:
        return self.a0.shape[0]

    @property
    def basis(self) -> SmoothBasis:
        return SmoothBasis(self.size)

    def system_matrix(self, lam: complex) -> np.ndarray:
        """alpha I + A0 - lambda A; affine in lambda by construction."""
        return (self.alpha * np.eye(self.size) + self.a0) - np.multiply(
            lam, self.a, dtype=complex
        )

    def _pencil_matrix(self, lam: complex, order: str) -> np.ndarray:
        """A0 - lambda A in one new n x n array of the given memory order; the
        values do not depend on the order."""
        d = np.multiply(self.a, -lam, order=order, dtype=complex)
        d += self.a0
        return d

    def pencil_kernel(self, lam: complex) -> BilinearKernel:
        """The kernel of A0 - lambda A."""
        return BilinearKernel(self._pencil_matrix(lam, "C"))

    def factorize(self, lam: complex) -> MFactorization:
        """m_factorize(A0 - lambda A), with the matrix formed in Fortran order
        and factored in place, so that the SVD's input is its only copy."""
        return m_factorize_in_place(self._pencil_matrix(lam, "F"))


def reduce_problem(seq: KorotkovSequence, U: UnitarySurrogate) -> KernelPencil:
    """Transform the sequence's problem into the lambda-free reduced pencil.

    A0 and A are the matrices of H - alpha and K over U, with alpha, H and K
    those the sequence was built for (H and K on its final grid), each kept
    as float64 when it is exactly real (real H, K and alpha). The
    right-hand side is not needed (its reduced form is g = U.forward(psi)).
    At full truncation the identity alpha f + (A0 - lambda A) f = g holds to
    rounding whenever psi came from the forward model at phi and f is the
    forward image of phi.
    """
    shifted = GridFunction(seq.space, seq.coefficient.values - seq.alpha)
    a0, a = pencil_matrices(U, shifted, seq.kernel)
    a0 = _real_if_exact(a0)
    a = _real_if_exact(a)
    return KernelPencil(alpha=seq.alpha, a0=a0, a=a)


def _real_if_exact(m: np.ndarray) -> np.ndarray:
    """The real part of `m` as a new float64 array when every imaginary part
    is +0.0 (no -0.0, no NaN), so that x + 0j gives `m` back; else `m`."""
    if m.imag.view(np.uint64).any():
        return m
    return np.ascontiguousarray(m.real)


@dataclass(frozen=True)
class SecondKindSolution:
    coefficients: np.ndarray
    residual: float
    condition: float


def solve_second_kind(
    pencil: KernelPencil, lam: complex, g: np.ndarray
) -> SecondKindSolution:
    """Dense solve of (alpha I + A0 - lambda A) c = g with a condition gate.

    Raises NearSingularError when the condition estimate exceeds 1e12,
    signalling lambda near a characteristic value.
    """
    if pencil.alpha == 0:
        raise ValueError("alpha must be nonzero for a genuine second-kind solve")
    g = np.asarray(g, dtype=complex)
    if g.shape != (pencil.size,):
        raise ValueError(f"expected {pencil.size} coefficients, got {g.shape}")
    system = pencil.system_matrix(lam)
    condition = condition_number(
        gesdd(np.array(system, dtype=complex, order="F"), vectors=False)
    )
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        raise NearSingularError(condition)
    c = np.linalg.solve(system, g)
    scale = float(np.linalg.norm(g))
    residual = float(np.linalg.norm(system @ c - g)) / (scale if scale else 1.0)
    return SecondKindSolution(coefficients=c, residual=residual, condition=condition)


@dataclass(frozen=True, eq=False)
class FirstKindProblem:
    """First-kind data: pencil with alpha = 0, multiplier matrix M, w = M g."""

    pencil: KernelPencil
    m_matrix: np.ndarray
    w: np.ndarray

    def gamma_pencil(self, lam: complex) -> BilinearKernel:
        return scale_by_multiplier(self.pencil.pencil_kernel(lam), self.m_matrix)


def make_first_kind(pencil: KernelPencil, g: np.ndarray) -> FirstKindProblem:
    """Multiply the reduced equation through by the Gaussian multiplier m.

    Requires alpha exactly 0 (otherwise the equation keeps its second-kind
    term and AlphaNotZeroError is raised). Since m is positive everywhere,
    the scaling is invertible on evaluations and preserves solution sets.
    """
    if pencil.alpha != 0:
        raise AlphaNotZeroError(f"alpha = {pencil.alpha} is not 0")
    m_mat = multiplier_matrix(pencil.basis)
    g = np.asarray(g, dtype=complex)
    if g.shape != (pencil.size,):
        raise ValueError(f"expected {pencil.size} coefficients, got {g.shape}")
    return FirstKindProblem(pencil=pencil, m_matrix=m_mat, w=m_mat @ g)


@dataclass(frozen=True)
class FirstKindSolution:
    coefficients: np.ndarray
    discarded_energy: float
    kept: int


def solve_first_kind(system: np.ndarray, w: np.ndarray, cutoff: float) -> FirstKindSolution:
    """Truncated-spectral pseudoinverse solve of system c = w.

    `system` is the first-kind matrix M (A0 - lambda A), for instance
    `FirstKindProblem.gamma_pencil(lam).multiplied_matrix`. Singular values
    below cutoff * sigma_max are discarded; `discarded_energy` is the
    fraction of ||w||^2 lost to the discarded left singular directions.
    Raises DegenerateSystemError when nothing survives the cutoff.
    """
    if not 0 < cutoff < 1:
        raise ValueError("cutoff must lie in (0, 1)")
    u, sigma, vh = gesdd(np.array(system, dtype=complex, order="F"), vectors=True)
    if sigma.size == 0 or sigma[0] <= 0:
        raise DegenerateSystemError("system matrix is zero")
    keep = sigma >= cutoff * sigma[0]
    if not np.any(keep):
        raise DegenerateSystemError("all singular values fell below the cutoff")
    projections = u.conj().T @ w
    inv = projections[keep] / sigma[keep]
    c = vh.conj().T[:, keep] @ inv
    total = float(np.linalg.norm(w) ** 2)
    discarded = float(np.sum(np.abs(projections[~keep]) ** 2)) / total if total else 0.0
    return FirstKindSolution(
        coefficients=c, discarded_energy=discarded, kept=int(np.sum(keep))
    )


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
    seq: KorotkovSequence,
    pencil: KernelPencil,
    U: UnitarySurrogate,
    lam: complex,
    phi: GridFunction,
    probes: ProbeGrid,
    cutoff: float = 1e-10,
    m_matrix: np.ndarray | None = None,
) -> EquivalenceReport:
    """Manufacture psi from phi and measure every testable identity.

    psi is the forward model of the sequence's H and K at lambda. `pencil` is
    the lambda-free reduction of the sequence over U (`reduce_problem`), built
    once per run; ValueError when its alpha or size says otherwise. Only
    g = U psi and what depends on lambda are computed here.
    Reports the relative passage residual ||alpha f + (A0 - lambda A) f - g||
    at f = U phi, the forward/inverse round trip error, and pencil-kernel
    diagnostics over the probe grid. With alpha = 0 the first-kind section is
    added from `m_matrix`, the Gaussian multiplier matrix over pencil.basis:
    multiplied-system residual, Hilbert-Schmidt bound slack, adjoint column
    decay, and the truncated-spectral recovery error. `probes` is the probe
    grid over pencil.basis, built once for all lambdas.

    D = A0 - lambda A is factorized once: its SVD gives the series tail and,
    with alpha = 0, the condition number; with alpha != 0 the condition is that
    of alpha I + D, from its singular values alone. Everything read from D
    itself comes first; D is then formed again in Fortran order and factored
    in place, so that no other n x n copy of it is alive during that SVD.
    With alpha = 0, D is dropped before the first-kind solve, so that M D is
    that solve's only n x n input.
    """
    alpha = pencil.alpha
    if alpha != seq.alpha:
        raise ValueError(f"pencil has alpha = {alpha}, the sequence {seq.alpha}")
    if pencil.size != U.size:
        raise ValueError(f"pencil has size {pencil.size}, the surrogate {U.size}")
    if alpha == 0 and m_matrix is None:
        raise ValueError("alpha = 0 needs the multiplier matrix of the pencil's basis")
    g = U.forward(forward_third_kind(seq.coefficient, seq.kernel, lam, phi))
    f = U.forward(phi)

    pk = pencil.pencil_kernel(lam)
    d = pk.matrix
    lhs = alpha * f + d @ f
    passage = _relative(float(np.linalg.norm(lhs - g)), float(np.linalg.norm(g)))
    round_trip_fn = U.inverse(f)
    diff = GridFunction(phi.space, round_trip_fn.values - phi.values)
    round_trip = _relative(diff.norm(), phi.norm())
    carleman_sup = float(np.max(carleman_row_norms(pk, probes)))
    hs = hs_norm(pk)

    discarded = None
    first_kind = None
    if alpha == 0:
        w = m_matrix @ g
        gamma_pencil = scale_by_multiplier(pk, m_matrix)
        fk_system = gamma_pencil.multiplied_matrix  # M (A0 - lambda A)
        fk_residual = _relative(
            float(np.linalg.norm(fk_system @ f - w)), float(np.linalg.norm(w))
        )
        hs_gamma = hs_norm(gamma_pencil)
        # sup_s ||t(s)|| of the plain pencil feeds the Hilbert-Schmidt bound
        bound = carleman_sup * GAUSSIAN_L2_NORM
        slack = max(0.0, hs_gamma - bound)
        gap = coefficient_form_gap(gamma_pencil, probes, probes)
        first_q, last_q = adjoint_column_quarter_maxima(fk_system)
        del gamma_pencil, pk, d  # M D is the only n x n input of the solve's SVD
        try:
            sol = solve_first_kind(fk_system, w, cutoff)
            discarded = sol.discarded_energy
            truncated = pencil.size - sol.kept
            recovery = _relative(
                float(np.linalg.norm(sol.coefficients - f)), float(np.linalg.norm(f))
            )
        except DegenerateSystemError:
            discarded = 1.0
            truncated = pencil.size
            recovery = float("inf")
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
        del fk_system
    else:
        shifted = np.array(d, order="F")
        shifted.flat[:: pencil.size + 1] += alpha
        condition = condition_number(gesdd(shifted, vectors=False))
        del shifted, pk, d
    # no other n x n copy of D is alive during its SVD

    fact = pencil.factorize(lam)
    if alpha == 0:
        condition = fact.condition
    tail = absolute_tail_sup(fact, probes, probes)

    return EquivalenceReport(
        passage_residual=passage,
        round_trip_error=round_trip,
        condition=condition,
        hs_norm=hs,
        carleman_sup=carleman_sup,
        tail_sup=tail,
        discarded_energy=discarded,
        projected=U.projected,
        first_kind=first_kind,
    )
