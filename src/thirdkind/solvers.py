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
first-kind solve is ill-posed and needs a declared policy).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .blas import gesdd
from .errors import DegenerateSystemError, NearSingularError
from .hermite import GAUSSIAN_L2_NORM, SmoothBasis, multiplier_matrix
from .kernels import (
    BilinearKernel,
    MFactorization,
    ProbeGrid,
    absolute_tail_sup,
    adjoint_column_quarter_maxima,
    carleman,
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
        """alpha I + (A0 - lambda A) in one new Fortran-order array: D formed
        as `factorize` forms it, with alpha then added on the diagonal."""
        d = self._pencil_matrix(lam, "F")
        d.flat[:: self.size + 1] += self.alpha
        return d

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


@dataclass(frozen=True, eq=False)
class Reduction:
    """One run's lambda-free data, derived from the sequence and its surrogate.

    `pencil` is reduce_problem(sequence, surrogate), `probes` the basis values
    at `probe_points`, and `m_matrix` the Gaussian multiplier matrix over the
    pencil's basis when alpha = 0 (else None). None of them can be passed in,
    so they always belong to the sequence. ValueError when the surrogate lives
    on another grid than the sequence.
    """

    sequence: KorotkovSequence
    surrogate: UnitarySurrogate
    probe_points: np.ndarray
    pencil: KernelPencil = field(init=False)
    probes: ProbeGrid = field(init=False, repr=False)
    m_matrix: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if self.surrogate.space != self.sequence.space:
            raise ValueError("the surrogate lives on another grid than the sequence")
        pencil = reduce_problem(self.sequence, self.surrogate)
        object.__setattr__(self, "pencil", pencil)
        object.__setattr__(self, "probes", ProbeGrid(pencil.basis, self.probe_points))
        m_matrix = multiplier_matrix(pencil.basis) if pencil.alpha == 0 else None
        object.__setattr__(self, "m_matrix", m_matrix)


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
    scale = float(np.linalg.norm(g))
    residual = float(np.linalg.norm(system @ c - g)) / (scale if scale else 1.0)
    return SecondKindSolution(coefficients=c, residual=residual, condition=condition)


@dataclass(frozen=True)
class FirstKindSolution:
    coefficients: np.ndarray
    discarded_energy: float
    kept: int


def solve_first_kind(system: np.ndarray, w: np.ndarray, cutoff: float) -> FirstKindSolution:
    """Truncated-spectral pseudoinverse solve of system c = w.

    `system` is the first-kind matrix M (A0 - lambda A), for instance
    `scale_by_multiplier(run.pencil.pencil_kernel(lam), run.m_matrix)
    .multiplied_matrix` with w = run.m_matrix @ g. Singular values
    below cutoff * sigma_max are discarded; `discarded_energy` is the
    fraction of ||w||^2 lost to the discarded left singular directions.
    Raises DegenerateSystemError when nothing survives the cutoff.
    `system` is left as it is: the SVD factors a Fortran-order copy.
    """
    return _solve_first_kind(np.array(system, dtype=complex, order="F"), w, cutoff)


def _solve_first_kind(a: np.ndarray, w: np.ndarray, cutoff: float) -> FirstKindSolution:
    """`solve_first_kind` on a writeable complex Fortran-order `a`, which
    the SVD overwrites."""
    if not 0 < cutoff < 1:
        raise ValueError("cutoff must lie in (0, 1)")
    u, sigma, vh = gesdd(a, vectors=True)
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
    run: Reduction, lam: complex, phi: GridFunction, cutoff: float = 1e-10
) -> tuple[EquivalenceReport, MFactorization]:
    """Manufacture psi from phi and measure every testable identity.

    Returns the report together with the factorization of D = A0 - lambda A
    that it takes its tail and condition from; a caller that needs no more
    of D drops it at once.

    psi is the forward model of the sequence's H and K at lambda; the pencil,
    the probe grid and, with alpha = 0, the multiplier matrix are those of
    `run`, built once per run. Only g = U psi and what depends on lambda are
    computed here.
    Reports the relative passage residual ||alpha f + (A0 - lambda A) f - g||
    at f = U phi, the forward/inverse round trip error, and pencil-kernel
    diagnostics over the probe grid. With alpha = 0 the first-kind section is
    added: multiplied-system residual, Hilbert-Schmidt bound slack, adjoint
    column decay, and the truncated-spectral recovery error.

    D = A0 - lambda A is factorized once: its SVD gives the series tail and,
    with alpha = 0, the condition number; with alpha != 0 the condition is that
    of `pencil.system_matrix(lam)`, alpha I + D, from its singular values
    alone, taken after D is dropped. Everything read from D itself comes
    first; D is then formed again in Fortran order and factored in place, so
    that no other n x n copy of it is alive during that SVD.
    With alpha = 0, D is dropped before the first-kind solve, and M D is
    read first in C order, then moved to Fortran order and factored in
    place, so that the solve's SVD input is its only copy.
    """
    seq, U, pencil = run.sequence, run.surrogate, run.pencil
    probes, m_matrix = run.probes, run.m_matrix
    alpha = pencil.alpha
    g = U.forward(forward_third_kind(seq.coefficient, seq.kernel, lam, phi))
    f = U.forward(phi)

    pk = pencil.pencil_kernel(lam)
    d = pk.matrix
    lhs = alpha * f + d @ f
    passage = _relative(float(np.linalg.norm(lhs - g)), float(np.linalg.norm(g)))
    round_trip_fn = U.inverse(f)
    diff = GridFunction(phi.space, round_trip_fn.values - phi.values)
    round_trip = _relative(diff.norm(), phi.norm())
    carleman_sup = float(np.max(np.linalg.norm(carleman(pk, "row", 0, probes), axis=0)))
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
        del gamma_pencil, pk, d
        fk_system = np.asfortranarray(fk_system)  # the solve's only copy of M D
        try:
            sol = _solve_first_kind(fk_system, w, cutoff)
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
        del pk, d
        condition = condition_number(gesdd(pencil.system_matrix(lam), vectors=False))
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
    ), fact
