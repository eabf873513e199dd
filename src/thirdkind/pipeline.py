"""End-to-end orchestration shared by the CLI and the verification battery.

One run: sample H and K on the grid, build the damping sequence (which may
refine the grid), complete it to the paired unitary surrogate, derive the
run's lambda-free `Reduction` from the two (the pencil (A0, A), the probe
grid and, with alpha = 0, the multiplier matrix), and collect diagnostics
per lambda on seeded manufactured problems against that one reduction.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .blas import blas_threads_for
from .config import RunConfig, make_coefficient, make_kernel
from .errors import ConfigError
from .kernels import (
    BilinearKernel,
    adjoint_column_quarter_maxima,
    finite_difference_defect,
    probe_grid,
    series_consistency,
    vanishing_at_radius,
)
from .measure import (
    GridFunction,
    IntegralOperator,
    MeasureSpace,
    MultiplicationOperator,
    inner_product,
)
from .rademacher import KorotkovSequence, build_sequence
from .reduction import UnitarySurrogate, matrix_elements
from .solvers import EquivalenceReport, Reduction, verify_equivalence

# unused here, but perfbench/tracer.py lists this module as a site binding them
from .hermite import multiplier_matrix  # noqa: F401
from .kernels import m_factorize  # noqa: F401
from .solvers import reduce_problem  # noqa: F401


def random_grid_function(
    rng: np.random.Generator, space: MeasureSpace
) -> GridFunction:
    n = space.cell_count
    return GridFunction(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True, eq=False)
class ReductionRun:
    """Everything one reduce command produces."""

    reduction: Reduction
    phi: GridFunction
    reports: list[EquivalenceReport]  # one per lambda, same order as config


def prepare(config: RunConfig) -> KorotkovSequence:
    """Sample H and K on the grid and build the damping sequence (no solves
    yet); the sequence carries alpha, its final grid, and H and K there."""
    space = MeasureSpace(config.depth)
    return build_sequence(
        make_coefficient(config.coefficient, space),
        make_kernel(config.kernel, space),
        config.alpha,
        config.bands,
        config.eps0,
        config.ratio,
        config.depth_max,
    )


def _surrogate(config: RunConfig, seq: KorotkovSequence) -> UnitarySurrogate:
    """The sequence's completion at the config's basis size."""
    try:
        return UnitarySurrogate.from_sequence(seq, config.basis_size)
    except ValueError as exc:
        # a built sequence completes; only the size can be off its final grid
        raise ConfigError(
            f"basis_size {config.basis_size!r} does not fit the final grid "
            f"(depth {seq.space.depth}): {exc}"
        ) from None


def run_reduction(config: RunConfig) -> ReductionRun:
    seq = prepare(config)
    surrogate = _surrogate(config, seq)
    with blas_threads_for(surrogate.size):
        rng = np.random.default_rng(config.seed)
        phi = random_grid_function(rng, seq.space)
        reduction = Reduction(
            seq, surrogate, probe_grid(config.probe_bound, config.probe_points)
        )
        reports = [
            verify_equivalence(reduction, lam, phi, config.cutoff)[0]
            for lam in config.lambdas
        ]
        return ReductionRun(reduction=reduction, phi=phi, reports=reports)


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class VerificationResult:
    checks: list[Check]
    reports: list[EquivalenceReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "reports": [r.to_dict() for r in self.reports],
        }


def kernel_derivative_fd_defect(kernel: BilinearKernel) -> float:
    """Worst finite-difference defect of the kernel's (i, j) derivatives,
    0 < i + j <= 3, on a 5 x 5 grid of [-2.5, 2.5]^2."""
    # higher orders carry larger magnitudes; shrink the step to keep the
    # truncation term comparable across orders
    defects = finite_difference_defect(
        kernel, np.linspace(-2.5, 2.5, 5), {1: 1e-4, 2: 1e-5, 3: 1e-5}
    )
    return max(defects.values())


def factorization_defects(
    kernel: BilinearKernel, w: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """How well the explicit factors W, V of the kernel's coefficient matrix
    A reproduce it: the relative Frobenius norm of W V* - A, and the worst
    gap between the direct and the factorized series at three points."""
    residual = w @ v.conj().T
    residual -= kernel.coefficient_matrix
    recon = float(np.linalg.norm(residual, "fro"))
    del residual
    scale = float(np.linalg.norm(kernel.coefficient_matrix, "fro"))
    series_defect = 0.0
    for s, t in ((0.3, -0.7), (-1.1, 0.4), (0.0, 0.0)):
        chk = series_consistency(kernel, w, v, 0, 0, s, t)
        series_defect = max(series_defect, abs(chk.direct - chk.via_factorization))
    return (recon / scale if scale else recon), series_defect


def run_verification(config: RunConfig) -> VerificationResult:
    """Run the full property battery for one configuration."""
    tol = config.tolerances
    checks: list[Check] = []

    def add(name: str, value: float, tolerance: float, strict_less: bool = False):
        ok = value < tolerance if strict_less else value <= tolerance
        checks.append(Check(name, float(value), float(tolerance), bool(ok)))

    seq = prepare(config)
    surrogate = _surrogate(config, seq)
    space = seq.space
    # the battery and every per-lambda report; prepare keeps the inherited
    # thread count, since deep projected runs spend it in large kernel matvecs
    with blas_threads_for(surrogate.size):
        rng = np.random.default_rng(config.seed)

        # damping sequence invariants
        gram = seq.gram_matrix()
        add(
            "sequence_gram_defect",
            float(np.max(np.abs(gram - np.eye(len(seq))))),
            tol["gram_defect"],
        )
        eps = seq.epsilons
        add(
            "sequence_coefficient_decay",
            float(np.max(seq.norm_coefficient / eps)),
            1.0,
        )
        n_idx = np.arange(1, len(seq) + 1)
        add(
            "sequence_kernel_decay",
            float(np.max((seq.norm_kernel + seq.norm_kernel_adjoint) * n_idx)),
            1.0,
        )

        # surrogate unitarity on random pairs
        iso_defect = 0.0
        trip_defect = 0.0
        for _ in range(20):
            a = random_grid_function(rng, space)
            b = random_grid_function(rng, space)
            ca, cb = surrogate.forward(a), surrogate.forward(b)
            iso_defect = max(
                iso_defect,
                abs(complex(np.vdot(cb, ca)) - inner_product(a, b)),
            )
            back = surrogate.inverse(ca)
            trip_defect = max(
                trip_defect,
                GridFunction(space, back.values - a.values).norm(),
            )
        add("unitary_isometry_defect", iso_defect, tol["gram_defect"])
        add("unitary_round_trip", trip_defect, tol["round_trip"])

        phi = random_grid_function(rng, space)
        reduction = Reduction(
            seq, surrogate, probe_grid(config.probe_bound, config.probe_points)
        )
        pencil = reduction.pencil

        # adjoint consistency of the coefficient matrices
        mult = MultiplicationOperator(
            GridFunction(space, seq.coefficient.values - pencil.alpha)
        )
        integ = IntegralOperator(seq.kernel)
        # the dense rows of the surrogate serve both checks; neither they nor
        # a matrix is kept into the per-lambda reports, where peak memory is set
        b_rows = surrogate.b_matrix
        for name, op, direct in (("multiplication", mult, pencil.a0), ("integral", integ, pencil.a)):
            adj = matrix_elements(op.adjoint(), b_rows)
            add(
                f"adjoint_consistency_{name}",
                float(np.max(np.abs(adj - direct.conj().T))),
                tol["adjoint_defect"],
            )
            del adj
        del b_rows

        # manufactured problems per lambda. Report 0's factorization of D at
        # the first lambda also gives the explicit W, V, the independent
        # oracle of the reconstruction and series checks listed below; it is
        # dropped before the next report, and the SVD is not kept
        lam0 = config.lambdas[0]
        report, fact = verify_equivalence(reduction, lam0, phi, config.cutoff)
        w, v = fact.polar_factors()
        del fact
        recon, series_defect = factorization_defects(pencil.pencil_kernel(lam0), w, v)
        del w, v
        reports = [report] + [
            verify_equivalence(reduction, lam, phi, config.cutoff)[0]
            for lam in config.lambdas[1:]
        ]
        for idx, report in enumerate(reports):
            add(f"passage_residual_lambda{idx}", report.passage_residual, tol["passage_residual"])
            add(f"round_trip_lambda{idx}", report.round_trip_error, tol["round_trip"])

        # pencil affinity in lambda, on the unshifted pencil (alpha is
        # lambda-free): pencil_kernel's own product and sum, so exact
        lam_probe = 0.37 + 0.21j
        affine = pencil.pencil_kernel(0.0).matrix
        affine += np.multiply(pencil.a, -lam_probe, dtype=complex)
        affinity = np.max(np.abs(pencil.pencil_kernel(lam_probe).matrix - affine))
        del affine
        add("pencil_lambda_affinity", float(affinity), 0.0)

        # kernel calculus on the pencil kernel at the first lambda
        pk = pencil.pencil_kernel(lam0)
        add(
            "kernel_derivative_fd_defect",
            kernel_derivative_fd_defect(pk),
            tol["derivative_agreement"],
        )

        radius = 8.0 + np.sqrt(2.0 * surrogate.size)
        add(
            "kernel_vanishing_at_radius",
            vanishing_at_radius(pk, radius, probe_grid(config.probe_bound, 9)),
            tol["vanishing_tail"],
        )
        del pk
        add("factorization_reconstruction", recon, 1e-10)
        add("series_consistency", series_defect, 1e-10)

        # first-kind section
        if pencil.alpha == 0:
            fk = reports[0].first_kind
            add("first_kind_residual", fk.residual, tol["first_kind_residual"])
            add("hs_bound_slack", fk.bound_slack, 1e-9)
            # the multiplier's own damping profile is the deterministic decay
            # witness; the pipeline matrices' quarter maxima sit in the report
            first_q, last_q = adjoint_column_quarter_maxima(reduction.m_matrix)
            add("multiplier_damping_decay_ratio", last_q / first_q, 1.0, strict_less=True)
            if fk.truncated_directions == 0:
                add("first_kind_recovery", fk.recovery_error, 1e-8)

        return VerificationResult(checks=checks, reports=reports)
