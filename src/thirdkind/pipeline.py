"""End-to-end orchestration shared by the CLI and the verification battery.

One run: sample H and K on the grid, build the damping sequence (which may
refine the grid), complete it to the paired unitary surrogate, derive the
run's lambda-free `Reduction` from the two and a seeded phi (the pencil
(A0, A), the probe grid, the manufactured problem's lambda-free half and,
with alpha = 0, the multiplier matrix), drop the sequence with its dense
kernel sample, and collect diagnostics per lambda against that one reduction.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .blas import one_blas_thread, started
from .config import RunConfig, make_coefficient, make_kernel
from .errors import ConfigError, NearSingularError
from .kernels import (
    BilinearKernel,
    MFactorization,
    adjoint_column_quarter_maxima,
    finite_difference_defect,
    polar_root,
    probe_grid,
    series_consistency,
    vanishing_at_radius,
)
from .measure import GridFunction, MeasureSpace, inner_product, row_blocks, scaled_norm
from .rademacher import KorotkovSequence, build_sequence
from .reduction import UnitarySurrogate, matrix_elements
from .solvers import (
    CONDITION_LIMIT,
    EquivalenceReport,
    KernelPencil,
    Reduction,
    verify_equivalence,
)

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
    """Everything one reduce command produces; `reduction.phi` is the
    manufactured solution of every report."""

    reduction: Reduction
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


def run_reduction(
    config: RunConfig, write: Callable[[dict, Reduction], None] | None = None
) -> ReductionRun:
    """The run's reduction and one report per lambda. With `write`, once the
    reduction exists, write(sequence report, reduction) runs on a thread of
    its own beside the lambda loop (the lambda-free outputs) and has ended
    when this returns or raises: its exception is raised after the loop, and
    the loop's, which carries the exit code, wins over it."""
    seq = prepare(config)
    surrogate = _surrogate(config, seq)
    with one_blas_thread():
        phi = random_grid_function(np.random.default_rng(config.seed), seq.space)
        points = probe_grid(config.probe_bound, config.probe_points)
        reduction = Reduction(seq, surrogate, points, phi)
        if write is not None:
            lambda_free = functools.partial(write, seq.to_report(), reduction)
            written = started("thirdkind-writer", lambda_free)
        del seq  # the lambda loop reads no kernel sample
        reports = None
        try:
            reports = [
                _gated_report(reduction, idx, lam, config.cutoff)[0]
                for idx, lam in enumerate(config.lambdas)
            ]
        finally:
            if write is not None:
                written(raising=reports is not None)
        return ReductionRun(reduction, reports)


def _gated_report(
    reduction: Reduction, idx: int, lam: complex, cutoff: float, factors: bool = False
) -> tuple[EquivalenceReport, MFactorization | None]:
    """verify_equivalence(reduction, lam, cutoff, factors=factors) for the
    config's lambda number `idx`. With alpha != 0 a report whose condition
    is not finite or exceeds CONDITION_LIMIT raises NearSingularError with
    that lambda, the gate `solve_second_kind` applies; with alpha = 0 no
    solve of alpha I + D is made, and nothing is gated."""
    report, fact = verify_equivalence(reduction, lam, cutoff, factors=factors)
    if reduction.pencil.alpha != 0 and not report.condition <= CONDITION_LIMIT:
        raise NearSingularError(report.condition, lam, idx)
    return report, fact


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
    0 < i + j <= 3, on a 5 x 5 grid of [-2.5, 2.5]^2, at the step FD_STEP."""
    return max(finite_difference_defect(kernel, np.linspace(-2.5, 2.5, 5)).values())


def factorization_defects(
    pencil: KernelPencil, lam: complex, w: np.ndarray, v: np.ndarray
) -> tuple[float, float]:
    """How well the explicit factors W, V of D = A0 - lambda A reproduce it:
    the relative Frobenius norm of W V* - D, and the worst gap between the
    direct and the factorized series of `pencil.pencil_kernel(lam)` at three
    points. D's own numbers come first: its norm and the series, from D
    formed once and dropped before the product. W V* reads V* as the
    transpose of v conjugated in place (and conjugated back after), and D's
    rows are then subtracted from it `row_blocks` at a time, as
    `KernelPencil.pencil_rows` forms them. So besides W and V one n x n
    array is alive at a time, D or the product."""
    kernel = pencil.pencil_kernel(lam)
    scale = float(scaled_norm(kernel.coefficient_matrix))
    series_defect = 0.0
    for s, t in ((0.3, -0.7), (-1.1, 0.4), (0.0, 0.0)):
        chk = series_consistency(kernel, w, v, 0, 0, s, t)
        series_defect = max(series_defect, abs(chk.direct - chk.via_factorization))
    del kernel
    np.conjugate(v, out=v)
    residual = w @ v.T
    np.conjugate(v, out=v)
    for rows in row_blocks(pencil.size):
        residual[rows] -= pencil.pencil_rows(lam, rows)
    recon = float(scaled_norm(residual))
    return (recon / scale if scale else recon), series_defect


def _adjoint_defect(
    space: MeasureSpace, b_rows: np.ndarray, images: np.ndarray, direct: np.ndarray
) -> float:
    """max |adj - direct^H| for the adjoint's matrix adj formed from its
    `images` of `b_rows` (`matrix_elements`), compared `row_blocks` at a
    time, so that no conjugate of `direct` nor a difference is made whole."""
    adj = matrix_elements(space, b_rows, images)
    gaps = [np.max(np.abs(adj[rows] - direct[:, rows].conj().T)) for rows in row_blocks(len(adj))]
    return float(np.max(gaps))


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
    with one_blas_thread():
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
        points = probe_grid(config.probe_bound, config.probe_points)
        reduction = Reduction(seq, surrogate, points, phi)
        pencil = reduction.pencil

        # adjoint consistency: each adjoint's matrix, from its images of the
        # surrogate's dense rows, against the pencil's, one adjoint at a time.
        # The kernel's images come first, so that its sample goes with the
        # sequence before any matrix is formed; all are dropped before the
        # reports. The symbol comes before the rows, as a small array left
        # above the freed rows moved verify's d9 peak RSS by 3 MiB
        shifted = seq.coefficient.values - pencil.alpha
        b_rows = surrogate.b_matrix
        images = seq.kernel.adjoint_image(b_rows)
        del seq  # the lambda loop reads no kernel sample
        integral = _adjoint_defect(space, b_rows, images, pencil.a)
        del images
        multiplication = _adjoint_defect(space, b_rows, b_rows * np.conj(shifted), pencil.a0)
        del b_rows
        add("adjoint_consistency_multiplication", multiplication, tol["adjoint_defect"])
        add("adjoint_consistency_integral", integral, tol["adjoint_defect"])

        # manufactured problems per lambda. Report 0's factorization of D at
        # the first lambda, the only one with singular vectors, also gives
        # the explicit W, V, the independent oracle of the reconstruction and
        # series checks listed below; it is dropped before the next report,
        # and the SVD is not kept. W comes first and u goes before V is formed
        lam0 = config.lambdas[0]
        report, fact = _gated_report(reduction, 0, lam0, config.cutoff, factors=True)
        w, sigma, vh = fact.w_factor(), fact.sigma, fact.vh
        del fact
        v = polar_root(sigma, vh)
        del vh
        recon, series_defect = factorization_defects(pencil, lam0, w, v)
        del w, v
        reports = [report] + [
            _gated_report(reduction, idx, lam, config.cutoff)[0]
            for idx, lam in enumerate(config.lambdas[1:], start=1)
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

        add(
            "kernel_vanishing_at_radius",
            vanishing_at_radius(pk, probe_grid(config.probe_bound, 9)),
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
