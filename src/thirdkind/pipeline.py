"""End-to-end orchestration shared by the CLI and the verification battery.

One run: sample H and K on the grid, build the damping sequence (which may
refine the grid), complete it to the paired unitary surrogate, reduce once
to the lambda-free pencil (A0, A), and collect diagnostics per lambda on
seeded manufactured problems against that one pencil.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .blas import blas_threads_for
from .config import RunConfig, make_coefficient, make_kernel
from .errors import ConfigError
from .hermite import multiplier_matrix
from .kernels import (
    BilinearKernel,
    ProbeGrid,
    adjoint_column_quarter_maxima,
    finite_difference_defect,
    probe_grid,
    series_consistency,
    vanishing_at_radius,
)
# unused here, but perfbench/tracer.py lists this module as a site binding it
from .kernels import m_factorize  # noqa: F401
from .measure import (
    GridFunction,
    IntegralOperator,
    MeasureSpace,
    MultiplicationOperator,
    build_space,
    inner_product,
)
from .rademacher import KorotkovSequence, build_sequence
from .reduction import UnitarySurrogate, matrix_elements
from .solvers import (
    EquivalenceReport,
    KernelPencil,
    reduce_problem,
    verify_equivalence,
)


def random_grid_function(
    rng: np.random.Generator, space: MeasureSpace
) -> GridFunction:
    n = space.cell_count
    return GridFunction(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))


@dataclass(frozen=True, eq=False)
class ReductionRun:
    """Everything one reduce command produces."""

    config: RunConfig
    sequence: KorotkovSequence
    surrogate: UnitarySurrogate
    phi: GridFunction
    pencil: KernelPencil
    probes: ProbeGrid
    reports: list[EquivalenceReport]  # one per lambda, same order as config


def prepare(config: RunConfig) -> KorotkovSequence:
    """Sample H and K on the grid and build the damping sequence (no solves
    yet); the sequence carries alpha, its final grid, and H and K there."""
    space = build_space(config.depth)
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


def _build_pencil(config: RunConfig, seq, surrogate):
    """The run's lambda-free data, each built once per run: the pencil, the
    Gaussian multiplier matrix over its basis when alpha = 0, and the basis
    values at the probe grid."""
    pencil = reduce_problem(seq, surrogate)
    m_matrix = None
    if pencil.alpha == 0:
        m_matrix = multiplier_matrix(pencil.basis)
    probes = ProbeGrid(
        pencil.basis, probe_grid(config.probe_bound, config.probe_points)
    )
    return pencil, m_matrix, probes


def _equivalence_reports(
    config: RunConfig, seq, surrogate, phi, pencil, m_matrix, probes
) -> list[EquivalenceReport]:
    """One report per lambda of the config, all against the one pencil."""
    return [
        verify_equivalence(
            seq,
            pencil,
            surrogate,
            lam,
            phi,
            probes,
            cutoff=config.cutoff,
            m_matrix=m_matrix,
        )
        for lam in config.lambdas
    ]


def run_reduction(config: RunConfig) -> ReductionRun:
    seq = prepare(config)
    surrogate = _surrogate(config, seq)
    with blas_threads_for(surrogate.size):
        rng = np.random.default_rng(config.seed)
        phi = random_grid_function(rng, seq.space)
        pencil, m_matrix, probes = _build_pencil(config, seq, surrogate)
        return ReductionRun(
            config=config,
            sequence=seq,
            surrogate=surrogate,
            phi=phi,
            pencil=pencil,
            probes=probes,
            reports=_equivalence_reports(
                config, seq, surrogate, phi, pencil, m_matrix, probes
            ),
        )


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
    fd_points = np.linspace(-2.5, 2.5, 5)
    fd_defect = 0.0
    for i in range(4):
        for j in range(4 - i):
            if i == j == 0:
                continue
            # higher orders carry larger magnitudes; shrink the step to keep
            # the truncation term comparable across orders
            step = 1e-4 if i + j == 1 else 1e-5
            fd_defect = max(
                fd_defect,
                finite_difference_defect(kernel, i, j, fd_points, fd_points, step=step),
            )
    return fd_defect


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
        pencil, m_matrix, probes = _build_pencil(config, seq, surrogate)

        # adjoint consistency of the coefficient matrices
        mult = MultiplicationOperator(
            GridFunction(space, seq.coefficient.values - pencil.alpha)
        )
        integ = IntegralOperator(seq.kernel)
        for name, op, direct in (("multiplication", mult, pencil.a0), ("integral", integ, pencil.a)):
            adj = matrix_elements(op.adjoint(), surrogate.b_functions)
            add(
                f"adjoint_consistency_{name}",
                float(np.max(np.abs(adj - direct.conj().T))),
                tol["adjoint_defect"],
            )
            del adj  # not kept into the per-lambda loop, where peak memory is set

        # manufactured problems per lambda
        reports = _equivalence_reports(
            config, seq, surrogate, phi, pencil, m_matrix, probes
        )
        for idx, report in enumerate(reports):
            add(f"passage_residual_lambda{idx}", report.passage_residual, tol["passage_residual"])
            add(f"round_trip_lambda{idx}", report.round_trip_error, tol["round_trip"])

        # pencil affinity in lambda: same floating-point path, so exact
        lam_probe = 0.37 + 0.21j
        affinity = np.max(
            np.abs(
                pencil.system_matrix(lam_probe)
                - (pencil.system_matrix(0.0) - lam_probe * pencil.a)
            )
        )
        add("pencil_lambda_affinity", float(affinity), 0.0)

        # kernel calculus on the pencil kernel at the first lambda
        pk = pencil.pencil_kernel(config.lambdas[0])
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

        # the explicit W, V are the independent oracle; the SVD is not kept.
        # D is factored in place while no other copy of it is alive, and
        # formed again for the residual, which is taken in place
        del pk
        w, v = pencil.factorize(config.lambdas[0]).polar_factors()
        pk = pencil.pencil_kernel(config.lambdas[0])
        residual = w @ v.conj().T
        residual -= pk.coefficient_matrix
        recon = float(np.linalg.norm(residual, "fro"))
        del residual
        scale = float(np.linalg.norm(pk.coefficient_matrix, "fro"))
        add("factorization_reconstruction", recon / scale if scale else recon, 1e-10)
        series_defect = 0.0
        for s, t in ((0.3, -0.7), (-1.1, 0.4), (0.0, 0.0)):
            chk = series_consistency(pk, w, v, 0, 0, s, t)
            series_defect = max(series_defect, abs(chk.direct - chk.via_factorization))
        add("series_consistency", series_defect, 1e-10)

        # first-kind section
        if pencil.alpha == 0:
            fk = reports[0].first_kind
            add("first_kind_residual", fk.residual, tol["first_kind_residual"])
            add("hs_bound_slack", fk.bound_slack, 1e-9)
            # the multiplier's own damping profile is the deterministic decay
            # witness; the pipeline matrices' quarter maxima sit in the report
            first_q, last_q = adjoint_column_quarter_maxima(m_matrix)
            add("multiplier_damping_decay_ratio", last_q / first_q, 1.0, strict_less=True)
            if fk.truncated_directions == 0:
                add("first_kind_recovery", fk.recovery_error, 1e-8)

        return VerificationResult(checks=checks, reports=reports)
