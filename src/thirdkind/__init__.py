"""Reduction of third-kind integral equations to smooth bi-Carleman kernel
pencils, by unitary basis pairing over a dyadic grid model of L2[0, 1)."""

from .errors import (
    ConfigError,
    DegenerateSystemError,
    EmptyBandError,
    NearSingularError,
    NotBisectableError,
    RightHandSideOverflowError,
    SpaceMismatchError,
    ThirdKindError,
    ToleranceUnreachableError,
)
from .hermite import (
    GAUSSIAN_L2_NORM,
    SmoothBasis,
    gaussian,
    multiplier_matrix,
)
from .kernels import (
    BilinearKernel,
    MFactorization,
    ProbeGrid,
    carleman,
    eval_kernel,
    hs_norm,
    m_factorize,
    probe_grid,
    series_consistency,
)
from .measure import (
    GridFunction,
    GridKernel,
    MeasurableSet,
    MeasureSpace,
    band_set,
    inner_product,
    lift,
)
from .rademacher import (
    IndexSelection,
    KorotkovSequence,
    build_sequence,
    rademacher,
    select_index,
)
from .reduction import (
    UnitarySurrogate,
    complete_basis,
    matrix_elements,
    pencil_matrices,
)
from .solvers import (
    EquivalenceReport,
    FirstKindSolution,
    KernelPencil,
    Reduction,
    forward_third_kind,
    reduce_problem,
    solve_first_kind,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearKernel",
    "ConfigError",
    "DegenerateSystemError",
    "EmptyBandError",
    "EquivalenceReport",
    "FirstKindSolution",
    "GAUSSIAN_L2_NORM",
    "GridFunction",
    "GridKernel",
    "IndexSelection",
    "KernelPencil",
    "KorotkovSequence",
    "MFactorization",
    "MeasurableSet",
    "MeasureSpace",
    "NearSingularError",
    "NotBisectableError",
    "ProbeGrid",
    "Reduction",
    "RightHandSideOverflowError",
    "SmoothBasis",
    "SpaceMismatchError",
    "ThirdKindError",
    "ToleranceUnreachableError",
    "UnitarySurrogate",
    "band_set",
    "build_sequence",
    "carleman",
    "complete_basis",
    "eval_kernel",
    "forward_third_kind",
    "gaussian",
    "hs_norm",
    "inner_product",
    "lift",
    "m_factorize",
    "matrix_elements",
    "multiplier_matrix",
    "pencil_matrices",
    "probe_grid",
    "rademacher",
    "reduce_problem",
    "select_index",
    "series_consistency",
    "solve_first_kind",
    "verify_equivalence",
]
