"""`run_reduction` and `run_verification` against one plain dense run
(`reference.DenseRun`) at depths 6 to 8: every field of every report and
every check value of the battery.

A field that carries a value is compared relatively, within the bound
listed for it; each bound sits one to three orders above the worst ratio
|package - reference| / |reference| measured over the cases below, which
is noted beside it. A field that is rounding at full truncation (an
identity's defect, a difference quotient's error) has no value to compare:
both sides must sit under the tolerance of its check. In a projected run
the surrogate's identities measure the projection instead, and those fields
are compared by their bounds.
"""

import re

import pytest

from thirdkind import pipeline
from thirdkind.config import parse_config

from reference import DenseRun

# the benchmark's shape: H = y, exp(x y), 3 bands, two complex lambdas
BASE = {
    "lambda": [[0.39, -0.26], [0.48, -0.11]],
    "eps0": 0.25,
    "ratio": 0.5,
    "bands": 3,
    "coefficient": {"kind": "linear"},
    "kernel": {"kind": "exp_xy", "scale": 1.0},
    "seed": 23,
}

# N = 64, 128, 128, 128, 256, 256, and 128 of 256 cells
CASES = {
    "d6": {"depth": 6, "alpha": 0.25},
    "d6-alpha0": {"depth": 6, "alpha": 0.0},
    "d7": {"depth": 7, "alpha": 0.25},
    "d7-alpha0": {"depth": 7, "alpha": 0.0},
    "d8": {"depth": 8, "alpha": 0.25},
    "d8-alpha0": {"depth": 8, "alpha": 0.0},
    "d8-alpha0-projected": {"depth": 8, "alpha": 0.0, "basis_size": 128},
}

BOUNDS = {
    # report fields
    "condition": 1e-12,  # 8.5e-14
    "hs_norm": 1e-13,  # 8.2e-16
    "carleman_sup": 1e-13,  # 0
    "tail_sup": 1e-13,  # 1.3e-15
    # the truncated solve's own sensitivity at the cutoff 1e-10
    "discarded_energy": 1e-3,  # 1.0e-5
    "recovery_error": 1e-6,  # 1.4e-8
    "hs_norm_pencil": 1e-12,  # 1.5e-14
    # Z_k Y against the dense M D: eps ||M|| ||D|| at the probe values
    "coefficient_form_gap": 1e-10,  # 5.1e-12
    "column_first_quarter_max": 1e-12,  # 9.2e-15
    "column_last_quarter_max": 1e-12,  # 8.2e-15
    # check values
    "sequence_coefficient_decay": 1e-13,  # 1.5e-16
    "sequence_kernel_decay": 1e-13,  # 1.8e-16
    "kernel_vanishing_at_radius": 1e-12,  # 0
    # M by the row recurrence against the Gauss-Hermite rule
    "multiplier_damping_decay_ratio": 1e-12,  # 2.9e-14
    # projected runs only: the projection's defects
    "passage_residual": 1e-13,  # 1.6e-16
    "round_trip_error": 1e-13,  # 0
    "round_trip": 1e-13,  # 0
    "unitary_isometry_defect": 1e-13,  # 0
    "unitary_round_trip": 1e-13,  # 0
    "residual": 1e-12,  # 1.7e-14
    "first_kind_residual": 1e-12,  # 2.4e-15
}

# equal on both sides
EXACT = {"projected", "multiplier_norm", "truncated_directions"}

# rounding at full truncation, with the check whose tolerance bounds it
ROUNDING = {
    "passage_residual": "passage_residual_lambda0",
    "round_trip_error": "round_trip_lambda0",
    "residual": "first_kind_residual",
    "bound_slack": "hs_bound_slack",
    "sequence_gram_defect": "sequence_gram_defect",
    "unitary_isometry_defect": "unitary_isometry_defect",
    "unitary_round_trip": "unitary_round_trip",
    "adjoint_consistency_multiplication": "adjoint_consistency_multiplication",
    "adjoint_consistency_integral": "adjoint_consistency_integral",
    "round_trip": "round_trip_lambda0",
    "pencil_lambda_affinity": "pencil_lambda_affinity",
    "kernel_derivative_fd_defect": "kernel_derivative_fd_defect",
    "factorization_reconstruction": "factorization_reconstruction",
    "series_consistency": "series_consistency",
    "first_kind_residual": "first_kind_residual",
    "hs_bound_slack": "hs_bound_slack",
}

# the surrogate's identities, which measure the projection in a projected run
PROJECTION = {
    "passage_residual", "round_trip_error", "round_trip", "residual",
    "unitary_isometry_defect", "unitary_round_trip", "first_kind_residual",
}


def _fields(report, prefix=""):
    """(key path, value) of every field of a report dict, nested first."""
    for key, value in report.items():
        if isinstance(value, dict):
            yield from _fields(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _agree(path, got, want, tolerance, projected):
    name = re.sub(r"_lambda\d+$", "", path.rpartition(".")[2])
    if name in EXACT or want is None:
        assert got == want, path
    elif name in ROUNDING and not (projected and name in PROJECTION):
        limit = tolerance[ROUNDING[name]]
        assert got <= limit and want <= limit, (path, got, want, limit)
    else:
        assert abs(got - want) <= BOUNDS[name] * abs(want), (path, got, want)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_runs_match_the_dense_reference(case):
    config = parse_config({**BASE, **case})
    dense = DenseRun(config)
    projected = dense.size < dense.cells
    assert projected == ("basis_size" in case)
    reduced = pipeline.run_reduction(config)
    verified = pipeline.run_verification(config)
    dense_reports, dense_checks = dense.verification()
    tolerance = {check.name: check.tolerance for check in verified.checks}

    assert [check.name for check in verified.checks] == list(dense_checks)
    for check in verified.checks:
        _agree(check.name, check.value, dense_checks[check.name], tolerance, projected)
    for reports, expected in (
        (reduced.reports, dense.reduction_reports()),
        (verified.reports, dense_reports),
    ):
        assert len(reports) == len(expected) == len(config.lambdas)
        for report, want in zip(reports, expected):
            got, want = dict(_fields(report.to_dict())), dict(_fields(want))
            assert list(got) == list(want)
            for path in got:
                _agree(path, got[path], want[path], tolerance, projected)
