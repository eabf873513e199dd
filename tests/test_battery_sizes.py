"""The verification battery at the sizes the CLI is meant for: N = 1024
(depth 10) in the default run, and under the `slow` marker (run it with
`pytest -m slow`) N = 2048 (depth 11) with alpha = 0.25 and alpha = 0, about
a minute and 0.6 GiB each, and the finite-difference check alone on the
pencil kernel at N = 4096 (depth 12), about 5 s and 0.9 GiB for each alpha.

`kernel_derivative_fd_defect` takes one step, 1e-4, for every derivative
order. With the step 1e-5 it once took for orders 2 and 3, on the config
below, it read 1.12e-5 at d11 with alpha = 0 and 1.6e-5 and 2.7e-5 at d12,
over its 1e-5 tolerance; it now reads 5.9e-7, 2.6e-6 and 3.5e-6 there.

`kernel_vanishing_at_radius` is read at the radius 8 + sqrt(2N), past
|s| = 37.6, where the seed exp(-s^2/2) of the Hermite recurrence is
subnormal or 0; the scaled recurrence keeps the values there right, so the
check reads a tiny positive number (5.6e-66 at N = 1024 and 1.6e-77 at
N = 2048 on the benchmark's shape, seed 101) and passes on its merits.
"""

import pytest

import thirdkind.pipeline as pipeline
from thirdkind.config import parse_config
from thirdkind.reduction import UnitarySurrogate
from thirdkind.solvers import reduce_problem


def _config(depth, alpha):
    return parse_config(
        {
            "depth": depth,
            "alpha": alpha,
            "lambda": [[0.39, -0.26], [0.48, -0.11]],
            "eps0": 0.25,
            "ratio": 0.5,
            "bands": 3,
            "coefficient": {"kind": "linear"},
            "kernel": {"kind": "exp_xy", "scale": 1.0},
            "seed": 23,
        }
    )


@pytest.mark.parametrize(
    "depth, alpha",
    [
        pytest.param(10, 0.25, id="10"),
        pytest.param(11, 0.25, id="11", marks=pytest.mark.slow),
        pytest.param(11, 0.0, id="11-alpha0", marks=pytest.mark.slow),
    ],
)
def test_every_check_passes_at_full_size(depth, alpha):
    result = pipeline.run_verification(_config(depth, alpha))
    assert len(result.reports) == 2
    assert [c.name for c in result.checks if not c.passed] == []


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [0.25, 0.0])
def test_fd_check_passes_at_4096(alpha):
    config = _config(12, alpha)
    seq = pipeline.prepare(config)
    pencil = reduce_problem(seq, UnitarySurrogate.from_sequence(seq, config.basis_size))
    assert pencil.size == 4096
    pk = pencil.pencil_kernel(config.lambdas[0])
    del seq, pencil
    assert pipeline.kernel_derivative_fd_defect(pk) <= config.tolerances["derivative_agreement"]
