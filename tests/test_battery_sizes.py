"""The verification battery at the sizes the CLI is meant for: N = 1024
(depth 10) in the default run, and N = 2048 (depth 11) under the `slow`
marker (about a minute and 0.6 GiB; run it with `pytest -m slow`).

What these runs cannot show: `kernel_vanishing_at_radius` reads exactly 0
at both sizes, because the Hermite values underflow to 0 before the radius
8 + sqrt(2N). The check passes there without testing anything until the
recurrence is scaled to stay representable.
"""

import pytest

import thirdkind.pipeline as pipeline
from thirdkind.config import parse_config


@pytest.mark.parametrize("depth", [10, pytest.param(11, marks=pytest.mark.slow)])
def test_every_check_passes_at_full_size(depth):
    config = parse_config(
        {
            "depth": depth,
            "alpha": 0.25,
            "lambda": [[0.39, -0.26], [0.48, -0.11]],
            "eps0": 0.25,
            "ratio": 0.5,
            "bands": 3,
            "coefficient": {"kind": "linear"},
            "kernel": {"kind": "exp_xy", "scale": 1.0},
            "seed": 23,
        }
    )
    result = pipeline.run_verification(config)
    assert len(result.reports) == 2
    assert [c.name for c in result.checks if not c.passed] == []
