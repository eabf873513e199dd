"""One pencil per run: the pipeline reduces once and shares the result."""

import numpy as np
import pytest

import thirdkind.pipeline as pipeline
import thirdkind.reduction as reduction
import thirdkind.solvers as solvers
from thirdkind.config import parse_config

CONFIG = {
    "depth": 6,
    "lambda": [[0.3, 0.1], [0.5, -0.2], [0.7, 0.3]],
    "eps0": 0.25,
    "ratio": 0.5,
    "bands": 3,
    "coefficient": {"kind": "linear"},
    "kernel": {"kind": "exp_xy", "scale": 1.0},
    "seed": 11,
}


@pytest.fixture
def counts(monkeypatch):
    """Count reduce_problem and multiplier_matrix calls at every module that
    could make them on a run's behalf."""
    tally = {"reduce_problem": 0, "multiplier_matrix": 0}
    for name in tally:
        original = getattr(solvers, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        for module in (solvers, pipeline):
            monkeypatch.setattr(module, name, counted)
    return tally


@pytest.mark.parametrize("alpha", [0.25, 0.0])
def test_run_reduction_builds_one_pencil(counts, alpha):
    run = pipeline.run_reduction(parse_config({**CONFIG, "alpha": alpha}))
    assert len(run.reports) == 3
    assert counts == {"reduce_problem": 1, "multiplier_matrix": int(alpha == 0)}


@pytest.mark.parametrize("alpha", [0.25, 0.0])
def test_run_verification_builds_one_pencil(counts, alpha):
    result = pipeline.run_verification(parse_config({**CONFIG, "alpha": alpha}))
    assert len(result.reports) == 3
    assert counts == {"reduce_problem": 1, "multiplier_matrix": int(alpha == 0)}
    names = [c.name for c in result.checks]
    assert names.index("adjoint_consistency_integral") < names.index("passage_residual_lambda0")
    if alpha == 0:
        assert "multiplier_damping_decay_ratio" in names
        assert all(r.first_kind is not None for r in result.reports)


def test_run_carries_the_pencil_it_reports_on():
    run = pipeline.run_reduction(parse_config({**CONFIG, "alpha": 0.25}))
    assert run.pencil.alpha == 0.25
    assert run.pencil.size == run.surrogate.size
    # the pencil is Hermitian here (real H, real symmetric K)
    np.testing.assert_allclose(run.pencil.a0, run.pencil.a0.conj().T, atol=1e-12)
    np.testing.assert_allclose(run.pencil.a, run.pencil.a.conj().T, atol=1e-12)


def test_reduction_needs_no_generic_matrix_elements(monkeypatch):
    """The pencil comes from the structured path; only the battery's two
    adjoint checks use the generic operator-application path."""
    calls = []
    original = reduction.matrix_elements

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (reduction, solvers, pipeline):
        monkeypatch.setattr(module, "matrix_elements", counted)
    config = parse_config({**CONFIG, "alpha": 0.25})
    pipeline.run_reduction(config)
    assert len(calls) == 0
    pipeline.run_verification(config)
    assert len(calls) == 2
