"""One pencil per run: the pipeline reduces once and shares the result."""

import functools
import tracemalloc

import numpy as np
import pytest

import thirdkind.hermite as hermite
import thirdkind.kernels as kernels
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


def test_verification_dict_keys_in_written_order():
    """verify.json keeps its key order: the result, then each check entry."""
    d = pipeline.run_verification(parse_config({**CONFIG, "alpha": 0.25})).to_dict()
    assert list(d) == ["passed", "checks", "reports"]
    for check in d["checks"]:
        assert list(check) == ["name", "value", "tolerance", "passed"]


def test_run_carries_the_pencil_it_reports_on():
    run = pipeline.run_reduction(parse_config({**CONFIG, "alpha": 0.25}))
    pencil = run.reduction.pencil
    assert pencil.alpha == 0.25
    assert pencil.size == run.reduction.surrogate.size
    # the pencil is Hermitian here (real H, real symmetric K)
    np.testing.assert_allclose(pencil.a0, pencil.a0.conj().T, atol=1e-12)
    np.testing.assert_allclose(pencil.a, pencil.a.conj().T, atol=1e-12)


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


def test_probe_values_built_once_per_run(monkeypatch):
    """The basis values at the probe grid do not depend on lambda, so the
    Hermite recurrence runs as often for three lambdas as for one."""
    calls = []
    original = hermite.hermite_function_values

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(hermite, "hermite_function_values", counted)
    per_run = []
    for lambdas in (CONFIG["lambda"][:1], CONFIG["lambda"]):
        calls.clear()
        pipeline.run_reduction(parse_config({**CONFIG, "alpha": 0.0, "lambda": lambdas}))
        per_run.append(len(calls))
    assert per_run[0] == per_run[1] > 0


DEPTH8 = {**CONFIG, "depth": 8, "lambda": [[0.5, 0.25]], "seed": 7}


def _traced_peaks(monkeypatch, run, config):
    """Traced peaks of one run, started from zero: one per per-lambda report,
    and one per stretch outside them (before the first, between each two,
    and after the last)."""
    reports, outside = [], []
    original = pipeline.verify_equivalence

    def measured(*args, **kwargs):
        outside.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        result = original(*args, **kwargs)
        reports.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(pipeline, "verify_equivalence", measured)
    tracemalloc.start()
    try:
        run(config)
        outside.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return reports, outside


def test_battery_peaks_no_higher_than_a_report(monkeypatch):
    """No stage of the battery, its reports included, rises above the traced
    peak of a report of `reduce` plus 4 N^2 B: not the adjoint checks with
    the dense surrogate rows, not the reconstruction from report 0's
    factorization between reports 0 and 1, not the kernel calculus after
    the reports. A battery array kept into a report raises that report."""
    config = parse_config({**DEPTH8, "alpha": 0.25, "lambda": [[0.5, 0.25], [0.3, -0.2]]})
    pipeline.run_reduction(config)  # imports and caches made once per process are not traced
    reference, _ = _traced_peaks(monkeypatch, pipeline.run_reduction, config)
    reports, outside = _traced_peaks(monkeypatch, pipeline.run_verification, config)
    n = 256  # the pencil size at DEPTH8 (see _pencil_kernel)
    assert len(reports) == len(reference) == 2 and len(outside) == 3
    assert max(reports + outside) <= max(reference) + 4 * n * n


@pytest.mark.parametrize("alpha, full, values", [(0.25, 1, 1), (0.0, 2, 0)])
def test_one_full_svd_per_lambda_in_the_battery(monkeypatch, alpha, full, values):
    """The battery factors no D again: per lambda, the report's SVDs only
    (D, and alpha I + D's values or, with alpha = 0, M D)."""
    calls = {"full": 0, "values": 0}
    original = solvers.gesdd

    def counted(a, *, vectors):
        calls["full" if vectors else "values"] += 1
        return original(a, vectors=vectors)

    # every module of the package that binds the entry point
    for module in (kernels, solvers):
        monkeypatch.setattr(module, "gesdd", counted)
    result = pipeline.run_verification(parse_config({**CONFIG, "alpha": alpha}))
    k = len(CONFIG["lambda"])
    assert result.passed
    assert calls == {"full": full * k, "values": values * k}


@functools.cache
def _pencil_kernel(alpha):
    """The depth-8 pencil kernel at the config's lambda, reduced once per alpha
    and shared by the pass and mutant tests."""
    config = parse_config({**DEPTH8, "alpha": alpha})
    pencil = pipeline.run_reduction(config).reduction.pencil
    assert pencil.size == 256
    return pencil.pencil_kernel(config.lambdas[0]), config.tolerances


@pytest.mark.parametrize("alpha", [0.25, 0.0])
def test_fd_check_passes_at_256(alpha):
    """The Richardson oracle's own error stays under the check's tolerance at
    N = 256, where the plain central difference (1.8e-5) did not."""
    pk, tol = _pencil_kernel(alpha)
    assert pipeline.kernel_derivative_fd_defect(pk) <= tol["derivative_agreement"]


def _mutated_derivative_coefficients(k, factor):
    """hermite.derivative_coefficients with the ladder's up[k] scaled by
    1 + factor."""

    def derivative_coefficients(count, order):
        width = count + order
        coef = np.eye(count, width)
        idx = np.arange(width, dtype=np.float64)
        up = np.sqrt((idx + 1.0) / 2.0)
        if k < width:
            up[k] *= 1.0 + factor
        down = np.sqrt(idx / 2.0)
        for _ in range(order):
            nxt = np.zeros_like(coef)
            nxt[:, :-1] = coef[:, 1:] * up[:-1]
            nxt[:, 1:] -= coef[:, :-1] * down[1:]
            coef = nxt
        return coef

    return derivative_coefficients


def test_unmutated_copy_is_the_ladder():
    # the mutants below differ from the shipped ladder in up[k] only
    for order in (1, 2, 3):
        np.testing.assert_array_equal(
            _mutated_derivative_coefficients(3, 0.0)(40, order),
            hermite.derivative_coefficients(40, order),
        )


@pytest.mark.parametrize("k, factor", [(3, 1e-4), (40, 1e-5), (120, 1e-6)])
def test_fd_check_catches_a_ladder_error_at_256(monkeypatch, k, factor):
    pk, tol = _pencil_kernel(0.25)
    monkeypatch.setattr(
        hermite, "derivative_coefficients", _mutated_derivative_coefficients(k, factor)
    )
    assert pipeline.kernel_derivative_fd_defect(pk) > tol["derivative_agreement"]



def test_nan_check_value_fails(monkeypatch):
    """NaN never passes a gate: `nan <= tol` and `nan < tol` are both False."""
    nan = float("nan")
    monkeypatch.setattr(pipeline, "kernel_derivative_fd_defect", lambda kernel: nan)
    monkeypatch.setattr(pipeline, "adjoint_column_quarter_maxima", lambda m: (1.0, nan))
    result = pipeline.run_verification(parse_config({**CONFIG, "alpha": 0.0}))
    failed = {c.name for c in result.checks if not c.passed}
    assert failed == {"kernel_derivative_fd_defect", "multiplier_damping_decay_ratio"}
    assert not result.passed
