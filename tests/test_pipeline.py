"""One pencil per run: the pipeline reduces once and shares the result."""

import functools
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import thirdkind.hermite as hermite
import thirdkind.kernels as kernels
import thirdkind.pipeline as pipeline
import thirdkind.reduction as reduction
import thirdkind.solvers as solvers
from thirdkind.config import parse_config
from thirdkind.errors import NearSingularError
from thirdkind.measure import GridKernel

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


@pytest.mark.parametrize("loop_fails", [False, True])
@pytest.mark.parametrize("write_fails", [False, True])
def test_writer_runs_beside_the_lambda_loop(loop_fails, write_fails):
    """run_reduction's `write` gets the sequence report and the reduction on
    a thread of its own, which has ended when the run returns or raises.
    Its error is raised after the loop; the loop's own error wins."""
    seen = []

    def write(sequence_report, reduction):
        seen.append((threading.current_thread().name, sequence_report["depth"], reduction))
        if write_fails:
            raise OSError("disk full")

    lambdas = [[0.3, 0.1], [1e300, 0.0]] if loop_fails else CONFIG["lambda"]
    config = parse_config({**CONFIG, "alpha": 0.25, "lambda": lambdas})
    if loop_fails or write_fails:
        expected = NearSingularError if loop_fails else OSError
        with pytest.raises(expected):
            pipeline.run_reduction(config, write)
    else:
        run = pipeline.run_reduction(config, write)
        assert seen[0][2] is run.reduction
    assert [(name, depth) for name, depth, _ in seen] == [("thirdkind-writer", 6)]


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
    adjoint checks use the generic dense path, on their adjoint images of the
    surrogate's rows."""
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


@pytest.mark.parametrize("moved", ["a0", "a"])
def test_adjoint_oracle_catches_a_moved_entry(monkeypatch, moved):
    """The adjoint checks read the operators, not the pencil: moving one
    off-diagonal entry of A0 or A by 1e-6 fails that matrix's check only."""
    original = solvers.pencil_matrices

    def perturbed(*args, **kwargs):
        a0, a = original(*args, **kwargs)
        (a0 if moved == "a0" else a)[1, 2] += 1e-6
        return a0, a

    monkeypatch.setattr(solvers, "pencil_matrices", perturbed)
    result = pipeline.run_verification(parse_config({**CONFIG, "alpha": 0.25}))
    checks = {c.name: c for c in result.checks}
    hit = "multiplication" if moved == "a0" else "integral"
    missed = "integral" if moved == "a0" else "multiplication"
    assert checks[f"adjoint_consistency_{hit}"].value >= 9e-7
    assert not checks[f"adjoint_consistency_{hit}"].passed
    assert checks[f"adjoint_consistency_{missed}"].passed


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
    and after the last). The reports run as shipped, the lane beside D's
    SVD, whose vectors wait for it, so no peak depends on which thread
    ends first."""
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
    peak of a report of `reduce` plus 1 N^2 B: not the adjoint checks with
    the dense surrogate rows and the kernel's images, not the reconstruction
    from report 0's factorization between reports 0 and 1, not the kernel
    calculus after the reports. A battery array kept into a report raises
    that report. Measured at 79.2-79.4 N^2 B for the battery's reports and
    68.7, 69.7 and 58.6 outside them, against 78.8-78.9 for `reduce`: a
    report is one stepwise SVD with the pencil beside it, and every stage
    outside holds at most three n x n complex arrays besides the pencil."""
    config = parse_config({**DEPTH8, "alpha": 0.25, "lambda": [[0.5, 0.25], [0.3, -0.2]]})
    pipeline.run_reduction(config)  # imports and caches made once per process are not traced
    reference, _ = _traced_peaks(monkeypatch, pipeline.run_reduction, config)
    reports, outside = _traced_peaks(monkeypatch, pipeline.run_verification, config)
    n = 256  # the pencil size at DEPTH8 (see _pencil_kernel)
    assert len(reports) == len(reference) == 2 and len(outside) == 3
    assert max(reports + outside) <= max(reference) + n * n


@pytest.mark.parametrize("alpha", [0.25, 0.0])
@pytest.mark.parametrize("run", ["run_reduction", "run_verification"])
def test_kernel_sample_released_before_the_first_report(monkeypatch, run, alpha):
    """The lambda loop reads K phi, applied once per run, and no sample of K:
    by the first report nothing the run or the pipeline holds keeps the
    dense kernel sample alive."""
    sample, applied, alive = [], [], []
    original_prepare, original_report = pipeline.prepare, pipeline.verify_equivalence
    original_apply = GridKernel.apply

    def counted_apply(self, f):
        applied.append(1)
        return original_apply(self, f)

    def prepare(config):
        seq = original_prepare(config)
        sample.append(weakref.ref(seq.kernel.entries))
        monkeypatch.setattr(GridKernel, "apply", counted_apply)  # the sequence's own are done
        return seq

    def report(*args, **kwargs):
        alive.append(sample[0]() is not None)
        return original_report(*args, **kwargs)

    monkeypatch.setattr(pipeline, "prepare", prepare)
    monkeypatch.setattr(pipeline, "verify_equivalence", report)
    getattr(pipeline, run)(parse_config({**CONFIG, "alpha": alpha}))
    assert alive == [False] * len(CONFIG["lambda"])
    assert len(applied) == 1


@pytest.mark.parametrize("alpha, full, values", [(0.25, 1, 1), (0.0, 1, 0)])
def test_one_full_svd_per_lambda_in_the_battery(monkeypatch, alpha, full, values):
    """The battery factors no D again. Per lambda a report makes D's probe
    route and, with alpha != 0, alpha I + D's values; with alpha = 0 the
    first-kind solve takes the thin SVD of a k x N matrix, none of M D.
    `reduce` makes no SVD with vectors; `verify` makes `full` of them, D's
    at the first lambda (report 0's, in the route's place), for the
    battery's W and V."""
    calls = {"full": 0, "values": 0, "route": 0}
    original, original_route = solvers.gesdd, kernels.gesdd_probes

    def counted(a, *, vectors):
        calls["full" if vectors else "values"] += 1
        return original(a, vectors=vectors)

    def routed(a, values):
        calls["route"] += 1
        return original_route(a, values)

    # every module of the package that binds the entry points
    for module in (kernels, solvers):
        monkeypatch.setattr(module, "gesdd", counted)
    monkeypatch.setattr(kernels, "gesdd_probes", routed)
    config = parse_config({**CONFIG, "alpha": alpha})
    k = len(CONFIG["lambda"])
    pipeline.run_reduction(config)
    assert calls == {"full": 0, "values": values * k, "route": k}
    calls.update(full=0, values=0, route=0)
    result = pipeline.run_verification(config)
    assert result.passed
    assert calls == {"full": full, "values": values * k, "route": k - full}


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


def _mutated_ladder_step(k, factor):
    """hermite.ladder_step with the ladder's up[k] scaled by 1 + factor."""

    def ladder_step(values):
        n = np.arange(values.shape[0] - 1, dtype=np.float64)[:, None]
        up = np.sqrt((n + 1.0) / 2.0)
        if k < up.shape[0]:
            up[k] *= 1.0 + factor
        down = np.sqrt(n / 2.0)
        out = -up * values[1:]
        out[1:] += down[1:] * values[:-2]
        return out

    return ladder_step


def test_unmutated_copy_is_the_ladder():
    # the mutants below differ from the shipped step in up[k] only
    values = hermite.hermite_function_values(43, np.linspace(-6, 6, 13))
    for _ in range(3):
        stepped = hermite.ladder_step(values)
        np.testing.assert_array_equal(_mutated_ladder_step(3, 0.0)(values), stepped)
        values = stepped


@pytest.mark.parametrize("k, factor", [(3, 1e-4), (40, 1e-5), (120, 1e-6)])
def test_fd_check_catches_a_ladder_error_at_256(monkeypatch, k, factor):
    pk, tol = _pencil_kernel(0.25)
    monkeypatch.setattr(hermite, "ladder_step", _mutated_ladder_step(k, factor))
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
