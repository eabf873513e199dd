"""The benchmark tracer's targets exist: every function it wraps is defined,
and bound at each import site it lists; a traced CLI run yields every
per-layer metric.

A target that goes missing is reported as absent by the tracer and its
metrics drop out of a traced run, so it would show only there; these tests
make it a failure of the package's own suite.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thirdkind.cli  # noqa: F401  (imports every module the tracer wraps)

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", TRACER)
bench = _load("perfbench_run_layers", ROOT / "perfbench" / "run.py")


@pytest.mark.parametrize("target", tracer.TARGETS, ids=lambda t: t.name)
def test_target_defined_and_bound_at_every_site(target):
    owner_path, _, name = target.attr.rpartition(".")
    owner = tracer._site_object(target.module + (":" + owner_path if owner_path else ""))
    assert owner is not None, f"{target.module} {owner_path} not loaded"
    original = vars(owner).get(name)
    assert callable(original), f"{target.module} defines no {target.attr}"
    unbound = [
        site
        for site in target.sites
        if vars(tracer._site_object(site) or object).get(name) is not original
    ]
    assert not unbound, f"{target.name} is not bound at {unbound}"


@pytest.mark.parametrize("command, alpha", [("reduce", 0.25), ("verify", 0.0)])
def test_traced_run_yields_every_layer_metric(tmp_path, command, alpha):
    """A traced d6 run with 2 lambdas: no per-layer metric is absent, every
    listed site is wrapped, and the run-level stages run once per run."""
    config = {
        "depth": 6,
        "lambda": [[0.3, 0.1], [0.5, -0.2]],
        "eps0": 0.25,
        "ratio": 0.5,
        "bands": 3,
        "alpha": alpha,
        "coefficient": {"kind": "linear"},
        "kernel": {"kind": "exp_xy", "scale": 1.0},
        "seed": 5,
    }
    cfg, trace_path, out = tmp_path / "config.json", tmp_path / "trace.json", tmp_path / "out"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, str(TRACER), str(trace_path), command]
    done = subprocess.run(
        [*argv, "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    trace = json.loads(trace_path.read_text())
    written = sum(p.stat().st_size for p in out.iterdir())
    metrics = bench.layer_metrics(trace, 0.0, 0.0, written)
    assert set(metrics) == set(bench.PER_LAYER)
    assert [name for name, value in metrics.items() if value is None] == []
    for name, report in trace["coverage"].items():
        assert report["status"] == "present", name
        assert set(report["sites"].values()) == {"wrapped"}, (name, report)
    calls = {name: total["calls"] for name, total in trace["totals"].items()}
    assert calls["solvers.reduce_problem"] == 1
    assert calls["solvers.verify_equivalence"] == 2
    assert calls.get("hermite.multiplier_matrix", 0) == int(alpha == 0)
