"""Smoke test of the benchmark harness: every workload shape at depth <= 6,
untraced and traced, must emit every metric that BENCHMARK.json names."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE.parent / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


bench = _load_run_module()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _small(workload):
    return dataclasses.replace(workload, depth=min(workload.depth, 6))


def test_spec_matches_harness_tables():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in bench.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_workload_shape_emits_every_metric(name, trace):
    outcome = bench.run(
        _small(bench.WORKLOADS[name]),
        seed=3,
        seconds=0.1,
        trace=bool(trace),
        probes=tuple(_small(p) for p in bench.PROBES),
        setup_repeats=2,
    )
    result = outcome["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], outcome["lines"]
    assert result["attempted"] >= 1

    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    absent = set()
    for line in outcome["lines"]:
        absent |= set(line.get("absent", ()))
    # a metric is either emitted or absent because the program lost its function
    assert set(result["metrics"]) | absent == {m["name"] for m in table}
    assert not set(result["metrics"]) & absent
    for metric in table:
        if metric["name"] in absent:
            continue
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])

    if trace:
        coverages = [line["coverage"] for line in outcome["lines"] if "coverage" in line]
        assert coverages
        for coverage in coverages:
            for target, report in coverage.items():
                if report["status"] == "present":
                    assert set(report["sites"].values()) == {"wrapped"}, (target, report)
