"""The benchmark tracer's targets exist: every function it wraps is defined,
and bound at each import site it lists.

A target that goes missing is reported as absent by the tracer and its
metrics drop out of a traced run, so it would show only there; this test
makes it a failure of the package's own suite.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import thirdkind.cli  # noqa: F401  (imports every module the tracer wraps)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
