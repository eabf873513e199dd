"""README.md's code runs: every `python` fence executes in a fresh namespace,
and every passage_residual it prints is at most 1e-9."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
FENCES = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_fences():
    assert FENCES


@pytest.mark.parametrize("index", range(len(FENCES)))
def test_fence_runs_and_its_residuals_are_small(index):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(FENCES[index], f"README.md python fence {index}", "exec"), {})
    residuals = [
        float(line.split()[1])
        for line in out.getvalue().splitlines()
        if line.startswith("passage_residual")
    ]
    assert residuals, "the fence prints no passage_residual"
    assert all(r <= 1e-9 for r in residuals), residuals
