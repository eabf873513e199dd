"""Every function defined in `src/thirdkind` runs in some CLI run.

A fixed set of small `thirdkind.cli.main` runs goes under `sys.setprofile`
and `threading.setprofile`, so that the lane and writer threads count too:
`reduce` and `verify` at both kinds of alpha, `build-sequence`, a projected
and a `rank_one` run, csv inputs, a level search that refines, one failing
config per exit code, and one direct `blas.gesdd` call on a matrix scaled
past zgesdd's safe range. Every `def` that `ast` finds in
`src/thirdkind/*.py` (functions, methods, properties, nested functions) must
have been called by them, bar ALLOWED. A function that only tests call fails
here: delete it, or name it in ALLOWED with the reason it stays.

The gate works per function. A branch inside a reached function that no run
takes stays invisible: that needs line coverage, and `coverage` is not
installed.
"""

import ast
import functools
import json
import sys
import threading
from pathlib import Path

import numpy as np

import thirdkind
from thirdkind import MeasureSpace, blas
from thirdkind.cli import main
from thirdkind.serialize import write_grid_function_csv, write_matrix_csv

SRC = Path(thirdkind.__file__).resolve().parent

# "module.qualified name" -> why it stays although no CLI run calls it
ALLOWED = {
    "kernels.m_factorize": "perfbench/tracer.py wraps it until the benchmark drops the target",
    "reduction.complete_basis": "perfbench/tracer.py wraps it until the benchmark drops the target",
}

BASE = {
    "depth": 6,
    "lambda": [[0.3, 0.1], [0.5, -0.2]],
    "eps0": 0.25,
    "ratio": 0.5,
    "bands": 3,
    "alpha": 0.25,
    "coefficient": {"kind": "linear"},
    "kernel": {"kind": "exp_xy", "scale": 1.0},
    "seed": 11,
}

# one cell per band at depth 3: no level-1 split until the grid doubles
# (`select_index` refines to depth 4), as in
# tests/test_rademacher.py::test_refinement_extends_divisibility;
# tools/write_outputs.py runs it too
REFINING = {
    **BASE,
    "depth": 3,
    "alpha": 0.35,
    "bands": 2,
    "lambda": [[0.3, 0.1]],
    "kernel": {"kind": "constant"},
}

RANK_ONE = {
    **BASE,
    "depth": 7,
    "kernel": {
        "kind": "rank_one",
        "left": {"kind": "exp", "scale": 0.5},
        "right": {"kind": "linear", "scale": 2.0, "offset": 0.1},
    },
}


def runs(tmp_path):
    """(command, config, expected exit code) of every CLI run of the gate."""
    space = MeasureSpace(6)
    c = space.centers()
    write_grid_function_csv(tmp_path / "h.csv", c)
    write_matrix_csv(tmp_path / "k.csv", np.exp(np.outer(c, c)))
    csv = {"coefficient": {"kind": "csv", "path": str(tmp_path / "h.csv")},
           "kernel": {"kind": "csv", "path": str(tmp_path / "k.csv")}}
    ok = [
        (command, {**BASE, "depth": depth, "alpha": alpha}, 0)
        for command in ("reduce", "verify")
        for depth, alpha in ((6, 0.25), (7, 0.0))
    ]
    return ok + [
        ("build-sequence", BASE, 0),
        ("reduce", {**BASE, "depth": 7, "basis_size": 64}, 0),
        ("verify", RANK_ONE, 0),
        ("reduce", {**BASE, **csv}, 0),
        ("reduce", REFINING, 0),
        # failures for exit codes 1, 2 and 3, from tests/test_cli.py; each
        # raises an error class that no other run raises
        ("reduce", {**BASE, "kernel": {"kind": "csv", "path": "absent.csv"}}, 1),
        ("build-sequence", {**BASE, "depth": 3}, 2),  # band 1 is empty
        ("verify", {**BASE, "kernel": {"kind": "constant", "value": 1e306}}, 2),
        ("reduce", {**BASE, "lambda": [[0.3, 0.0], [1e300, 0.0]]}, 3),
        ("reduce", {**BASE, "depth": 5, "bands": 2, "lambda": 1e300,
                    "kernel": {"kind": "constant", "value": 1e300}}, 3),
    ]


def defined() -> dict[tuple[str, int], str]:
    """(file name, first line) -> "module.qualified name" of every def in
    src/thirdkind. The first line is a code object's co_firstlineno: the
    first decorator's line when there is one."""
    found = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(module, first)] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_every_function_is_called_by_a_cli_run(tmp_path, capsys, monkeypatch):
    # a fresh cache, so that the loader's body runs in the gate although an
    # earlier test in this process may have filled the package's cache
    monkeypatch.setattr(blas, "_openblas", functools.cache(blas._openblas.__wrapped__))
    plan = runs(tmp_path)
    codes, exits = set(), []

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        for index, (command, config, _) in enumerate(plan):
            path = tmp_path / f"config{index}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"out{index}"
            exits.append(main([command, "--config", str(path), "--out", str(out)]))
        # a D past zgesdd's safe range takes its zlascl scaling
        rng = np.random.default_rng(91)
        blas.gesdd(np.asfortranarray(1e300 * (rng.standard_normal((48, 48)) + 0j)), vectors=False)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    capsys.readouterr()
    assert exits == [code for _, _, code in plan]

    reached = {
        (Path(code.co_filename).stem, code.co_firstlineno)
        for code in codes
        if Path(code.co_filename).resolve().parent == SRC
    }
    unreached = {name for key, name in defined().items() if key not in reached}
    assert sorted(unreached - set(ALLOWED)) == [], "no CLI run calls these"
    assert sorted(set(ALLOWED) - unreached) == [], "allowed, but a CLI run calls these"
