"""Write every output of a fixed set of CLI runs, for a byte-identity diff.

Usage, from the root of a checkout:

    python3 tools/write_outputs.py CHECKOUT OUTDIR
    python3 tools/write_outputs.py --compare BEFORE AFTER

Runs the CLI of CHECKOUT (``python -m thirdkind.cli`` with
``PYTHONPATH=CHECKOUT/src``) once per command below, each on one BLAS thread
unless it says otherwise, and writes for each command a directory
OUTDIR/<name> with its config, its output files, and its stdout, stderr and
exit code. OUTDIR is replaced by ``$OUT`` in stdout and stderr, so two
checkouts written to two directories compare with

    diff -r OUTDIR_A OUTDIR_B

The commands:

* ``reduce`` on the config of every benchmark workload, seeds 101 and 202;
* ``verify`` on ``verify-sweep-d9`` and ``first-kind-d7``, seeds 101 and 202;
* ``reduce`` and ``verify`` on a depth-8, alpha = 0 ``rank_one`` config;
* ``build-sequence`` on ``reduce-d10``, seed 202;
* ``reduce`` at depth 11 (N = 2048) with one lambda, seed 202; about 30 s
  on one thread;
* ``reduce`` on ``reduce-d10``'s config with alpha = 0 (N = 1024), seed 202,
  where the first-kind solve runs at depth; about 5 s;
* ``reduce`` on ``reduce-d10``, seed 202, on two BLAS threads
  (``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` = 2); every report runs
  on one thread whatever the process starts with, so its files equal those
  of the one-thread ``reduce-reduce-d10-202``; about 5 s.

The configs come from ``Workload.config`` of this repository's
``perfbench/run.py``, so both checkouts get the same inputs. For each run
the tool prints, on its own stdout and nowhere in OUTDIR, the exit code,
the wall time and the peak resident set of the CLI process (``ru_maxrss``
from ``os.wait4``), so that the runs of a byte-identity check also give a
before/after memory table.

``--compare BEFORE AFTER`` reads two such directories and prints one line
per file that differs: how many of its numbers differ, and the largest
difference relative to the file's largest magnitude. For a ``.json`` file it
then prints the key path of each number that moved, with its two values; a
list item that has a ``name`` (a check of ``verify.json``) is named by it, as
in ``checks[kernel_derivative_fd_defect].value``. A last line names the
file with the largest difference. A difference that is
not in a number (a file in one tree only, a changed key or word, any change
to an exit code or to stderr) is printed as ``NOT NUMERIC``, and then the
exit code is 1.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RANK_ONE_D8 = {
    "depth": 8,
    "alpha": 0.0,
    "lambda": [[0.3, 0.1], [0.5, -0.2]],
    "eps0": 0.25,
    "ratio": 0.5,
    "bands": 3,
    "coefficient": {"kind": "linear"},
    "kernel": {
        "kind": "rank_one",
        "left": {"kind": "exp", "scale": 0.5},
        "right": {"kind": "linear", "scale": 2.0, "offset": 0.1},
    },
    "seed": 7,
}


def _perfbench():
    sys.dont_write_bytecode = True  # leave no cache beside perfbench/run.py
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def commands() -> list[tuple[str, str, dict, int]]:
    """(run name, CLI command, config, BLAS threads) for every run, in order."""
    perfbench = _perfbench()
    workloads = perfbench.WORKLOADS
    runs = []
    for seed in (101, 202):
        for name, workload in workloads.items():
            runs.append((f"reduce-{name}-{seed}", "reduce", workload.config(seed), 1))
        for name in ("verify-sweep-d9", "first-kind-d7"):
            config = workloads[name].config(seed)
            runs.append((f"verify-{name}-{seed}", "verify", config, 1))
    runs.append(("reduce-rank-one-d8", "reduce", RANK_ONE_D8, 1))
    runs.append(("verify-rank-one-d8", "verify", RANK_ONE_D8, 1))
    d10 = workloads["reduce-d10"].config(202)
    runs.append(("build-sequence-reduce-d10-202", "build-sequence", d10, 1))
    d11 = perfbench.Workload("reduce-d11", "reduce", 11, 0.25, 1).config(202)
    runs.append(("reduce-d11-202", "reduce", d11, 1))
    runs.append(("reduce-reduce-d10-202-alpha0", "reduce", {**d10, "alpha": 0.0}, 1))
    runs.append(("reduce-reduce-d10-202-two-threads", "reduce", d10, 2))
    return runs


# a decimal number standing alone: not the digits of a name such as lambda0
NUMBER = re.compile(r"(?<![\w.+-])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])")
TEXT_ONLY = {"exit_code.txt", "stderr.txt"}  # any change to these is a finding


def moved_paths(old, new, path=""):
    """(key path, old, new) of every value that differs between two parsed
    JSON documents of one shape; a list item with a "name" is named by it."""
    if isinstance(old, dict):
        for key in old:
            yield from moved_paths(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list):
        for index, (a, b) in enumerate(zip(old, new)):
            label = a.get("name", index) if isinstance(a, dict) else index
            yield from moved_paths(a, b, f"{path}[{label}]")
    elif old != new and not (old != old and new != new):  # NaN stays NaN
        yield path, old, new


def compare(before: Path, after: Path) -> int:
    """Print every file that differs between two output trees with its
    largest numeric difference; 1 when some difference is not numeric."""
    names = sorted(
        {path.relative_to(root) for root in (before, after) for path in root.rglob("*")
         if path.is_file()}
    )
    found, worst_file = False, (0.0, None)
    for name in names:
        if not ((before / name).is_file() and (after / name).is_file()):
            print(f"{name}: NOT NUMERIC, in one tree only")
            found = True
            continue
        old, new = (before / name).read_text(), (after / name).read_text()
        if old == new:
            continue
        if name.name in TEXT_ONLY or NUMBER.sub("#", old) != NUMBER.sub("#", new):
            print(f"{name}: NOT NUMERIC")
            found = True
            continue
        pairs = list(zip(map(float, NUMBER.findall(old)), map(float, NUMBER.findall(new))))
        scale = max(max(abs(a), abs(b)) for a, b in pairs)
        worst = max(abs(a - b) for a, b in pairs)
        moved = sum(a != b for a, b in pairs)
        relative = worst / scale if scale else worst
        worst_file = max(worst_file, (relative, str(name)))
        print(
            f"{name}: {moved} of {len(pairs)} numbers differ, largest by "
            f"{relative:.3g} of the largest magnitude {scale:.6g}"
        )
        if name.suffix == ".json":
            for path, a, b in moved_paths(json.loads(old), json.loads(new)):
                print(f"  {path}: {a!r} -> {b!r}")
    if worst_file[1]:
        print(f"largest numeric difference: {worst_file[0]:.3g}, in {worst_file[1]}")
    return int(found)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 2:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 1
    checkout, outdir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    for name, command, config, threads in commands():
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        run = outdir / name
        (run / "out").mkdir(parents=True, exist_ok=True)
        (run / "config.json").write_text(json.dumps(config, indent=1))
        code, wall, peak_kib, stdout, stderr = _run_cli(
            [sys.executable, "-m", "thirdkind.cli", command,
             "--config", str(run / "config.json"), "--out", str(run / "out")],
            env, checkout,
        )
        (run / "stdout.txt").write_text(stdout.replace(str(outdir), "$OUT"))
        (run / "stderr.txt").write_text(stderr.replace(str(outdir), "$OUT"))
        (run / "exit_code.txt").write_text(f"{code}\n")
        print(f"{name}: exit {code}, {wall:.2f} s, peak RSS {peak_kib / 1024:.1f} MiB", flush=True)
    return 0


def _run_cli(args: list[str], env: dict, cwd: Path) -> tuple[int, float, int, str, str]:
    """(exit code, wall seconds, ru_maxrss in KiB, stdout, stderr) of one
    child, reaped with os.wait4 for its own resource usage."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, env=env, cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        err.seek(0)
        return (proc.returncode, wall, usage.ru_maxrss,
                out.read().decode(), err.read().decode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
