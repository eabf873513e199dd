"""Benchmark of the thirdkind CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run writes seeded JSON configs, spawns the shipped CLI
(``python -m thirdkind.cli`` with ``PYTHONPATH=src``) as a child process,
checks every output it writes, and prints as its last stdout line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The lines before it record the machine, each call and the failures seen.

``--trace 0`` reports the end-to-end metrics of ``END_TO_END``:

* ``wall_s``: median wall time from spawn to exit of the workload command.
* ``cpu_s``: median user + sys time of that child, from ``os.wait4``.
* ``peak_rss_mib``: median of the child's own ``ru_maxrss``, from ``os.wait4``.
* ``setup_s``: median wall time of a child that only imports ``thirdkind.cli``
  and loads the workload config, measured ``SETUP_REPEATS`` times.
* ``fail_ratio``: failed operations over attempted operations.

``--trace 1`` reports the per-layer metrics of ``PER_LAYER``.  It alternates
untraced calls with calls of ``perfbench/tracer.py``, which runs
``thirdkind.cli.main`` in-process with timing wrappers around each layer's
public functions, and reports the median of each metric over the traced
calls.  ``trace.overhead_s`` is the traced wall time minus the median
untraced ``wall_s`` of the same run.  A metric whose function the program no
longer defines is listed under ``absent`` and left out, never reported as 0.

The number of calls in a run is fixed by ``--seconds`` and each workload's
nominal call time, so every commit does the same work in a run; at today's
speed a run measures for about ``--seconds``.  Children get
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` equal to the usable CPUs;
this single process generates the load, one call at a time (closed loop).

Operations.  An operation is one battery check of ``verify``, one per-lambda
report gate against its tolerance, or one CLI call, which fails on a nonzero
exit, a traceback or a missing output file.  ``reduce`` outputs are hashed on
every call and compared with the run's first call (a byte-determinism
operation), and on the first call the written pencil is checked against an
independent oracle: ``A0`` and ``A`` must be Hermitian with the spectra of
``H - alpha`` and of the sampled kernel.  Two known-defect probes run once
per run, untimed, one operation each; a probe passes only when ``verify``
exits 0 with every check passed.

``correct`` is false when an output of the workload is wrong or unchecked:
a traceback, an exit code outside 0-3 or at odds with the report, a missing
file, a check the program passed although its value exceeds its tolerance,
an oracle mismatch or a determinism mismatch.  Checks the program itself
reports as failed, and the probes, count in ``failed`` only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench-work"
SETUP_REPEATS = 9
# a run must end within 180 s; children still running at this point are killed
RUN_DEADLINE_S = 165.0

# gates on the per-lambda reports; the values of thirdkind's documented
# default tolerances and its condition limit
PASSAGE_TOL = 1e-9
ROUND_TRIP_TOL = 1e-10
FIRST_KIND_TOL = 1e-9
CONDITION_LIMIT = 1e12
# oracle tolerance on the spectra of the written pencil (rounding is ~1e-15)
SPECTRUM_TOL = 1e-10

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "fail_ratio": "ratio",
}

# name -> (unit, how it is derived from a trace); see layer_metrics
PER_LAYER = {
    "config.load_config.self_s": ("s", ("self_s", "config.load_config")),
    "pipeline.prepare.incl_s": ("s", ("incl_s", "pipeline.prepare")),
    "pipeline.run_verification.self_s": ("s", ("self_s", "pipeline.run_verification")),
    "cli.glue_s": ("s", ("glue",)),
    "rademacher.build_sequence.self_s": ("s", ("self_s", "rademacher.build_sequence")),
    "rademacher.levels_tried": ("count", ("calls", "rademacher.rademacher")),
    "measure.kernel_refinements": ("count", ("calls", "measure.GridKernel.refined")),
    "rademacher.final_depth": ("level", ("computed", "rademacher.final_depth", "rademacher.build_sequence")),
    "reduction.complete_basis.self_s": ("s", ("self_s", "reduction.complete_basis")),
    "reduction.matrix_elements.calls": ("count", ("calls", "reduction.matrix_elements")),
    "reduction.matrix_elements.self_s": ("s", ("self_s", "reduction.matrix_elements")),
    "reduction.basis_bytes": ("B", ("computed", "reduction.basis_bytes", "reduction.complete_basis")),
    "solvers.reduce_problem.calls": ("count", ("calls", "solvers.reduce_problem")),
    "solvers.verify_equivalence.self_s": ("s", ("self_s", "solvers.verify_equivalence")),
    "solvers.solve_first_kind.self_s": ("s", ("self_s", "solvers.solve_first_kind")),
    "hermite.multiplier_matrix.calls": ("count", ("calls", "hermite.multiplier_matrix")),
    "hermite.multiplier_matrix.self_s": ("s", ("self_s", "hermite.multiplier_matrix")),
    "hermite.hermite_function_values.self_s": ("s", ("self_s", "hermite.hermite_function_values")),
    "kernels.m_factorize.calls": ("count", ("calls", "kernels.m_factorize")),
    "kernels.m_factorize.self_s": ("s", ("self_s", "kernels.m_factorize")),
    "kernels.eval_kernel.self_s": ("s", ("self_s", "kernels.eval_kernel")),
    "kernels.absolute_tail_sup.self_s": ("s", ("self_s", "kernels.absolute_tail_sup")),
    "kernels.absolute_tail_sup.rss_rise_mib": ("MiB", ("rss_rise_mib", "kernels.absolute_tail_sup")),
    "linalg.svd.calls": ("count", ("calls", "linalg.svd")),
    "linalg.svd.self_s": ("s", ("self_s", "linalg.svd")),
    "linalg.cond.calls": ("count", ("calls", "linalg.cond")),
    "linalg.cond.self_s": ("s", ("self_s", "linalg.cond")),
    "linalg.factorization_gflop": ("Gflop", ("computed", "linalg.factorization_gflop", "linalg.svd", "linalg.cond")),
    "serialize.write_matrix_csv.self_s": ("s", ("self_s", "serialize.write_matrix_csv")),
    "serialize.write_kernel_grid_csv.self_s": ("s", ("self_s", "serialize.write_kernel_grid_csv")),
    "serialize.bytes_written": ("B", ("bytes_written",)),
    "trace.overhead_s": ("s", ("overhead",)),
}


@dataclass(frozen=True)
class Workload:
    """One CLI command on a seeded config: linear coefficient H(y) = y,
    kernel exp(x y), 3 bands; lambdas and the config seed come from the
    benchmark seed.  ``call_s`` is the nominal time of one call on a 2-vCPU
    Intel Xeon virtual machine and fixes how many calls a run makes."""

    name: str
    command: str
    depth: int
    alpha: float
    lambdas: int
    call_s: float = 0.0

    def config(self, seed: int) -> dict:
        rng = random.Random(f"{self.name}/{seed}")
        # complex lambdas keep H - lambda K well conditioned (cond ~ 1e3)
        lams = [
            [rng.uniform(0.2, 0.8), rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4)]
            for _ in range(self.lambdas)
        ]
        return {
            "depth": self.depth,
            "alpha": self.alpha,
            "lambda": lams,
            "eps0": 0.25,
            "ratio": 0.5,
            "bands": 3,
            "coefficient": {"kind": "linear"},
            "kernel": {"kind": "exp_xy", "scale": 1.0},
            "seed": rng.randrange(2**31),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("reduce-d10", "reduce", 10, 0.25, 2, 13.0),
        Workload("verify-sweep-d9", "verify", 9, 0.25, 8, 5.5),
        Workload("first-kind-d7", "verify", 7, 0.0, 64, 4.0),
    )
}

# known defects; each probe is one operation per run and passes only once fixed
PROBES = (
    # uncaught LinAlgError: the multiplier matrix is NaN from N = 256 on
    Workload("probe-first-kind-d8", "verify", 8, 0.0, 1),
    # kernel_derivative_fd_defect exceeds its 1e-5 tolerance from N = 256 on
    # (1.8e-5 there, 8.5e-5 at N = 512, where verify-sweep-d9 shows it)
    Workload("probe-fd-defect-d8", "verify", 8, 0.25, 1),
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def wrong(self, what: str) -> None:
        self.correct = False
        self.failures.append("incorrect: " + what)


@dataclass
class Call:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    stderr: str
    out: Path

    @property
    def traceback(self) -> bool:
        return "Traceback (most recent call last)" in self.stderr


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def machine_info(threads: int, seed: int) -> dict:
    info = {
        "nproc": usable_cpus(),
        "blas_threads": threads,
        "python": platform.python_version(),
        "cpu_model": platform.processor() or platform.machine(),
        "seed": seed,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info["numpy"] = np.__version__
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError) as exc:  # numpy builds differ in what they report
        info["blas"] = f"unknown: {exc!r}"
    return info


class Runner:
    """Spawns children for one run and records what they did."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.threads = usable_cpus()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["OPENBLAS_NUM_THREADS"] = str(self.threads)
        self.env["OMP_NUM_THREADS"] = str(self.threads)
        self.count = 0
        self.timed_out = False

    def spawn(self, argv: list[str], out: Path) -> Call:
        """Run one child to completion; wall, rusage and stderr of that child."""
        self.count += 1
        log = self.work / f"child{self.count}"
        with open(f"{log}.out", "wb") as fo, open(f"{log}.err", "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode < 0:
            self.timed_out = True
        return Call(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mib=usage.ru_maxrss / 1024.0,
            exit_code=proc.returncode,
            stderr=Path(f"{log}.err").read_text(errors="replace"),
            out=out,
        )

    def write_config(self, workload: Workload, seed: int) -> Path:
        path = self.work / f"{workload.name}.json"
        path.write_text(json.dumps(workload.config(seed), indent=1))
        return path

    def setup(self, config: Path) -> Call:
        code = (
            "import sys, thirdkind.cli; "
            "from thirdkind.config import load_config; load_config(sys.argv[1])"
        )
        return self.spawn([sys.executable, "-c", code, str(config)], self.work)

    def cli(self, workload: Workload, config: Path, trace_path: Path | None = None) -> Call:
        self.count += 1
        out = self.work / f"out{self.count}"
        args = [workload.command, "--config", str(config), "--out", str(out)]
        if trace_path is None:
            argv = [sys.executable, "-m", "thirdkind.cli", *args]
        else:
            argv = [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace_path), *args]
        return self.spawn(argv, out)


def check_reports(tally: Tally, reports: list, workload: Workload, where: str) -> None:
    # report values are numbers, or "nan"/"inf" strings that float() reads
    if len(reports) != workload.lambdas:
        tally.wrong(f"{where}: {len(reports)} reports for {workload.lambdas} lambdas")
    for i, report in enumerate(reports):
        gates = [("passage_residual", PASSAGE_TOL), ("round_trip_error", ROUND_TRIP_TOL)]
        if workload.alpha:
            gates.append(("condition", CONDITION_LIMIT))
        for key, tol in gates:
            value = float(report[key])
            tally.op(value <= tol, f"{where}: lambda{i} {key} {value:.3e} > {tol:.1e}")
        if not workload.alpha:
            value = float(report["first_kind"]["residual"])
            tally.op(value <= FIRST_KIND_TOL,
                     f"{where}: lambda{i} first_kind.residual {value:.3e} > {FIRST_KIND_TOL:.1e}")


def check_verify(tally: Tally, call: Call, workload: Workload) -> None:
    where = f"{workload.name} verify"
    path = call.out / "verify.json"
    tally.op(call.exit_code == 0 and not call.traceback and path.exists(),
             f"{where}: exit {call.exit_code}{', traceback' if call.traceback else ''}")
    if call.traceback or call.exit_code not in (0, 1, 2, 3):
        tally.wrong(f"{where}: exit {call.exit_code} with traceback={call.traceback}")
        return
    if not path.exists():
        tally.wrong(f"{where}: verify.json missing")
        return
    doc = json.loads(path.read_text())
    if "error" in doc:
        return  # a documented failure with its payload; the call op has failed
    for check in doc["checks"]:
        value, tol = float(check["value"]), float(check["tolerance"])
        tally.op(check["passed"] and value <= tol,
                 f"{where}: {check['name']} {value:.3e} vs {tol:.1e}")
        if check["passed"] and not value <= tol:
            tally.wrong(f"{where}: {check['name']} passed with {value!r} > {tol!r}")
    if (call.exit_code == 0) != bool(doc["passed"]):
        tally.wrong(f"{where}: exit {call.exit_code} but passed={doc['passed']}")
    check_reports(tally, doc["reports"], workload, where)


def reduce_outputs(workload: Workload) -> list[str]:
    names = ["sequence.json", "phi.csv", "a0.csv", "a.csv"]
    for i in range(workload.lambdas):
        names.append(f"report_lambda{i}.json")
        names += [f"kernel_lambda{i}_i{a}_j{b}.csv" for a, b in ((0, 0), (1, 0), (0, 1))]
    return names


def read_matrix(path: Path, n: int) -> np.ndarray:
    flat = np.fromstring(path.read_text().strip().replace("\n", ","), sep=",")
    if flat.size != 2 * n * n:
        raise ValueError(f"{path.name} holds {flat.size} numbers, expected {2 * n * n}")
    return (flat[0::2] + 1j * flat[1::2]).reshape(n, n)


def pencil_oracle(out: Path, workload: Workload) -> list[tuple[str, float]]:
    """Hermitian defect and spectral error of A0 and A against the grid data.

    At full truncation the pencil is the grid operators in an orthonormal
    basis, so A0 has the spectrum {c_i - alpha} over cell centres c_i and A
    the spectrum of the cell-width-scaled kernel samples exp(c_i c_j).
    """
    depth = json.loads((out / "sequence.json").read_text())["depth"]
    n = 2 ** depth
    centres = (np.arange(n) + 0.5) / n
    expected = {
        "a0": np.sort(centres - workload.alpha),
        "a": np.linalg.eigvalsh(np.exp(np.outer(centres, centres)) / n),
    }
    errors = []
    for name, spectrum in expected.items():
        m = read_matrix(out / f"{name}.csv", n)
        scale = max(1.0, float(np.max(np.abs(spectrum))))
        herm = float(np.max(np.abs(m - m.conj().T))) / scale
        spec = float(np.max(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2) - spectrum))) / scale
        errors.append((name, max(herm, spec)))
    return errors


def digest(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


class ReduceChecker:
    def __init__(self, workload: Workload):
        self.workload = workload
        self.reference: dict[str, str] | None = None

    def __call__(self, tally: Tally, call: Call) -> None:
        where = f"{self.workload.name} reduce"
        missing = [n for n in reduce_outputs(self.workload) if not (call.out / n).exists()]
        tally.op(call.exit_code == 0 and not call.traceback and not missing,
                 f"{where}: exit {call.exit_code}, missing {missing}")
        if call.traceback or call.exit_code not in (0, 1, 2, 3):
            tally.wrong(f"{where}: exit {call.exit_code} with traceback={call.traceback}")
            return
        if call.exit_code != 0:
            return  # documented failure; the call op has failed
        if missing:
            tally.wrong(f"{where}: exit 0 without {missing}")
            return
        reports = [
            json.loads((call.out / f"report_lambda{i}.json").read_text())
            for i in range(self.workload.lambdas)
        ]
        check_reports(tally, reports, self.workload, where)
        files = digest(call.out)
        if self.reference is None:
            self.reference = files
            for name, error in pencil_oracle(call.out, self.workload):
                ok = error <= SPECTRUM_TOL
                tally.op(ok, f"{where}: {name}.csv spectrum/Hermitian error {error:.3e}")
                if not ok:
                    tally.wrong(f"{where}: {name}.csv does not match the oracle ({error:.3e})")
        else:
            same = files == self.reference
            tally.op(same, f"{where}: outputs differ from the first call")
            if not same:
                tally.wrong(f"{where}: outputs are not byte-deterministic")


# what a check raises on output it cannot read or parse
MALFORMED = (OSError, ValueError, KeyError, TypeError, IndexError)


def guarded(check, tally: Tally, call: Call, where: str) -> None:
    """Run an output check; unreadable output is a failed, incorrect operation."""
    try:
        check(tally, call)
    except MALFORMED as exc:
        tally.op(False, f"{where}: unreadable output: {exc!r}")
        tally.wrong(f"{where}: unreadable output: {exc!r}")


def check_probe(tally: Tally, call: Call, probe: Workload) -> None:
    path = call.out / "verify.json"
    ok = call.exit_code == 0 and not call.traceback and path.exists()
    try:
        ok = ok and json.loads(path.read_text()).get("passed") is True
    except MALFORMED:
        ok = False
    tally.op(ok, f"{probe.name}: exit {call.exit_code}"
                 f"{', traceback' if call.traceback else ''}")


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float,
                  bytes_written: int) -> dict[str, float | None]:
    """Per-layer values of one traced call; None marks an absent function."""
    coverage, totals, computed = trace["coverage"], trace["totals"], trace["computed"]

    def present(target: str) -> bool:
        return coverage.get(target, {}).get("status") == "present"

    def stat(target: str, key: str):
        if not present(target):
            return None
        return totals.get(target, {}).get(key, 0)

    values: dict[str, float | None] = {}
    for name, (_, source) in PER_LAYER.items():
        kind = source[0]
        if kind in ("self_s", "incl_s", "calls", "rss_rise_mib"):
            values[name] = stat(source[1], kind)
        elif kind == "computed":
            key, targets = source[1], source[2:]
            if key in computed:
                values[name] = computed[key]
            elif all(present(t) for t in targets) and not any(stat(t, "calls") for t in targets):
                values[name] = 0.0  # the function exists but this workload never calls it
            else:
                values[name] = None
        elif kind == "glue":
            values[name] = trace["main_s"] - trace["root_s"]
        elif kind == "bytes_written":
            values[name] = bytes_written
        elif kind == "overhead":
            values[name] = traced_wall - untraced_wall
    return values


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        probes: tuple[Workload, ...] = PROBES, setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the result object and the lines before it."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
    tally = Tally()
    lines: list[dict] = [{
        "workload": workload.name,
        "trace": int(trace),
        "machine": machine_info(runner.threads, seed),
    }]
    try:
        config = runner.write_config(workload, seed)
        runner.setup(config)  # untimed: fills the bytecode cache
        setups = [runner.setup(config) for _ in range(0 if trace else setup_repeats)]
        for s in setups:
            if s.exit_code != 0:
                tally.wrong(f"setup child exited {s.exit_code}: {s.stderr[-400:]}")

        for probe in probes:
            call = runner.cli(probe, runner.write_config(probe, seed))
            check_probe(tally, call, probe)
            shutil.rmtree(call.out, ignore_errors=True)

        check = ReduceChecker(workload) if workload.command == "reduce" else (
            lambda t, c: check_verify(t, c, workload))

        untraced: list[Call] = []
        layer_runs: list[dict[str, float | None]] = []
        # a traced run alternates untraced and traced calls in the same time
        rounds = max(1, round(seconds / ((2 if trace else 1) * workload.call_s)))
        for i in range(rounds):
            if runner.timed_out:
                break
            call = runner.cli(workload, config)
            guarded(check, tally, call, workload.name)
            untraced.append(call)
            shutil.rmtree(call.out, ignore_errors=True)
            if not trace:
                continue
            trace_path = work / f"trace{i}.json"
            traced = runner.cli(workload, config, trace_path)
            guarded(check, tally, traced, workload.name + " traced")
            try:
                doc = json.loads(trace_path.read_text())
                written = sum(p.stat().st_size for p in traced.out.glob("*") if p.is_file())
                layer_runs.append(layer_metrics(
                    doc, traced.wall_s, _median([c.wall_s for c in untraced]), written))
                lines.append({"coverage": doc["coverage"], "hook_errors": doc["hook_errors"]})
            except MALFORMED as exc:
                tally.wrong(f"traced call left no usable trace (exit {traced.exit_code}): {exc!r}")
            shutil.rmtree(traced.out, ignore_errors=True)
        if runner.timed_out:
            tally.wrong(f"a child was killed at the {RUN_DEADLINE_S:.0f} s run deadline")

        lines.append({
            "setup_s": [s.wall_s for s in setups],
            "calls": [
                {"wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mib": c.peak_rss_mib,
                 "exit": c.exit_code}
                for c in untraced
            ],
            "failures": tally.failures[:50],
        })
        metrics: dict[str, dict] = {}
        if not trace:
            values = {
                "wall_s": _median([c.wall_s for c in untraced]),
                "cpu_s": _median([c.cpu_s for c in untraced]),
                "peak_rss_mib": _median([c.peak_rss_mib for c in untraced]),
                "setup_s": _median([s.wall_s for s in setups]),
                "fail_ratio": tally.failed / tally.attempted,
            }
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        else:
            absent = []
            for name, (unit, _) in PER_LAYER.items():
                samples = [r[name] for r in layer_runs]
                if not samples or any(v is None for v in samples):
                    absent.append(name)
                    continue
                metrics[name] = {"value": _median(samples), "unit": unit}
            if absent:
                lines.append({"absent": absent})
        result = {
            "correct": tally.correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        return {"lines": lines, "result": result}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "thirdkind" / "cli.py").is_file():
        print(f"no thirdkind sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or not math.isfinite(args.seconds):
        print("--seconds must be positive", file=sys.stderr)
        return 2

    outcome = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in outcome["lines"]:
        print(json.dumps(line))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
