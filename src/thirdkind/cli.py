"""Command-line front end.

Subcommands:
  build-sequence   construct the damping sequence and write its JSON report
  reduce           run the full reduction chain and export matrices, kernel
                   samples, and per-lambda diagnostics
  verify           run the whole property battery; exit 0 iff every check holds

Exit codes: 0 success, 1 configuration error, 2 construction failure
(empty band, refinement budget exhausted, an overflowing kernel image),
3 numerical failure (failed checks, near-singular or degenerate systems, an
SVD that does not converge, an allocation that fails). A failure after the
output directory exists also writes {"error": {"type", "message", ...}} to
the command's JSON file; every failure prints one stderr line, no traceback.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    DegenerateSystemError,
    EmptyBandError,
    NearSingularError,
    NotBisectableError,
    ToleranceUnreachableError,
)
from .kernels import eval_kernel
from .pipeline import prepare, run_reduction, run_verification
from .serialize import (
    write_grid_function_csv,
    write_json,
    write_kernel_grid_csv,
    write_matrix_csv,
)
# unused here, but perfbench/tracer.py lists this module as a site binding it
from .solvers import reduce_problem  # noqa: F401

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONSTRUCTION = 2
EXIT_NUMERICAL = 3

_CONSTRUCTION_ERRORS = (EmptyBandError, ToleranceUnreachableError, NotBisectableError)
# LinAlgError (e.g. an SVD that does not converge) reports as type "LinAlg",
# MemoryError (also numpy's failed allocations) as "Memory"
_NUMERICAL_ERRORS = (
    NearSingularError,
    DegenerateSystemError,
    np.linalg.LinAlgError,
    MemoryError,
)


def _error_payload(exc: Exception) -> dict:
    kind = "Memory" if isinstance(exc, MemoryError) else type(exc).__name__
    payload = {"type": kind.removesuffix("Error"), "message": str(exc)}
    if isinstance(exc, EmptyBandError):
        payload["band"] = exc.band
    if isinstance(exc, ToleranceUnreachableError):
        payload["achieved"] = exc.achieved
    if isinstance(exc, NearSingularError):
        payload["condition"] = exc.condition
    return payload


def _out_dir(config: RunConfig, args) -> Path:
    out = args.out or config.out
    if out is None:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out!r} as the output directory: {exc}") from None
    return path


def _guarded(report: Path, work) -> tuple[int, object]:
    """(EXIT_OK, work()); on a failure with an exit code, write {"error": ...}
    to `report`, print one stderr line and return (that code, None)."""
    try:
        return EXIT_OK, work()
    except ConfigError as exc:
        failure, code, what = exc, EXIT_CONFIG, "config error"
    except _CONSTRUCTION_ERRORS as exc:
        failure, code, what = exc, EXIT_CONSTRUCTION, "construction failed"
    except _NUMERICAL_ERRORS as exc:
        failure, code, what = exc, EXIT_NUMERICAL, "numerical failure"
    write_json(report, {"error": _error_payload(failure)})
    print(f"{what}: {failure}", file=sys.stderr)
    return code, None


def cmd_build_sequence(config: RunConfig, args) -> int:
    out = _out_dir(config, args)
    code, seq = _guarded(out / "sequence.json", lambda: prepare(config))
    if code:
        return code
    write_json(out / "sequence.json", seq.to_report())
    print(out / "sequence.json")
    return EXIT_OK


def cmd_reduce(config: RunConfig, args) -> int:
    out = _out_dir(config, args)
    code, run = _guarded(out / "report.json", lambda: run_reduction(config))
    if code:
        return code

    write_json(out / "sequence.json", run.reduction.sequence.to_report())
    write_grid_function_csv(out / "phi.csv", run.phi.values)

    # the matrices do not depend on lambda; the run built them once
    write_matrix_csv(out / "a0.csv", run.reduction.pencil.a0)
    write_matrix_csv(out / "a.csv", run.reduction.pencil.a)

    probes = run.reduction.probes.points
    for idx, lam in enumerate(config.lambdas):
        pk = run.reduction.pencil.pencil_kernel(lam)
        for i, j in ((0, 0), (1, 0), (0, 1)):
            samples = eval_kernel(pk, i, j, probes, probes)
            write_kernel_grid_csv(
                out / f"kernel_lambda{idx}_i{i}_j{j}.csv", probes, probes, samples
            )
        write_json(out / f"report_lambda{idx}.json", run.reports[idx].to_dict())
    print(out)

    if config.strict:
        worst = max(r.passage_residual for r in run.reports)
        if worst > config.tolerances["passage_residual"]:
            print(
                f"strict mode: passage residual {worst:.3e} exceeds "
                f"{config.tolerances['passage_residual']:.1e} "
                f"(projected={run.reduction.surrogate.projected})",
                file=sys.stderr,
            )
            return EXIT_NUMERICAL
    return EXIT_OK


def cmd_verify(config: RunConfig, args) -> int:
    out = _out_dir(config, args)
    code, result = _guarded(out / "verify.json", lambda: run_verification(config))
    if code:
        return code
    write_json(out / "verify.json", result.to_dict())
    print(out / "verify.json")
    if not result.passed:
        failing = [c.name for c in result.checks if not c.passed]
        print(f"failed checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="thirdkind",
        description="Reduce third-kind integral equations to smooth kernel pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build-sequence", "reduce", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", help="output directory (overrides the config)")

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "build-sequence":
            return cmd_build_sequence(config, args)
        if args.command == "reduce":
            return cmd_reduce(config, args)
        return cmd_verify(config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
