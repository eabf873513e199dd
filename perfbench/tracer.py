"""Traced in-process run of the thirdkind CLI.

Usage:  PYTHONPATH=src python3 perfbench/tracer.py TRACE_JSON CLI_ARG...

Imports ``thirdkind.cli``, wraps the public functions of each layer at every
module that binds them, calls ``thirdkind.cli.main(CLI_ARGS)`` and writes the
recorded spans, per-function totals, computed sizes and wrapper coverage to
TRACE_JSON.  The exit code is the CLI's; an exception from the CLI is re-raised
after the trace is written, so a traceback shows exactly as in an untraced run.

Wrapping happens from these benchmark files only; the program is not edited.
A function that a later version of the program no longer defines is reported
as ``absent`` and the run goes on without it.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from dataclasses import dataclass

PACKAGE = "thirdkind"


@dataclass(frozen=True)
class Target:
    """One wrapped function: trace name, defining module, attribute path and
    the import sites (module, or module:Class) expected to bind it."""

    name: str
    module: str
    attr: str
    sites: tuple[str, ...]
    rss: bool = False


TARGETS = (
    Target("config.load_config", "thirdkind.config", "load_config",
           ("thirdkind.config", "thirdkind.cli")),
    Target("pipeline.prepare", "thirdkind.pipeline", "prepare",
           ("thirdkind.pipeline", "thirdkind.cli")),
    Target("pipeline.run_reduction", "thirdkind.pipeline", "run_reduction",
           ("thirdkind.pipeline", "thirdkind.cli")),
    Target("pipeline.run_verification", "thirdkind.pipeline", "run_verification",
           ("thirdkind.pipeline", "thirdkind.cli")),
    Target("rademacher.build_sequence", "thirdkind.rademacher", "build_sequence",
           ("thirdkind.rademacher", "thirdkind.pipeline", "thirdkind")),
    Target("rademacher.rademacher", "thirdkind.rademacher", "rademacher",
           ("thirdkind.rademacher", "thirdkind")),
    Target("measure.GridKernel.refined", "thirdkind.measure", "GridKernel.refined",
           ("thirdkind.measure:GridKernel",)),
    Target("reduction.complete_basis", "thirdkind.reduction", "complete_basis",
           ("thirdkind.reduction", "thirdkind")),
    Target("reduction.matrix_elements", "thirdkind.reduction", "matrix_elements",
           ("thirdkind.reduction", "thirdkind.solvers", "thirdkind.pipeline", "thirdkind")),
    Target("solvers.reduce_problem", "thirdkind.solvers", "reduce_problem",
           ("thirdkind.solvers", "thirdkind.pipeline", "thirdkind.cli", "thirdkind")),
    Target("solvers.verify_equivalence", "thirdkind.solvers", "verify_equivalence",
           ("thirdkind.solvers", "thirdkind.pipeline", "thirdkind")),
    Target("solvers.solve_first_kind", "thirdkind.solvers", "solve_first_kind",
           ("thirdkind.solvers", "thirdkind")),
    Target("hermite.multiplier_matrix", "thirdkind.hermite", "multiplier_matrix",
           ("thirdkind.hermite", "thirdkind.solvers", "thirdkind.pipeline", "thirdkind")),
    Target("hermite.hermite_function_values", "thirdkind.hermite", "hermite_function_values",
           ("thirdkind.hermite",)),
    Target("kernels.m_factorize", "thirdkind.kernels", "m_factorize",
           ("thirdkind.kernels", "thirdkind.pipeline", "thirdkind")),
    Target("kernels.eval_kernel", "thirdkind.kernels", "eval_kernel",
           ("thirdkind.kernels", "thirdkind.cli", "thirdkind")),
    Target("kernels.absolute_tail_sup", "thirdkind.kernels", "absolute_tail_sup",
           ("thirdkind.kernels", "thirdkind.solvers"), rss=True),
    Target("serialize.write_matrix_csv", "thirdkind.serialize", "write_matrix_csv",
           ("thirdkind.serialize", "thirdkind.cli")),
    Target("serialize.write_kernel_grid_csv", "thirdkind.serialize", "write_kernel_grid_csv",
           ("thirdkind.serialize", "thirdkind.cli")),
    # thirdkind calls these as np.linalg.<name>; cond's own internal SVD goes
    # through numpy's private module and is not counted as an SVD.
    Target("linalg.svd", "numpy.linalg", "svd", ("numpy.linalg",)),
    Target("linalg.cond", "numpy.linalg", "cond", ("numpy.linalg",)),
)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def svd_flop(shape: tuple[int, ...], is_complex: bool, vectors: bool) -> float:
    """Computed flop count of a dense SVD (Golub-Reinsch, Golub & Van Loan
    table 8.6.1): 4mn^2 - 4n^3/3 for singular values only, 4m^2n + 8mn^2 + 9n^3
    with both singular-vector sets (m >= n); complex arithmetic counts 4x."""
    if len(shape) != 2:
        return 0.0
    m, n = max(shape), min(shape)
    flop = 4 * m * m * n + 8 * m * n * n + 9 * n ** 3 if vectors else 4 * m * n * n - 4 * n ** 3 / 3
    return float(flop) * (4 if is_complex else 1)


class Recorder:
    """Spans in memory: [name, start, end, parent index, maxrss rise in KiB]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.computed: dict[str, float] = {}
        self.hook_errors: list[str] = []

    def wrap(self, target: Target, fn, hook=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [target.name, 0.0, 0.0, parent, None]
            index = len(self.spans)
            self.spans.append(span)
            self.stack.append(index)
            rss0 = _maxrss_kib() if target.rss else 0
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if target.rss:
                    span[4] = _maxrss_kib() - rss0
            if hook is not None:
                try:
                    hook(self.computed, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.hook_errors.append(f"{target.name}: {exc!r}")
            return result

        return wrapper

    def totals(self) -> dict[str, dict]:
        """calls, inclusive and self seconds, summed maxrss rise per target."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, rise) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "rss_rise_mib": 0.0})
            t["calls"] += 1
            t["incl_s"] += end - start
            t["self_s"] += end - start - child[i]
            if rise is not None:
                t["rss_rise_mib"] += rise / 1024.0
        return out

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)


def _hook_basis_bytes(computed, args, kwargs, result):
    size = sum(f.values.nbytes for f in result)
    computed["reduction.basis_bytes"] = max(computed.get("reduction.basis_bytes", 0), size)


def _hook_final_depth(computed, args, kwargs, result):
    computed["rademacher.final_depth"] = result.space.depth


def _hook_svd(computed, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    vectors = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    flop = svd_flop(a.shape, a.dtype.kind == "c", bool(vectors))
    computed["linalg.factorization_gflop"] = computed.get("linalg.factorization_gflop", 0.0) + flop / 1e9


def _hook_cond(computed, args, kwargs, result):
    a = args[0] if args else kwargs["x"]
    p = kwargs.get("p", args[1] if len(args) > 1 else None)
    if p in (None, 2, -2):  # singular values only; other norms invert instead
        flop = svd_flop(a.shape, a.dtype.kind == "c", False)
        computed["linalg.factorization_gflop"] = computed.get("linalg.factorization_gflop", 0.0) + flop / 1e9


HOOKS = {
    "reduction.complete_basis": _hook_basis_bytes,
    "rademacher.build_sequence": _hook_final_depth,
    "linalg.svd": _hook_svd,
    "linalg.cond": _hook_cond,
}


def _site_object(site: str):
    """Module (from sys.modules, never a shadowing package attribute) or class."""
    module_name, _, class_name = site.partition(":")
    obj = sys.modules.get(module_name)
    if obj is not None and class_name:
        obj = vars(obj).get(class_name)
    return obj


def install(recorder: Recorder) -> dict[str, dict]:
    """Wrap every target at every binding site; return the coverage report.

    Each listed site reports ``wrapped`` or ``missing`` (the site no longer
    binds the function); modules of the package that bind it without being
    listed are wrapped too and reported under ``unlisted``.
    """
    coverage: dict[str, dict] = {}
    for target in TARGETS:
        owner_path, _, fname = target.attr.rpartition(".")
        owner = _site_object(target.module + (":" + owner_path if owner_path else ""))
        original = vars(owner).get(fname) if owner is not None else None
        if original is None:
            coverage[target.name] = {"status": "absent"}
            continue
        wrapper = recorder.wrap(target, original, HOOKS.get(target.name))
        candidates = set(target.sites)
        if target.module.startswith(PACKAGE):
            candidates |= {
                name for name in sys.modules
                if name == PACKAGE or name.startswith(PACKAGE + ".")
            }
        sites, unlisted = {}, []
        for site in sorted(candidates):
            obj = _site_object(site)
            bound = obj is not None and vars(obj).get(fname) is original
            if bound:
                setattr(obj, fname, wrapper)
                if site not in target.sites:
                    unlisted.append(site)
            if site in target.sites:
                sites[site] = "wrapped" if bound and getattr(obj, fname) is wrapper else "missing"
        coverage[target.name] = {"status": "present", "sites": sites, "unlisted": unlisted}
    return coverage


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_JSON CLI_ARG...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    import thirdkind.cli

    recorder = Recorder()
    coverage = install(recorder)
    start = time.perf_counter()
    code = None
    try:
        code = thirdkind.cli.main(cli_args)
    finally:
        main_s = time.perf_counter() - start
        with open(trace_path, "w") as fh:
            json.dump(
                {
                    "main_s": main_s,
                    "root_s": recorder.root_seconds(),
                    "exit_code": code,
                    "totals": recorder.totals(),
                    "computed": recorder.computed,
                    "coverage": coverage,
                    "hook_errors": recorder.hook_errors,
                    "spans": recorder.spans,
                },
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
