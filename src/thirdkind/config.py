"""Run configuration: a single JSON file, strictly validated.

Unknown keys are rejected so a typo cannot silently fall back to a default.
Complex values are written as [re, im] pairs (plain numbers are accepted for
real values). Coefficients and kernels are either named built-ins with
parameters or CSV sample files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .measure import MAX_DEPTH, GridFunction, GridKernel, MeasureSpace
from .rademacher import epsilon_schedule
from .serialize import read_grid_function_csv, read_matrix_csv

_TOP_KEYS = {
    "depth",
    "depth_max",
    "alpha",
    "lambda",
    "eps0",
    "ratio",
    "bands",
    "basis_size",
    "coefficient",
    "kernel",
    "probe",
    "cutoff",
    "seed",
    "strict",
    "tolerances",
    "out",
}

DEFAULT_TOLERANCES = {
    "passage_residual": 1e-9,
    "round_trip": 1e-10,
    "gram_defect": 1e-10,
    "adjoint_defect": 1e-10,
    "first_kind_residual": 1e-9,
    "derivative_agreement": 1e-5,
    "vanishing_tail": 1e-6,
}


def _rebase_csv_path(spec: dict, base_dir: Path | None) -> dict:
    """Resolve a relative CSV path against the config file's directory."""
    if base_dir is None or spec.get("kind") != "csv" or "path" not in spec:
        return dict(spec)
    out = dict(spec)
    p = Path(out["path"])
    if not p.is_absolute():
        out["path"] = str(base_dir / p)
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _finite(value, what: str) -> float:
    """A JSON number as a finite float; anything else is a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:  # an integer beyond the float range
        real = math.inf
    if not math.isfinite(real):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return real


def _as_complex(value, where: str) -> complex:
    """A number or an [re, im] pair, both parts finite."""
    if isinstance(value, list) and len(value) == 2:
        re, im = value
        return complex(_finite(re, f"{where} (re)"), _finite(im, f"{where} (im)"))
    if isinstance(value, list):
        raise ConfigError(f"{where}: expected a number or [re, im] pair, got {value!r}")
    return complex(_finite(value, where))


@dataclass(frozen=True)
class RunConfig:
    depth: int
    depth_max: int
    alpha: complex
    lambdas: tuple[complex, ...]
    eps0: float
    ratio: float
    bands: int
    basis_size: int | str
    coefficient: dict
    kernel: dict
    probe_bound: float
    probe_points: int
    cutoff: float
    seed: int
    strict: bool
    tolerances: dict = field(default_factory=dict)
    out: str | None = None


def parse_config(raw: dict, base_dir: Path | None = None) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def need(key, default=None):
        if key in raw:
            return raw[key]
        if default is not None:
            return default
        raise ConfigError(f"missing required key {key!r}")

    depth = need("depth")
    if not _is_int(depth) or not 1 <= depth <= MAX_DEPTH:
        raise ConfigError(f"depth must be an integer in [1, {MAX_DEPTH}], got {depth!r}")
    depth_max = raw.get("depth_max", min(depth + 6, MAX_DEPTH))
    if not _is_int(depth_max) or not depth <= depth_max <= MAX_DEPTH:
        raise ConfigError(
            f"depth_max must be an integer in [depth, {MAX_DEPTH}], got {depth_max!r}"
        )

    lam_raw = need("lambda", 0.0)
    if isinstance(lam_raw, list) and lam_raw and isinstance(lam_raw[0], list):
        lambdas = tuple(_as_complex(v, "lambda") for v in lam_raw)
    else:
        lambdas = (_as_complex(lam_raw, "lambda"),)

    eps0 = _real(raw, "eps0", 0.5, "config")
    ratio = _real(raw, "ratio", 0.5, "config")
    if eps0 <= 0:
        raise ConfigError("eps0 must be positive")
    if not 0 < ratio < 1:
        raise ConfigError("ratio must lie in (0, 1)")
    bands = need("bands", 3)
    if not _is_int(bands) or bands < 1:
        raise ConfigError("bands must be a positive integer")
    # band n needs eps_{n+1} < eps_n; at most 2**depth_max bands are nonempty,
    # so the sequence never reaches a band past those
    eps = epsilon_schedule(eps0, ratio, min(bands, 2**depth_max))
    stalled = np.flatnonzero(eps[1:] >= eps[:-1])
    if stalled.size:
        k = int(stalled[0]) + 1
        raise ConfigError(
            f"eps0 * ratio**k underflows: eps0 {eps0!r} and ratio {ratio!r} give "
            f"{float(eps[k - 1])!r} at k = {k} and {float(eps[k])!r} at k = {k + 1}, "
            f"so band {k} of {bands} is not an interval"
        )

    basis_size = raw.get("basis_size", "full")
    if basis_size != "full" and (not _is_int(basis_size) or basis_size < 1):
        raise ConfigError("basis_size must be 'full' or a positive integer")

    probe = raw.get("probe", {})
    if not isinstance(probe, dict) or set(probe) - {"bound", "points"}:
        raise ConfigError("probe must be an object with keys 'bound' and 'points'")
    probe_bound = _real(probe, "bound", 8.0, "probe")
    probe_points = probe.get("points", 41)
    if not _is_int(probe_points) or probe_bound <= 0 or probe_points < 3:
        raise ConfigError("probe bound must be positive and points an integer >= 3")
    if not math.isfinite(0.5 * probe_bound * probe_bound):  # the Hermite values' exponent
        raise ConfigError(f"probe bound {probe_bound:g} is too large: 0.5 * bound**2 overflows")

    cutoff = _real(raw, "cutoff", 1e-10, "config")
    if not 0 < cutoff < 1:
        raise ConfigError("cutoff must lie in (0, 1)")

    seed = raw.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict) or set(tolerances) - DEFAULT_TOLERANCES.keys():
        raise ConfigError(f"tolerances keys must be among {sorted(DEFAULT_TOLERANCES)}")
    merged_tol = dict(DEFAULT_TOLERANCES)
    merged_tol.update({k: _real(tolerances, k, None, "tolerances") for k in tolerances})

    coefficient = need("coefficient")
    kernel = need("kernel")
    for name, spec in (("coefficient", coefficient), ("kernel", kernel)):
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"{name} must be an object with a 'kind' key")
    coefficient = _rebase_csv_path(coefficient, base_dir)
    kernel = _rebase_csv_path(kernel, base_dir)

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")

    strict = raw.get("strict", False)
    if not isinstance(strict, bool):
        raise ConfigError(f"strict must be true or false, got {strict!r}")

    return RunConfig(
        depth=depth,
        depth_max=depth_max,
        alpha=_as_complex(need("alpha", 0.0), "alpha"),
        lambdas=lambdas,
        eps0=eps0,
        ratio=ratio,
        bands=bands,
        basis_size=basis_size,
        coefficient=dict(coefficient),
        kernel=dict(kernel),
        probe_bound=probe_bound,
        probe_points=probe_points,
        cutoff=cutoff,
        seed=seed,
        strict=strict,
        tolerances=merged_tol,
        out=out,
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, base_dir=path.parent)


# the keys each built-in takes besides "kind"
_FUNCTION_KEYS = {
    "constant": {"value"},
    "identity": set(),
    "linear": {"scale", "offset"},
    "exp": {"scale"},
}
_KERNEL_KEYS = {
    "constant": {"value"},
    "exp_xy": {"scale"},
    "product_xy": set(),
    "rank_one": {"left", "right"},
}
_CSV_KEYS = {"csv": {"path"}}


def _check_keys(spec, allowed: dict, where: str) -> str:
    """The spec's kind, after rejecting an unknown kind or a key it does not take."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object with a 'kind' key")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in allowed:
        raise ConfigError(f"{where}: unknown kind {kind!r}")
    unknown = set(spec) - {"kind"} - allowed[kind]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)} for kind {kind!r}")
    return kind


def _real(spec: dict, key: str, default: float | None, where: str) -> float:
    return _finite(spec.get(key, default), f"{where}: {key!r}")


def _scalar_builtin(spec: dict, where: str):
    """One-variable named function; used for coefficients and rank-one factors."""
    kind = _check_keys(spec, _FUNCTION_KEYS, where)
    if kind == "constant":
        value = _as_complex(spec.get("value", 1.0), where)
        fill = value if value.imag else value.real
        return lambda y: np.full(np.asarray(y, dtype=float).shape, fill)
    if kind == "identity":
        return lambda y: np.ones_like(np.asarray(y, dtype=float))
    scale = _real(spec, "scale", 1.0, where)
    if kind == "linear":
        offset = _real(spec, "offset", 0.0, where)
        return lambda y: scale * np.asarray(y, dtype=float) + offset
    return lambda y: np.exp(scale * np.asarray(y, dtype=float))


def _sampled(build, where: str):
    """Sample a built-in; an inf or nan sample (an overflow) is a ConfigError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return build()
    except ValueError as exc:  # GridFunction / GridKernel reject non-finite values
        raise ConfigError(f"{where}: {exc} on this grid") from exc


def _read_csv(reader, spec: dict, where: str) -> np.ndarray:
    """Read a CSV input; unreadable, malformed or non-finite data is a ConfigError."""
    if "path" not in spec:
        raise ConfigError(f"{where}: a csv {where} needs a 'path'")
    try:
        values = reader(Path(spec["path"]))
    except (OSError, ValueError, KeyError) as exc:
        raise ConfigError(f"{where} CSV {spec['path']}: cannot read: {exc!r}") from exc
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{where} CSV {spec['path']}: holds non-finite values")
    return values


def make_coefficient(spec: dict, space: MeasureSpace) -> GridFunction:
    """Sample a named coefficient built-in (or CSV file) on the grid."""
    kind = _check_keys(spec, {**_FUNCTION_KEYS, **_CSV_KEYS}, "coefficient")
    if kind == "csv":
        values = _read_csv(read_grid_function_csv, spec, "coefficient")
        if values.size != space.cell_count:
            raise ConfigError(
                f"coefficient CSV holds {values.size} cells, grid needs {space.cell_count}"
            )
        return GridFunction(space, values)
    func = _scalar_builtin(spec, "coefficient")
    return _sampled(lambda: GridFunction.sample(space, func), "coefficient")


def make_kernel(spec: dict, space: MeasureSpace) -> GridKernel:
    """Sample a named kernel built-in (or CSV matrix) at cell-center pairs;
    every built-in but `exp_xy` is sampled as left(x) conj(right(y))."""
    kind = _check_keys(spec, {**_KERNEL_KEYS, **_CSV_KEYS}, "kernel")
    if kind == "csv":
        entries = _read_csv(read_matrix_csv, spec, "kernel")
        if entries.shape != (space.cell_count, space.cell_count):
            raise ConfigError("kernel CSV shape does not match the grid")
        return GridKernel(space, entries)
    if kind == "exp_xy":
        scale = _real(spec, "scale", 1.0, "kernel")

        def func(x, y):
            exponent = scale * x * y
            return np.exp(exponent, out=exponent)  # one n x n array, not two
    else:
        identity = {"kind": "identity"}
        if kind == "constant":  # value (x) identity; the spec is a constant's own
            left, right = _scalar_builtin(spec, "kernel"), _scalar_builtin(identity, "kernel")
        elif kind == "product_xy":  # linear (x) linear
            left = right = _scalar_builtin({"kind": "linear"}, "kernel")
        else:
            left = _scalar_builtin(spec.get("left", identity), "kernel.left")
            right = _scalar_builtin(spec.get("right", identity), "kernel.right")

        def func(x, y):
            return np.asarray(left(x)) * np.conj(np.asarray(right(y)))

    return _sampled(lambda: GridKernel.sample(space, func), "kernel")
