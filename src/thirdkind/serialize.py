"""Deterministic text serialization for reports and matrices.

All floats are written with 17 significant digits so that identical runs
produce byte-identical files and every value round-trips exactly. Matrices
go to dense CSV (row-major, re/im pairs); grid functions to
(cell_index, re, im) rows; kernel samples to (s, t, re, im) rows. Reports
are JSON written by a small recursive emitter (the stdlib encoder does not
expose float formatting).
"""

from __future__ import annotations

import contextlib
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .measure import row_blocks

if TYPE_CHECKING:
    from .reduction import BlockDiagonal


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def _float_pairs(values: np.ndarray) -> np.ndarray:
    """Complex array as float64 (re, im) pairs along its last axis."""
    return np.ascontiguousarray(values, dtype=complex).view(np.float64)


@contextlib.contextmanager
def _output(path: Path):
    """The file `path`, opened for writing bytes; an OSError raised while it
    is written (a full disk, say) names `path` when it names no file."""
    try:
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is not None:
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _write_rows(path: Path, header: list[str], fmt: str, rows: np.ndarray) -> None:
    """One C-level %-format per row of a float64 table, after the header.

    Rows are formatted and written one at a time, so the text of the whole
    table is never held at once. They are formatted as bytes, the same
    characters as str's %-format: as str, a dense N = 1024 matrix left about
    3 MiB more of the heap resident while it was written, and the bytes
    skip the encoding.
    """
    line = (fmt + "\n").encode()
    with _output(path) as fh:
        for text in header:
            fh.write((text + "\n").encode())
        for row in rows:
            fh.write(line % tuple(row.tolist()))


def dump_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return dump_json([obj.real, obj.imag], indent)
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return dump_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dump_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        import json

        items = [
            f"{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_json(path: Path, obj) -> None:
    with _output(path) as fh:
        fh.write((dump_json(obj) + "\n").encode())


def write_matrix_csv(path: Path, matrix: np.ndarray | BlockDiagonal) -> None:
    """Rows of re/im pairs; a real matrix writes the imaginary parts as the
    "0" that +0.0 formats to, with no complex copy of it made. The rows are
    read `row_blocks` at a time, as `matrix[rows]`, so that a `BlockDiagonal`
    is never made dense whole."""
    complex_ = matrix.dtype.kind == "c"

    def rows():
        for block in row_blocks(matrix.shape[0]):
            values = matrix[block]
            yield from (_float_pairs(values) if complex_ else values.astype(np.float64, copy=False))

    entry = "%.17g,%.17g" if complex_ else "%.17g,0"
    _write_rows(path, [], ",".join([entry] * matrix.shape[1]), rows())


def read_matrix_csv(path: Path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().strip().splitlines():
        parts = [float(x) for x in line.split(",")]
        if len(parts) % 2:
            raise ValueError("matrix CSV rows must hold re/im pairs")
        vals = np.asarray(parts).reshape(-1, 2)
        rows.append(vals[:, 0] + 1j * vals[:, 1])
    return np.asarray(rows)


def write_grid_function_csv(path: Path, values: np.ndarray) -> None:
    pairs = _float_pairs(values).reshape(-1, 2)
    rows = np.column_stack([np.arange(pairs.shape[0]), pairs])
    _write_rows(path, ["cell_index,re,im"], "%d,%.17g,%.17g", rows)


def read_grid_function_csv(path: Path) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    if not lines or lines[0].strip() != "cell_index,re,im":
        raise ValueError("grid function CSV must start with 'cell_index,re,im'")
    values = {}
    for line in lines[1:]:
        idx_s, re_s, im_s = line.split(",")
        values[int(idx_s)] = float(re_s) + 1j * float(im_s)
    return np.asarray([values[i] for i in range(len(values))])


def write_kernel_grid_csv(
    path: Path, s: np.ndarray, t: np.ndarray, samples: np.ndarray
) -> None:
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    pairs = _float_pairs(samples).reshape(-1, 2)
    rows = np.column_stack([np.repeat(s, t.size), np.tile(t, s.size), pairs])
    _write_rows(path, ["s,t,re,im"], "%.17g,%.17g,%.17g,%.17g", rows)
