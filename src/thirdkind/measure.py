"""Dyadic grid model of the underlying measure space.

The ambient space is Y = [0, 1) with Lebesgue measure, in 2**depth half-open
cells of equal measure 2**-depth. Measurable sets are unions of cells,
functions are piecewise constant per cell, and kernels are sampled at
cell-center pairs (midpoint rule) and act, as do their adjoints, by weighted
matrix products. All measures are dyadic rationals, so set algebra
(bisection, band extraction, refinement) is exact in double precision.
Nonatomicity is emulated by grid refinement: each cell splits in two halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError

MAX_DEPTH = 24


def scaled_norm(x: np.ndarray, axis: int | None = None):
    """np.linalg.norm(x, axis=axis), the 2-norm of x or of each slice along
    `axis`; where that overflows although the slice is finite, the norm
    scaled by the slice's largest modulus m, m * ||x / m||, which stays
    finite up to about 1.8e308. Elsewhere the plain norm's bits are kept."""
    with np.errstate(over="ignore"):
        plain = np.linalg.norm(x, axis=axis)
    overflowed = np.isinf(plain)
    if not overflowed.any():
        return plain
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = np.max(np.abs(x), axis=axis, keepdims=True)
        scaled = np.linalg.norm(x / m, axis=axis) * np.squeeze(m, axis=axis)
    return np.where(overflowed & np.isfinite(scaled), scaled, plain)


def row_blocks(rows: int) -> list[slice]:
    """Consecutive slices covering range(rows), each about a sixteenth of it
    and at least 16 rows long, the last one taking the remainder. A complex
    product formed a block of rows at a time holds a sixteenth of its
    temporaries and keeps the whole product's bits, as BLAS sums each entry
    in the same order; a one-row block (a gemv) would not, and neither may
    a real product whose row length is not a multiple of 8, whose last
    columns OpenBLAS rounds by a path that depends on the block's size."""
    step = max(16, rows // 256 * 16)
    starts = list(range(0, rows, step))
    if len(starts) > 1 and rows - starts[-1] < step:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [rows])]


@dataclass(frozen=True)
class MeasureSpace:
    """Dyadic partition of [0, 1) into 2**depth equal cells."""

    depth: int

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be in [1, {MAX_DEPTH}], got {self.depth}")

    @property
    def cell_count(self) -> int:
        return 1 << self.depth

    @property
    def cell_width(self) -> float:
        # exact: 2**-depth is a power of two
        return 2.0 ** (-self.depth)

    def centers(self) -> np.ndarray:
        """Midpoints of all cells, in index order."""
        return (np.arange(self.cell_count) + 0.5) * self.cell_width

    def refined(self) -> "MeasureSpace":
        return MeasureSpace(self.depth + 1)


def _require_same_space(a: MeasureSpace, b: MeasureSpace) -> None:
    if a != b:
        raise SpaceMismatchError(f"grids at depth {a.depth} and {b.depth} do not match")


@dataclass(frozen=True, eq=False)
class MeasurableSet:
    """Union of grid cells, kept as a strictly increasing index list."""

    space: MeasureSpace
    cell_indices: np.ndarray

    def __post_init__(self):
        idx = np.unique(np.asarray(self.cell_indices, dtype=np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.space.cell_count):
            raise ValueError("cell index out of range")
        object.__setattr__(self, "cell_indices", idx)

    @property
    def cell_count(self) -> int:
        return int(self.cell_indices.size)

    @property
    def measure(self) -> float:
        # count * 2**-depth is exact for depth <= 24
        return self.cell_count * self.space.cell_width

    @property
    def is_empty(self) -> bool:
        return self.cell_indices.size == 0

    def refined(self) -> "MeasurableSet":
        """Same point set on the next finer grid: cell i becomes 2i, 2i+1."""
        children = np.stack([2 * self.cell_indices, 2 * self.cell_indices + 1], axis=1)
        return MeasurableSet(self.space.refined(), children.ravel())


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-constant representative of an L2 element: one value per cell."""

    space: MeasureSpace
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "fc":
            vals = vals.astype(np.float64)
        if vals.shape != (self.space.cell_count,):
            raise ValueError(
                f"expected {self.space.cell_count} values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        object.__setattr__(self, "values", vals)

    def norm(self) -> float:
        return float(scaled_norm(self.values) * np.sqrt(self.space.cell_width))

    def refined(self) -> "GridFunction":
        """Re-sample the piecewise-constant representative on the finer grid."""
        return GridFunction(self.space.refined(), np.repeat(self.values, 2))

    @classmethod
    def sample(cls, space: MeasureSpace, func) -> "GridFunction":
        """Sample a callable at cell centers (midpoint rule)."""
        return cls(space, np.asarray(func(space.centers())))


def inner_product(f: GridFunction, g: GridFunction) -> complex:
    """L2 inner product, conjugate-linear in the second argument."""
    _require_same_space(f.space, g.space)
    return complex(np.sum(f.values * np.conj(g.values)) * f.space.cell_width)


def band_set(
    H: GridFunction, alpha: complex, lo: float, hi: float
) -> MeasurableSet:
    """Cells whose center value satisfies lo < |H - alpha| <= hi.

    Membership is decided by the cell-center value so that bands are exact
    unions of cells. Returns an empty set rather than raising; callers decide
    whether emptiness is an error.
    """
    if not 0 <= lo < hi:
        raise ValueError(f"band bounds must satisfy 0 <= lo < hi, got ({lo}, {hi})")
    dist = np.abs(H.values - alpha)
    mask = (dist > lo) & (dist <= hi)
    return MeasurableSet(H.space, np.nonzero(mask)[0])


def lift(x: GridFunction | MeasurableSet, space: MeasureSpace):
    """Carry a grid function or set to a finer grid by repeated subdivision."""
    if space.depth < x.space.depth:
        raise SpaceMismatchError("cannot lift to a coarser grid")
    while x.space.depth < space.depth:
        x = x.refined()
    return x


@dataclass(frozen=True, eq=False)
class GridKernel:
    """Kernel K(x, y) sampled at cell-center pairs; acts by weighted matvec.

    The induced operator is (Kf)(x_i) = sum_j entries[i, j] f(y_j) w with
    w the cell measure; its adjoint is the conjugate-transpose kernel, so
    the operator is bi-integral by construction.
    """

    space: MeasureSpace
    entries: np.ndarray

    def __post_init__(self):
        ent = np.asarray(self.entries)
        if ent.dtype.kind not in "fc":
            ent = ent.astype(np.float64)
        n = self.space.cell_count
        if ent.shape != (n, n):
            raise ValueError(f"expected {n}x{n} kernel samples, got {ent.shape}")
        # min/max propagate nan and reach +-inf without an n x n temporary
        parts = (ent.real, ent.imag) if ent.dtype.kind == "c" else (ent,)
        if not all(np.isfinite(p.min()) and np.isfinite(p.max()) for p in parts):
            raise ValueError("kernel entries must be finite")
        object.__setattr__(self, "entries", ent)

    def apply(self, f: GridFunction) -> GridFunction:
        _require_same_space(self.space, f.space)
        return GridFunction(self.space, _matvec(self.entries, f.values) * self.space.cell_width)

    def apply_adjoint(self, f: GridFunction) -> GridFunction:
        _require_same_space(self.space, f.space)
        return GridFunction(self.space, self.adjoint_image(f.values))

    def adjoint_image(self, x: np.ndarray) -> np.ndarray:
        """(K* x)(s) = sum_t conj(K(t, s)) x(t) w, without materializing K^H, for
        a (cell count,) array or each row of a (k, cell count) block at once.
        The result is made once and conjugated and scaled in place."""
        out = _matvec(self.entries.T, x.T, conjugate=True)
        np.conjugate(out, out=out)
        out *= self.space.cell_width
        return out.T

    def refined(self) -> "GridKernel":
        """Re-sample the piecewise-constant kernel on the finer grid."""
        ent = np.repeat(np.repeat(self.entries, 2, axis=0), 2, axis=1)
        return GridKernel(self.space.refined(), ent)

    @classmethod
    def sample(cls, space: MeasureSpace, func) -> "GridKernel":
        """Sample a callable K(x, y) on the cell-center product grid."""
        c = space.centers()
        return cls(space, np.asarray(func(c[:, None], c[None, :])))


def _matvec(entries: np.ndarray, values: np.ndarray, conjugate: bool = False) -> np.ndarray:
    """entries @ values, or entries @ conj(values) with `conjugate`. A real
    kernel applied to complex values stays in real BLAS, reading the real
    part as a view and the imaginary part as a view or, conjugated, one real
    copy, and the complex result is assembled in one array."""
    if entries.dtype.kind == "f" and values.dtype.kind == "c":
        out = np.multiply(1j, entries @ (np.negative(values.imag) if conjugate else values.imag))
        np.add(entries @ values.real, out, out=out)
        return out
    return entries @ (np.conj(values) if conjugate else values)
