"""Dyadic grid model of the underlying measure space.

The ambient space is Y = [0, 1) with Lebesgue measure, discretized into
2**depth half-open cells of equal measure 2**-depth. Measurable sets are
unions of cells, functions are piecewise constant per cell, and kernels are
sampled at cell-center pairs (midpoint rule). All measures are dyadic
rationals, so set algebra (bisection, band extraction, refinement) is exact
in double precision. Nonatomicity is emulated by grid refinement: every cell
splits into two children of half the measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SpaceMismatchError

MAX_DEPTH = 24


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
        return float(np.linalg.norm(self.values) * np.sqrt(self.space.cell_width))

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
        # (K* f)(x) = sum_y conj(K(y, x)) f(y) w, without materializing K^H
        _require_same_space(self.space, f.space)
        out = np.conj(_matvec(self.entries.T, np.conj(f.values)))
        return GridFunction(self.space, out * self.space.cell_width)

    def adjoint(self) -> "GridKernel":
        return GridKernel(self.space, np.conj(self.entries.T))

    def refined(self) -> "GridKernel":
        """Re-sample the piecewise-constant kernel on the finer grid."""
        ent = np.repeat(np.repeat(self.entries, 2, axis=0), 2, axis=1)
        return GridKernel(self.space.refined(), ent)

    @classmethod
    def sample(cls, space: MeasureSpace, func) -> "GridKernel":
        """Sample a callable K(x, y) on the cell-center product grid."""
        c = space.centers()
        return cls(space, np.asarray(func(c[:, None], c[None, :])))


def _matvec(entries: np.ndarray, values: np.ndarray) -> np.ndarray:
    # keep real kernels in real BLAS when applied to complex vectors
    if entries.dtype.kind == "f" and values.dtype.kind == "c":
        return entries @ values.real + 1j * (entries @ values.imag)
    return entries @ values


class MultiplicationOperator:
    """Multiplication by a grid function; adjoint is conjugate multiplication."""

    def __init__(self, symbol: GridFunction):
        self.symbol = symbol
        self.space = symbol.space

    def apply(self, f: GridFunction) -> GridFunction:
        _require_same_space(self.space, f.space)
        return GridFunction(self.space, self.symbol.values * f.values)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """The operator applied to each row of a (k, cell count) array."""
        return rows * self.symbol.values

    def adjoint(self) -> "MultiplicationOperator":
        return MultiplicationOperator(
            GridFunction(self.space, np.conj(self.symbol.values))
        )


class IntegralOperator:
    """Integral operator induced by a grid kernel (or its adjoint)."""

    def __init__(self, kernel: GridKernel, conjugate_transpose: bool = False):
        self.kernel = kernel
        self.conjugate_transpose = conjugate_transpose
        self.space = kernel.space

    def apply(self, f: GridFunction) -> GridFunction:
        if self.conjugate_transpose:
            return self.kernel.apply_adjoint(f)
        return self.kernel.apply(f)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """The operator applied to each row of a (k, cell count) array, as
        `apply` does to one function but in one matrix product."""
        entries, w = self.kernel.entries, self.space.cell_width
        if self.conjugate_transpose:
            return np.conj(_matvec(entries.T, np.conj(rows.T))).T * w
        return _matvec(entries, rows.T).T * w

    def adjoint(self) -> "IntegralOperator":
        return IntegralOperator(self.kernel, not self.conjugate_transpose)
