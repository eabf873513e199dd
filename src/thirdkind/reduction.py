"""Finite-truncation surrogate of the unitary map onto L2(R).

The map is determined by pairing two orthonormal bases: a completed basis
{b_n} of the grid space whose leading entries are the damping sequence
{e_n}, and the smooth basis {u_n}. Forward application reads off the
coefficients of a grid function in {b_n} (as coefficients in {u_n}); the
inverse synthesizes. In full truncation (basis size = cell count) the
pairing is unitary up to rounding, so an operator S is represented exactly
by its matrix a_mn = <S b_n, b_m>, read off the images S b_n of the rows.

The e_n have pairwise disjoint supports (one band each), so the completed
basis has a closed form: outside the bands it is the cell indicators, and on
a band E with sequence values v it is the Gram-Schmidt sweep of the
indicators of E against v, whose row at cell E[k] is

    (delta_{E[k]} - (conj(v_k) / T_k) v_{>=k}) / sqrt(w T_{k+1} / T_k),

with T_k = sum_{i >= k} |v_i|^2 the suffix sums and w the cell measure. The
last cell of a band gets no row: its indicator already lies in the span. The
surrogate stores the indicator rows as (row, cell) pairs and one dense block
per band; no (size, cell count) basis is held.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError
from .hermite import SmoothBasis
from .measure import GridFunction, GridKernel, MeasureSpace, row_blocks
from .rademacher import KorotkovSequence

# Coefficient matrices are plain ndarrays with a_mn = <S b_n, b_m>: complex as
# built here; `reduce_problem` keeps the pencil's float64 when exactly real.
CoefficientMatrix = np.ndarray


@dataclass(frozen=True, eq=False)
class BlockDiagonal:
    """A size x size matrix that is zero outside its diagonal entries at
    `rows` and its principal blocks: each of `blocks` is a pair (index,
    values) with m[np.ix_(index, index)] = values. The index sets are
    disjoint, so this is a block diagonal matrix up to a permutation. A0 is
    one: the indicator rows on the diagonal, one block per band.

    Only the parts are held (`dense` makes a square array the one block).
    `add_to` adds them into an array, indexing `m[rows]` forms rows of the
    dense matrix, `T` is the transpose (of views).
    """

    size: int
    rows: np.ndarray
    diagonal: np.ndarray
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @classmethod
    def dense(cls, m: np.ndarray) -> "BlockDiagonal":
        """A square ndarray as one block."""
        m = np.asarray(m)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        n = m.shape[0]
        return cls(n, np.arange(0), np.zeros(0, dtype=m.dtype), ((np.arange(n), m),))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.size, self.size)

    @property
    def dtype(self) -> np.dtype:
        return np.result_type(self.diagonal, *(values for _, values in self.blocks))

    @property
    def T(self) -> "BlockDiagonal":
        return BlockDiagonal(
            self.size, self.rows, self.diagonal, tuple((i, v.T) for i, v in self.blocks)
        )

    def _parts(self, rows: slice):
        """(index, values) pairs of the nonzero parts in the rows `rows`, the
        row indices counted from the slice's start."""
        start, stop, _ = rows.indices(self.size)
        on = (self.rows >= start) & (self.rows < stop)
        yield (self.rows[on] - start, self.rows[on]), self.diagonal[on]
        for index, values in self.blocks:
            on = (index >= start) & (index < stop)
            yield np.ix_(index[on] - start, index), values[on]

    def add_to(self, out: np.ndarray, rows: slice = slice(None)) -> None:
        """out += the rows `rows` of this matrix, where it may be nonzero.
        After `out += 0.0` this is entry for entry the dense sum, as long as
        no part holds a -0.0 (`pencil_matrices` leaves none)."""
        for at, values in self._parts(rows):
            out[at] += values

    def __getitem__(self, rows: slice) -> np.ndarray:
        """The rows `rows` of the matrix as a new dense array."""
        start, stop, _ = rows.indices(self.size)
        out = np.zeros((stop - start, self.size), dtype=self.dtype)
        for at, values in self._parts(rows):
            out[at] = values
        return out

    def toarray(self) -> np.ndarray:
        """The dense matrix, made on each call."""
        return self[:]

    def map(self, f) -> "BlockDiagonal":
        """The same structure with f applied to the diagonal and each block."""
        return BlockDiagonal(
            self.size, self.rows, f(self.diagonal), tuple((i, f(v)) for i, v in self.blocks)
        )


@dataclass(frozen=True, eq=False)
class BandBlock:
    """The rows of the completed basis supported on one band.

    Row 0 of `block` is the band's sequence function on `cells`; row 1 + k is
    the closed-form row at cells[k]. `rows` holds their surrogate row indices;
    projected mode keeps a prefix of them.
    """

    cells: np.ndarray  # the band's cells, increasing
    rows: np.ndarray
    block: np.ndarray  # values on `cells`, shape (rows.size, cells.size)


def complete_basis(
    functions: Sequence[GridFunction], space: MeasureSpace
) -> list[GridFunction]:
    """Extend an orthonormal family to an orthonormal basis of the grid space.

    The given functions come first; the tail is the Gram-Schmidt sweep over
    the normalized cell indicators in index order, skipping candidates
    already in the span, taken in closed form. The family's supports must be
    pairwise disjoint (ValueError otherwise). This is the dense view of
    `UnitarySurrogate.from_sequence` at full truncation.
    """
    return [GridFunction(space, r) for r in _complete(functions, space, space.cell_count).b_matrix]


def _complete(
    functions: Sequence[GridFunction], space: MeasureSpace, size: int
) -> "UnitarySurrogate":
    """The first `size` rows of the completed basis, as indicators and bands."""
    n = space.cell_count
    w = space.cell_width
    band_of = np.full(n, -1)
    bands = []  # (support, values there, their suffix sums T) per function
    for b, f in enumerate(functions):
        if f.space != space:
            raise SpaceMismatchError("sequence function lives on a different grid")
        cells = np.flatnonzero(f.values)
        if np.any(band_of[cells] >= 0):
            raise ValueError("starting family must have disjoint supports")
        band_of[cells] = b
        v = f.values[cells].astype(complex)
        tail = np.cumsum((np.abs(v) ** 2)[::-1])[::-1]
        if not cells.size or abs(w * tail[0] - 1.0) > 1e-8:
            raise ValueError("starting family is not orthonormal")
        bands.append((cells, v, tail))

    # rows: the functions, then one per cell in index order except the last
    # cell of each band
    gives_row = np.ones(n, dtype=bool)
    for cells, _, _ in bands:
        gives_row[cells[-1]] = False
    row_of = len(bands) - 1 + np.cumsum(gives_row)
    free = np.flatnonzero((band_of < 0) & (row_of < size))

    blocks = []
    for b, (cells, v, tail) in enumerate(bands):
        kept = int(np.count_nonzero(row_of[cells[:-1]] < size))
        k = np.arange(kept)
        q = np.triu(-(np.conj(v[:kept]) / tail[:kept])[:, None] * v)
        q[k, k] = tail[1 : kept + 1] / tail[:kept]
        q /= np.sqrt(w * tail[1 : kept + 1] / tail[:kept])[:, None]
        blocks.append(
            BandBlock(
                cells=cells,
                rows=np.concatenate([[b], row_of[cells[:kept]]]),
                block=np.vstack([v, q]),
            )
        )
    scale = 1.0 / np.sqrt(w)
    return UnitarySurrogate(
        space=space,
        indicator_rows=row_of[free],
        indicator_cells=free,
        # 1/sqrt(w), rounded as the sweep's normalized candidate delta/sqrt(w)
        indicator_value=scale / (scale * np.sqrt(w)),
        bands=tuple(blocks),
        basis=SmoothBasis(size),
    )


def matrix_elements(
    space: MeasureSpace, b_rows: np.ndarray, images: np.ndarray
) -> CoefficientMatrix:
    """Coefficient matrix a_mn = <S b_n, b_m> = w conj(B) images^T of S on `space`.

    B = `b_rows` holds the basis functions b_n as rows, like `U.b_matrix`, and
    `images` their images S b_n the same way: the generic dense path, where
    `pencil_matrices` is the structured one of the reduction's two operators.
    Formed `row_blocks` at a time, so that neither conj(B) nor an unscaled
    product is alive beside the result.
    """
    if b_rows.ndim != 2 or b_rows.shape[1] != space.cell_count or images.shape != b_rows.shape:
        raise SpaceMismatchError("operator and basis live on different grids")
    n = b_rows.shape[0]
    out = np.empty((n, n), dtype=np.result_type(b_rows, images, space.cell_width))
    for rows in row_blocks(n):
        out[rows] = space.cell_width * (b_rows[rows].conj() @ images.T)
    return out


def pencil_matrices(
    U: UnitarySurrogate, symbol: GridFunction, kernel: GridKernel
) -> tuple[BlockDiagonal, CoefficientMatrix]:
    """Matrices of multiplication by `symbol` and of `kernel` over U's rows.

    With B = U.b_matrix and w the cell measure these are
    A0 = w conj(B) diag(symbol) B^T and A = w^2 conj(B) K B^T, equal to
    `matrix_elements` of the two operators. Rows with disjoint supports give
    zero in A0, so A0 is returned as that structure, a `BlockDiagonal`: the
    indicator diagonal plus one principal block per band (22,303 nonzeros
    of 1,048,576 at N = 1024 with three bands); no dense A0 is made. A,
    dense and complex, reads an indicator row of K B^T by
    gathering K, and a band's rows by a product with K's rows and columns
    at the band's cells. Neither holds a -0.0.
    """
    if symbol.space != U.space or kernel.space != U.space:
        raise SpaceMismatchError("operators and surrogate live on different grids")
    w = U.space.cell_width
    rows, cells, beta = U.indicator_rows, U.indicator_cells, U.indicator_value
    d = symbol.values
    K = kernel.entries

    # each part + 0.0 holds what a dense complex A0 holds there
    a0 = BlockDiagonal(
        U.size,
        rows,
        ((w * beta) * (d[cells] * beta)).astype(complex) + 0.0,
        tuple(
            (band.rows, w * (band.block.conj() @ (d[band.cells, None] * band.block.T)) + 0.0)
            for band in U.bands
        ),
    )

    def kernel_image(at: np.ndarray) -> np.ndarray:
        # the rows `at` of w K B^T
        out = np.empty((at.size, U.size), dtype=complex)
        out[:, rows] = K[np.ix_(at, cells)] * beta
        for band in U.bands:
            out[:, band.rows] = K[np.ix_(at, band.cells)] @ band.block.T
        out *= w
        return out

    a = np.empty((U.size, U.size), dtype=complex)
    image = kernel_image(cells)
    image *= w * beta
    a[rows] = image
    del image
    for band in U.bands:
        a[band.rows] = w * (band.block.conj() @ kernel_image(band.cells))
    a += 0.0  # a gathered -0.0 becomes the 0.0 a summed product gives
    return a0, a


@dataclass(frozen=True, eq=False)
class UnitarySurrogate:
    """Basis pairing b_n <-> u_n acting as the unitary reduction at truncation N.

    Full truncation (N = cell count) keeps forward-then-inverse the identity
    and the forward map an isometry, both to rounding. Projected mode
    (N < cell count) is available for scaling studies and is flagged so
    reports can expose the projection error.

    Row indicator_rows[i] is the indicator of cell indicator_cells[i], with
    the value `indicator_value` there; every other row lives in one of
    `bands`.
    """

    space: MeasureSpace
    indicator_rows: np.ndarray
    indicator_cells: np.ndarray
    indicator_value: float
    bands: tuple[BandBlock, ...]
    basis: SmoothBasis

    @property
    def size(self) -> int:
        return self.basis.size

    @property
    def projected(self) -> bool:
        return self.size < self.space.cell_count

    @property
    def b_matrix(self) -> np.ndarray:
        """The rows b_n as a dense (size, cell count) array, built on each call."""
        B = np.zeros((self.size, self.space.cell_count), dtype=complex)
        B[self.indicator_rows, self.indicator_cells] = self.indicator_value
        for band in self.bands:
            B[np.ix_(band.rows, band.cells)] = band.block
        return B

    @classmethod
    def from_sequence(
        cls, seq: KorotkovSequence, basis_size: int | str = "full"
    ) -> "UnitarySurrogate":
        """The completion of `seq` on its own grid, truncated to `basis_size`
        rows: "full" or an integer from the sequence length to the cell count."""
        space, functions = seq.space, seq.functions
        size = space.cell_count if basis_size == "full" else int(basis_size)
        if not len(functions) <= size <= space.cell_count:
            raise ValueError(
                f"basis size must lie in [{len(functions)}, {space.cell_count}]"
            )
        return _complete(functions, space, size)

    def forward(self, phi: GridFunction) -> np.ndarray:
        """Coefficients c_n = <phi, b_n>, read as coefficients in {u_n}."""
        if phi.space != self.space:
            raise SpaceMismatchError("function lives on a different grid")
        w = self.space.cell_width
        c = np.empty(self.size, dtype=complex)
        c[self.indicator_rows] = w * (self.indicator_value * phi.values[self.indicator_cells])
        for band in self.bands:
            c[band.rows] = w * (band.block.conj() @ phi.values[band.cells])
        return c

    def inverse(self, coefficients: np.ndarray) -> GridFunction:
        """Synthesize sum_n c_n b_n back on the grid."""
        c = np.asarray(coefficients)
        if c.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {c.shape}")
        values = np.zeros(self.space.cell_count, dtype=complex)
        values[self.indicator_cells] = self.indicator_value * c[self.indicator_rows]
        for band in self.bands:
            values[band.cells] = band.block.T @ c[band.rows]
        return GridFunction(self.space, values)
