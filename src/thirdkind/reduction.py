"""Finite-truncation surrogate of the unitary map onto L2(R).

The map is determined by pairing two orthonormal bases: a completed basis
{b_n} of the grid space whose leading entries are the damping sequence
{e_n}, and the smooth basis {u_n}. Forward application reads off the
coefficients of a grid function in {b_n} (interpreted as coefficients in
{u_n}); the inverse synthesizes. In full truncation (basis size = cell
count) the pairing is unitary up to rounding, so conjugated operators are
represented exactly by their coefficient matrices a_mn = <S b_n, b_m>.

Each e_n lives on one band, so outside the bands' union the completed basis
is the cell indicators themselves. The completion sweeps only that union,
and the pencil matrices read the indicator rows by gathering entries of
H - alpha and K; only the rows supported on the bands take dense products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError
from .hermite import SmoothBasis
from .measure import GridFunction, GridKernel, MeasureSpace
from .rademacher import KorotkovSequence

RANK_TOLERANCE = 1e-10

# Coefficient matrices are plain complex ndarrays with a_mn = <S b_n, b_m>.
CoefficientMatrix = np.ndarray


def complete_basis(
    functions: Sequence[GridFunction], space: MeasureSpace
) -> list[GridFunction]:
    """Extend an orthonormal family to an orthonormal basis of the grid space.

    The given functions come first; the tail is a Gram-Schmidt sweep over the
    normalized cell indicators in index order, skipping candidates already in
    the span (residual norm below 1e-10). Deterministic by construction.

    The sweep only does work on the support S of the given functions: every
    row built so far vanishes at a cell outside S, so that cell's indicator
    is appended as it is, and the indicator of a cell in S is orthogonalized
    in S coordinates against the rows supported there.
    """
    n = space.cell_count
    w = space.cell_width
    start = np.zeros((len(functions), n), dtype=complex)
    for i, f in enumerate(functions):
        if f.space != space:
            raise SpaceMismatchError("sequence function lives on a different grid")
        start[i] = f.values
    filled = len(functions)
    if filled:
        gram = w * (start.conj() @ start.T)
        if np.max(np.abs(gram - np.eye(filled))) > 1e-8:
            raise ValueError("starting family is not orthonormal")

    support = np.flatnonzero(np.any(start != 0, axis=0))
    position = np.full(n, -1)
    position[support] = np.arange(support.size)
    basis = np.zeros((n, n), dtype=complex)
    basis[:filled] = start
    # rows supported on S, in S coordinates
    local = np.zeros((support.size, support.size), dtype=complex)
    local[:filled] = start[:, support]
    local_filled = filled

    scale = 1.0 / np.sqrt(w)
    indicator = scale / (scale * np.sqrt(w))  # rounded as a swept candidate is
    for cell in range(n):
        if filled == n:
            break
        j = position[cell]
        if j < 0:
            basis[filled, cell] = indicator
            filled += 1
            continue
        rows = local[:local_filled]
        v = np.zeros(support.size, dtype=complex)
        v[j] = scale
        for _ in range(2):  # modified Gram-Schmidt with one reorthogonalization
            coeff = w * (rows.conj() @ v)
            v -= rows.T @ coeff
        residual = np.linalg.norm(v) * np.sqrt(w)
        if residual <= RANK_TOLERANCE:
            continue
        local[local_filled] = v / residual
        basis[filled, support] = local[local_filled]
        local_filled += 1
        filled += 1
    assert filled == n, "indicators always complete the grid space"
    return [GridFunction(space, basis[i]) for i in range(n)]


def matrix_elements(op, b_basis: Sequence[GridFunction]) -> CoefficientMatrix:
    """Coefficient matrix a_mn = <S b_n, b_m> of an operator on the grid.

    `op` must expose apply(GridFunction) -> GridFunction over the basis's
    space. The adjoint operator's matrix is the conjugate transpose. This is
    the generic path, one operator application per basis function; see
    `pencil_matrices` for the two operators of the reduction.
    """
    space = b_basis[0].space
    if getattr(op, "space", space) != space:
        raise SpaceMismatchError("operator and basis live on different grids")
    stacked = np.array([b.values for b in b_basis])
    applied = np.array([op.apply(b).values for b in b_basis])
    return space.cell_width * (stacked.conj() @ applied.T)


def pencil_matrices(
    U: UnitarySurrogate, symbol: GridFunction, kernel: GridKernel
) -> tuple[CoefficientMatrix, CoefficientMatrix]:
    """Matrices of multiplication by `symbol` and of `kernel` over U's rows.

    With B = U.b_matrix and w the cell measure these are
    A0 = w conj(B) diag(symbol) B^T and A = w^2 conj(B) K B^T, equal to
    `matrix_elements` of the two operators for any B. A row with a single
    nonzero entry (an indicator) reads a scaled row of diag(symbol) B^T or
    K B^T, which are gathers; the other rows take a dense product over
    their joint column support. Without indicator rows that is the dense
    product.
    """
    if symbol.space != U.space or kernel.space != U.space:
        raise SpaceMismatchError("operators and surrogate live on different grids")
    B = U.b_matrix
    w = U.space.cell_width
    single = np.count_nonzero(B, axis=1) == 1
    ind_rows = np.flatnonzero(single)  # indicator rows
    dense_rows = np.flatnonzero(~single)
    cells = np.argmax(B[ind_rows] != 0, axis=1)
    beta = B[ind_rows, cells]
    dense_cols = np.flatnonzero(np.any(B[dense_rows] != 0, axis=0))
    b_dense = B[np.ix_(dense_rows, dense_cols)]

    def project(image) -> CoefficientMatrix:
        # image(rows) returns the rows `rows` of S B^T
        out = np.empty((B.shape[0], B.shape[0]), dtype=complex)
        out[ind_rows] = (w * np.conj(beta))[:, None] * image(cells)
        out[dense_rows] = w * (b_dense.conj() @ image(dense_cols))
        out += 0.0  # a gathered -0.0 becomes the 0.0 a summed product gives
        return out

    d = symbol.values
    K = kernel.entries

    def kernel_image(rows: np.ndarray) -> np.ndarray:
        out = np.empty((rows.size, B.shape[0]), dtype=complex)
        out[:, ind_rows] = K[np.ix_(rows, cells)] * beta
        out[:, dense_rows] = K[np.ix_(rows, dense_cols)] @ b_dense.T
        return w * out

    a0 = project(lambda rows: d[rows, None] * B[:, rows].T)
    a = project(kernel_image)
    return a0, a


@dataclass(frozen=True, eq=False)
class UnitarySurrogate:
    """Basis pairing b_n <-> u_n acting as the unitary reduction at truncation N.

    Full truncation (N = cell count) keeps forward-then-inverse the identity
    and the forward map an isometry, both to rounding. Projected mode
    (N < cell count) is available for scaling studies and is flagged so
    reports can expose the projection error.
    """

    space: MeasureSpace
    b_matrix: np.ndarray  # rows are the b_n values
    basis: SmoothBasis
    projected: bool

    @property
    def size(self) -> int:
        return self.b_matrix.shape[0]

    @property
    def b_functions(self) -> list[GridFunction]:
        return [GridFunction(self.space, row) for row in self.b_matrix]

    @classmethod
    def from_sequence(
        cls,
        seq: KorotkovSequence | None,
        space: MeasureSpace,
        basis_size: int | str = "full",
    ) -> "UnitarySurrogate":
        functions = seq.functions if seq is not None else []
        if seq is not None and seq.space != space:
            raise SpaceMismatchError("sequence was built on a different grid")
        full = complete_basis(functions, space)
        if basis_size == "full":
            size = space.cell_count
        else:
            size = int(basis_size)
            if not len(functions) <= size <= space.cell_count:
                raise ValueError(
                    f"basis size must lie in [{len(functions)}, {space.cell_count}]"
                )
        b_matrix = np.array([f.values for f in full[:size]])
        return cls(
            space=space,
            b_matrix=b_matrix,
            basis=SmoothBasis(size),
            projected=size < space.cell_count,
        )

    def forward(self, phi: GridFunction) -> np.ndarray:
        """Coefficients c_n = <phi, b_n>, read as coefficients in {u_n}."""
        if phi.space != self.space:
            raise SpaceMismatchError("function lives on a different grid")
        return self.space.cell_width * (self.b_matrix.conj() @ phi.values)

    def inverse(self, coefficients: np.ndarray) -> GridFunction:
        """Synthesize sum_n c_n b_n back on the grid."""
        c = np.asarray(coefficients)
        if c.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got {c.shape}")
        return GridFunction(self.space, self.b_matrix.T @ c)
