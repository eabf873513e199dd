"""Finite-truncation surrogate of the unitary map onto L2(R).

The map is determined by pairing two orthonormal bases: a completed basis
{b_n} of the grid space whose leading entries are the damping sequence
{e_n}, and the smooth basis {u_n}. Forward application reads off the
coefficients of a grid function in {b_n} (interpreted as coefficients in
{u_n}); the inverse synthesizes. In full truncation (basis size = cell
count) the pairing is unitary up to rounding, so conjugated operators are
represented exactly by their coefficient matrices a_mn = <S b_n, b_m>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError
from .hermite import SmoothBasis
from .measure import GridFunction, MeasureSpace
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
    """
    n = space.cell_count
    w = space.cell_width
    basis = np.zeros((n, n), dtype=complex)
    filled = 0
    for f in functions:
        if f.space != space:
            raise SpaceMismatchError("sequence function lives on a different grid")
        basis[filled] = f.values
        filled += 1
    if filled:
        gram = w * (basis[:filled].conj() @ basis[:filled].T)
        if np.max(np.abs(gram - np.eye(filled))) > 1e-8:
            raise ValueError("starting family is not orthonormal")

    scale = 1.0 / np.sqrt(w)
    for cell in range(n):
        if filled == n:
            break
        v = np.zeros(n, dtype=complex)
        v[cell] = scale
        for _ in range(2):  # modified Gram-Schmidt with one reorthogonalization
            coeff = w * (basis[:filled].conj() @ v)
            v -= basis[:filled].T @ coeff
        residual = np.linalg.norm(v) * np.sqrt(w)
        if residual <= RANK_TOLERANCE:
            continue
        basis[filled] = v / residual
        filled += 1
    assert filled == n, "indicators always complete the grid space"
    return [GridFunction(space, basis[i]) for i in range(n)]


def matrix_elements(op, b_basis: Sequence[GridFunction]) -> CoefficientMatrix:
    """Coefficient matrix a_mn = <S b_n, b_m> of an operator on the grid.

    `op` must expose apply(GridFunction) -> GridFunction over the basis's
    space. The adjoint operator's matrix is the conjugate transpose.
    """
    space = b_basis[0].space
    if getattr(op, "space", space) != space:
        raise SpaceMismatchError("operator and basis live on different grids")
    stacked = np.array([b.values for b in b_basis])
    applied = np.array([op.apply(b).values for b in b_basis])
    return space.cell_width * (stacked.conj() @ applied.T)


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
