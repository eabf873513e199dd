"""Basis completion, coefficient matrices, and the unitary surrogate."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from thirdkind import (
    GridFunction,
    GridKernel,
    MeasurableSet,
    MeasureSpace,
    SpaceMismatchError,
    UnitarySurrogate,
    band_set,
    build_sequence,
    complete_basis,
    inner_product,
    matrix_elements,
    pencil_matrices,
    rademacher,
)


def gram(functions):
    k = len(functions)
    g = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            g[i, j] = inner_product(functions[i], functions[j])
    return g


def rows(functions):
    """The functions' values as the rows of one array, as matrix_elements
    takes a basis."""
    return np.array([f.values for f in functions])


def kernel_image(K, b):
    """w K b^T as rows: the images of the rows of `b` under K, from the
    entries."""
    return (K.entries @ b.T).T * K.space.cell_width


def exp_kernel(space):
    c = space.centers()
    return GridKernel(space, np.exp(np.outer(c, c)))


def dense_complete_basis(functions, space):
    """Reference completion: the Gram-Schmidt sweep over every cell indicator
    against every row, with no use of the family's support."""
    n = space.cell_count
    w = space.cell_width
    basis = np.zeros((n, n), dtype=complex)
    filled = 0
    for f in functions:
        basis[filled] = f.values
        filled += 1
    scale = 1.0 / np.sqrt(w)
    for cell in range(n):
        if filled == n:
            break
        v = np.zeros(n, dtype=complex)
        v[cell] = scale
        for _ in range(2):
            coeff = w * (basis[:filled].conj() @ v)
            v -= basis[:filled].T @ coeff
        residual = np.linalg.norm(v) * np.sqrt(w)
        if residual <= 1e-10:
            continue
        basis[filled] = v / residual
        filled += 1
    return basis


def complex_family():
    """Three orthonormal functions with disjoint, interleaved supports and
    complex values of non-constant modulus, one of them on a single cell."""
    space = MeasureSpace(5)
    rng = np.random.default_rng(41)
    supports = ([2, 5, 6, 11, 12, 13, 20, 31], [3, 4, 14, 15, 16, 17], [9])
    functions = []
    for cells in supports:
        values = np.zeros(space.cell_count, dtype=complex)
        values[cells] = rng.uniform(0.5, 2.0, len(cells)) * np.exp(
            2j * np.pi * rng.uniform(size=len(cells))
        )
        values /= np.linalg.norm(values) * np.sqrt(space.cell_width)
        functions.append(GridFunction(space, values))
    return space, functions


def family(space, functions=()):
    """A stand-in sequence: the grid and the orthonormal functions on it."""
    return SimpleNamespace(space=space, functions=list(functions))


def three_band_sequence(depth):
    space = MeasureSpace(depth)
    H = GridFunction.sample(space, lambda y: y)
    seq = build_sequence(H, exp_kernel(space), 0.25, 3, 0.25, 0.5, depth_max=depth + 4)
    return seq


class TestCompleteBasis:
    def test_empty_family_depth_one(self):
        space = MeasureSpace(1)
        basis = complete_basis([], space)
        s2 = math.sqrt(2.0)
        np.testing.assert_allclose(basis[0].values, [s2, 0.0])
        np.testing.assert_allclose(basis[1].values, [0.0, s2])

    def test_rademacher_then_constant(self):
        # orthogonalizing the first indicator against R_1 leaves the
        # constant function, up to sign
        space = MeasureSpace(1)
        E = MeasurableSet(space, [0, 1])
        r1 = rademacher(E, 1)
        basis = complete_basis([r1], space)
        assert len(basis) == 2
        np.testing.assert_allclose(basis[0].values, r1.values)
        np.testing.assert_allclose(np.abs(basis[1].values), [1.0, 1.0], atol=1e-14)
        assert basis[1].values[0] == pytest.approx(basis[1].values[1], abs=1e-14)

    def test_gram_identity_with_sequence(self):
        seq = three_band_sequence(6)
        basis = complete_basis(seq.functions, seq.space)
        assert len(basis) == seq.space.cell_count
        g = gram(basis)
        assert np.max(np.abs(g - np.eye(len(basis)))) <= 1e-10

    def test_leading_entries_are_the_sequence(self):
        seq = three_band_sequence(6)
        basis = complete_basis(seq.functions, seq.space)
        for expected, got in zip(seq.functions, basis):
            np.testing.assert_allclose(got.values, expected.values, atol=1e-14)

    @pytest.mark.parametrize("depth", [6, 8])
    def test_matches_dense_sweep_three_bands(self, depth):
        seq = three_band_sequence(depth)
        basis = np.array([f.values for f in complete_basis(seq.functions, seq.space)])
        reference = dense_complete_basis(seq.functions, seq.space)
        assert np.max(np.abs(basis - reference)) <= 1e-14

    def test_matches_dense_sweep_empty_family(self):
        space = MeasureSpace(5)
        basis = np.array([f.values for f in complete_basis([], space)])
        np.testing.assert_array_equal(basis, dense_complete_basis([], space))

    def test_matches_dense_sweep_full_support(self):
        # a constant has every cell in its support: the sweep is the dense one
        space = MeasureSpace(5)
        one = [GridFunction(space, np.ones(space.cell_count))]
        basis = np.array([f.values for f in complete_basis(one, space)])
        assert np.max(np.abs(basis - dense_complete_basis(one, space))) <= 1e-14

    def test_matches_dense_sweep_projected(self):
        seq = three_band_sequence(7)
        U = UnitarySurrogate.from_sequence(seq, 40)
        reference = dense_complete_basis(seq.functions, seq.space)[:40]
        assert U.projected
        assert np.max(np.abs(U.b_matrix - reference)) <= 1e-14

    def test_matches_dense_sweep_complex_family(self):
        space, functions = complex_family()
        basis = np.array([f.values for f in complete_basis(functions, space)])
        reference = dense_complete_basis(functions, space)
        assert np.max(np.abs(basis - reference)) <= 1e-14

    def test_rejects_non_orthonormal_start(self):
        space = MeasureSpace(2)
        one = GridFunction(space, np.ones(space.cell_count))
        with pytest.raises(ValueError):
            complete_basis([one, one], space)
        with pytest.raises(ValueError, match="not orthonormal"):
            complete_basis([GridFunction(space, np.full(space.cell_count, 2.0))], space)
        with pytest.raises(ValueError, match="not orthonormal"):
            complete_basis([GridFunction(space, np.zeros(space.cell_count))], space)

    def test_rejects_overlapping_supports(self):
        # orthonormal, but the supports overlap: the closed form does not apply
        space = MeasureSpace(1)
        r1 = rademacher(MeasurableSet(space, [0, 1]), 1)
        with pytest.raises(ValueError, match="disjoint supports"):
            complete_basis([r1, GridFunction(space, np.ones(space.cell_count))], space)

    def test_storage_is_cells_and_band_blocks(self):
        # depth 12, basis size 512: a dense basis would hold 16 * 512 * 4096 B
        space = MeasureSpace(12)
        H = GridFunction.sample(space, lambda y: y)
        bands = [band_set(H, 0.25, 0.25 * 0.5 ** (i + 1), 0.25 * 0.5**i) for i in (1, 2, 3)]
        functions = [rademacher(E, k) for k, E in zip((3, 2, 1), bands)]
        seq = family(space, functions)
        n = space.cell_count
        bound = 16 * (n + sum(E.cell_count ** 2 + E.cell_count for E in bands))

        def stored(U):
            arrays = [U.indicator_rows, U.indicator_cells]
            for band in U.bands:
                arrays += [band.cells, band.rows, band.block]
            return sum(a.nbytes for a in arrays)

        projected = UnitarySurrogate.from_sequence(seq, 512)
        assert stored(projected) <= bound
        assert stored(projected) <= 16 * 512 * n / 100
        assert stored(UnitarySurrogate.from_sequence(seq, "full")) <= bound


class TestMatrixElements:
    def test_constant_coefficient_gives_zero_matrices(self):
        # H identically alpha makes the shifted symbol vanish; with a zero
        # kernel the reduced equation collapses to alpha f = g
        space = MeasureSpace(4)
        alpha = 0.75
        H = GridFunction(space, np.full(space.cell_count, alpha))
        K = GridKernel(space, np.zeros((16, 16)))
        U = UnitarySurrogate.from_sequence(family(space), "full")
        shifted = GridFunction(space, H.values - alpha)
        B = U.b_matrix
        a0 = matrix_elements(space, B, B * shifted.values)
        a = matrix_elements(space, B, kernel_image(K, B))
        assert np.max(np.abs(a0)) == 0.0
        assert np.max(np.abs(a)) == 0.0
        rng = np.random.default_rng(63)
        phi = GridFunction(
            space, rng.standard_normal(16) + 1j * rng.standard_normal(16)
        )
        psi = GridFunction(space, alpha * phi.values)
        np.testing.assert_allclose(
            alpha * U.forward(phi), U.forward(psi), atol=1e-12
        )

    def test_identity_operator(self):
        space = MeasureSpace(2)
        basis = rows(complete_basis([], space))
        a = matrix_elements(space, basis, basis * np.ones(space.cell_count))
        np.testing.assert_allclose(a, np.eye(4), atol=1e-14)

    def test_multiplication_by_linear_on_indicators(self):
        # cell centers 0.25 and 0.75 appear on the diagonal
        space = MeasureSpace(1)
        basis = rows(complete_basis([], space))
        symbol = GridFunction.sample(space, lambda y: y)
        a = matrix_elements(space, basis, basis * symbol.values)
        np.testing.assert_allclose(a, np.diag([0.25, 0.75]), atol=1e-14)

    def test_constant_kernel_on_indicators(self):
        # (K f)(x) = integral of f, so every entry is 0.5 at depth 1
        space = MeasureSpace(1)
        basis = rows(complete_basis([], space))
        a = matrix_elements(space, basis, kernel_image(GridKernel(space, np.ones((2, 2))), basis))
        np.testing.assert_allclose(a, np.full((2, 2), 0.5), atol=1e-14)

    def test_adjoint_is_conjugate_transpose(self):
        space = MeasureSpace(4)
        rng = np.random.default_rng(12)
        n = space.cell_count
        basis = rows(complete_basis([], space))
        K = GridKernel(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        a = matrix_elements(space, basis, kernel_image(K, basis))
        a_star = matrix_elements(space, basis, K.adjoint_image(basis))
        assert np.max(np.abs(a_star - a.conj().T)) <= 1e-10

    def test_hermitian_for_real_shifted_multiplication(self):
        seq = three_band_sequence(6)
        basis = rows(complete_basis(seq.functions, seq.space))
        shifted = GridFunction(seq.space, seq.coefficient.values - 0.25)
        a = matrix_elements(seq.space, basis, basis * shifted.values)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12

    def test_space_mismatch(self):
        basis = rows(complete_basis([], MeasureSpace(2)))
        with pytest.raises(SpaceMismatchError):
            matrix_elements(MeasureSpace(3), basis, basis)
        with pytest.raises(SpaceMismatchError):
            matrix_elements(MeasureSpace(2), basis, basis[:, :2])


def generic_pencil(U, symbol, kernel):
    """The dense oracle: the operators' images of every row, formed here from
    the symbol and the kernel's entries."""
    b = U.b_matrix
    return (
        matrix_elements(U.space, b, b * symbol.values),
        matrix_elements(U.space, b, kernel_image(kernel, b)),
    )


def assert_pencils_match(U, symbol, kernel):
    for got, want in zip(pencil_matrices(U, symbol, kernel), generic_pencil(U, symbol, kernel)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestPencilMatrices:
    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_matches_matrix_elements(self, alpha):
        seq = three_band_sequence(7)
        U = UnitarySurrogate.from_sequence(seq, "full")
        shifted = GridFunction(seq.space, seq.coefficient.values - alpha)
        assert_pencils_match(U, shifted, seq.kernel)

    def test_complex_coefficient(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        c = seq.space.centers()
        symbol = GridFunction(seq.space, c - 0.25 + 1j * np.sin(3 * c))
        assert_pencils_match(U, symbol, seq.kernel)

    def test_complex_non_hermitian_kernel(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        n = seq.space.cell_count
        rng = np.random.default_rng(31)
        K = GridKernel(seq.space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        shifted = GridFunction(seq.space, seq.coefficient.values - 0.25)
        assert_pencils_match(U, shifted, K)

    def test_projected(self):
        seq = three_band_sequence(7)
        U = UnitarySurrogate.from_sequence(seq, 40)
        shifted = GridFunction(seq.space, seq.coefficient.values - 0.25)
        a0, a = pencil_matrices(U, shifted, seq.kernel)
        assert a0.shape == a.shape == (40, 40)
        assert_pencils_match(U, shifted, seq.kernel)

    @pytest.mark.parametrize("size", ["full", 11])
    def test_empty_family(self, size):
        # no bands: every row is an indicator and the pencil is pure gathers
        space = MeasureSpace(5)
        U = UnitarySurrogate.from_sequence(family(space), size)
        rng = np.random.default_rng(32)
        n = space.cell_count
        symbol = GridFunction(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        K = GridKernel(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert U.bands == ()
        assert_pencils_match(U, symbol, K)

    def test_complex_family(self):
        # non-constant modulus on interleaved supports, one single-cell band
        space, functions = complex_family()
        U = UnitarySurrogate.from_sequence(family(space, functions), 20)
        n = space.cell_count
        rng = np.random.default_rng(33)
        symbol = GridFunction(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        K = GridKernel(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        assert_pencils_match(U, symbol, K)

    def test_space_mismatch(self):
        U = UnitarySurrogate.from_sequence(family(MeasureSpace(3)), "full")
        other = MeasureSpace(2)
        with pytest.raises(SpaceMismatchError):
            pencil_matrices(U, GridFunction(other, np.ones(other.cell_count)), GridKernel(other, np.eye(4)))


class TestUnitarySurrogate:
    def test_forward_of_basis_vector(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        b3 = GridFunction(seq.space, U.b_matrix[3])
        c = U.forward(b3)
        expected = np.zeros(U.size)
        expected[3] = 1.0
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_isometry_on_random_pairs(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        rng = np.random.default_rng(21)
        n = seq.space.cell_count
        for _ in range(10):
            phi = GridFunction(seq.space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            psi = GridFunction(seq.space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
            lhs = np.vdot(U.forward(psi), U.forward(phi))
            rhs = inner_product(phi, psi)
            assert abs(lhs - rhs) <= 1e-10 * phi.norm() * psi.norm()

    def test_zero_maps_to_zero(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        c = U.forward(GridFunction(seq.space, np.zeros(seq.space.cell_count)))
        np.testing.assert_array_equal(c, 0.0)
        back = U.inverse(np.zeros(U.size, dtype=complex))
        np.testing.assert_array_equal(back.values, 0.0)

    def test_round_trip(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        rng = np.random.default_rng(22)
        n = seq.space.cell_count
        phi = GridFunction(seq.space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        back = U.inverse(U.forward(phi))
        defect = GridFunction(seq.space, back.values - phi.values).norm()
        assert defect <= 1e-10 * phi.norm()

    def test_inverse_of_unit_vector(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        e1 = np.zeros(U.size)
        e1[0] = 1.0
        np.testing.assert_allclose(
            U.inverse(e1).values, U.b_matrix[0], atol=1e-14
        )

    @pytest.mark.parametrize("size", ["full", 40])
    def test_forward_inverse_match_dense_rows(self, size):
        seq = three_band_sequence(7)
        U = UnitarySurrogate.from_sequence(seq, size)
        B = U.b_matrix
        rng = np.random.default_rng(23)
        n = seq.space.cell_count
        phi = GridFunction(seq.space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        c = rng.standard_normal(U.size) + 1j * rng.standard_normal(U.size)
        w = seq.space.cell_width
        np.testing.assert_allclose(U.forward(phi), w * (B.conj() @ phi.values), rtol=0, atol=1e-13)
        np.testing.assert_allclose(U.inverse(c).values, B.T @ c, rtol=0, atol=1e-12)

    def test_projected_mode_flagged(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, 8)
        assert U.projected
        assert U.size == 8
        full = UnitarySurrogate.from_sequence(seq, "full")
        assert not full.projected

    def test_length_mismatch_rejected(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, "full")
        with pytest.raises(ValueError):
            U.inverse(np.zeros(U.size - 1))

    def test_basis_size_below_sequence_rejected(self):
        seq = three_band_sequence(6)
        with pytest.raises(ValueError):
            UnitarySurrogate.from_sequence(seq, 2)
