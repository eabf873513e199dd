"""Basis completion, coefficient matrices, and the unitary surrogate."""

import math

import numpy as np
import pytest

from thirdkind import (
    GridFunction,
    GridKernel,
    IntegralOperator,
    MeasurableSet,
    MultiplicationOperator,
    SpaceMismatchError,
    UnitarySurrogate,
    build_sequence,
    build_space,
    complete_basis,
    inner_product,
    matrix_elements,
    rademacher,
)


def gram(functions):
    k = len(functions)
    g = np.empty((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            g[i, j] = inner_product(functions[i], functions[j])
    return g


def exp_kernel(space):
    c = space.centers()
    return GridKernel(space, np.exp(np.outer(c, c)))


def three_band_sequence(depth):
    space = build_space(depth)
    H = GridFunction.sample(space, lambda y: y)
    seq = build_sequence(H, exp_kernel(space), 0.25, 3, 0.25, 0.5, depth_max=depth + 4)
    return seq


class TestCompleteBasis:
    def test_empty_family_depth_one(self):
        space = build_space(1)
        basis = complete_basis([], space)
        s2 = math.sqrt(2.0)
        np.testing.assert_allclose(basis[0].values, [s2, 0.0])
        np.testing.assert_allclose(basis[1].values, [0.0, s2])

    def test_rademacher_then_constant(self):
        # orthogonalizing the first indicator against R_1 leaves the
        # constant function, up to sign
        space = build_space(1)
        E = MeasurableSet(space, [0, 1])
        r1 = rademacher(E, 1).values
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

    def test_rejects_non_orthonormal_start(self):
        space = build_space(2)
        one = GridFunction.constant(space, 1.0)
        with pytest.raises(ValueError):
            complete_basis([one, one], space)


class TestMatrixElements:
    def test_constant_coefficient_gives_zero_matrices(self):
        # H identically alpha makes the shifted symbol vanish; with a zero
        # kernel the reduced equation collapses to alpha f = g
        space = build_space(4)
        alpha = 0.75
        H = GridFunction.constant(space, alpha)
        K = GridKernel(space, np.zeros((16, 16)))
        U = UnitarySurrogate.from_sequence(None, space, "full")
        shifted = GridFunction(space, H.values - alpha)
        a0 = matrix_elements(MultiplicationOperator(shifted), U.b_functions)
        a = matrix_elements(IntegralOperator(K), U.b_functions)
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
        space = build_space(2)
        basis = complete_basis([], space)
        ident = MultiplicationOperator(GridFunction.constant(space, 1.0))
        a = matrix_elements(ident, basis)
        np.testing.assert_allclose(a, np.eye(4), atol=1e-14)

    def test_multiplication_by_linear_on_indicators(self):
        # cell centers 0.25 and 0.75 appear on the diagonal
        space = build_space(1)
        basis = complete_basis([], space)
        op = MultiplicationOperator(GridFunction.sample(space, lambda y: y))
        a = matrix_elements(op, basis)
        np.testing.assert_allclose(a, np.diag([0.25, 0.75]), atol=1e-14)

    def test_constant_kernel_on_indicators(self):
        # (K f)(x) = integral of f, so every entry is 0.5 at depth 1
        space = build_space(1)
        basis = complete_basis([], space)
        op = IntegralOperator(GridKernel(space, np.ones((2, 2))))
        a = matrix_elements(op, basis)
        np.testing.assert_allclose(a, np.full((2, 2), 0.5), atol=1e-14)

    def test_adjoint_is_conjugate_transpose(self):
        space = build_space(4)
        rng = np.random.default_rng(12)
        n = space.cell_count
        basis = complete_basis([], space)
        K = GridKernel(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        op = IntegralOperator(K)
        a = matrix_elements(op, basis)
        a_star = matrix_elements(op.adjoint(), basis)
        assert np.max(np.abs(a_star - a.conj().T)) <= 1e-10

    def test_hermitian_for_real_shifted_multiplication(self):
        seq = three_band_sequence(6)
        basis = complete_basis(seq.functions, seq.space)
        shifted = GridFunction(seq.space, seq.coefficient.values - 0.25)
        a = matrix_elements(MultiplicationOperator(shifted), basis)
        assert np.max(np.abs(a - a.conj().T)) <= 1e-12

    def test_space_mismatch(self):
        basis = complete_basis([], build_space(2))
        op = MultiplicationOperator(GridFunction.constant(build_space(3), 1.0))
        with pytest.raises(SpaceMismatchError):
            matrix_elements(op, basis)


class TestUnitarySurrogate:
    def test_forward_of_basis_vector(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, seq.space, "full")
        b3 = U.b_functions[3]
        c = U.forward(b3)
        expected = np.zeros(U.size)
        expected[3] = 1.0
        np.testing.assert_allclose(c, expected, atol=1e-12)

    def test_isometry_on_random_pairs(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, seq.space, "full")
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
        U = UnitarySurrogate.from_sequence(seq, seq.space, "full")
        c = U.forward(GridFunction.zero(seq.space))
        np.testing.assert_array_equal(c, 0.0)
        back = U.inverse(np.zeros(U.size, dtype=complex))
        np.testing.assert_array_equal(back.values, 0.0)

    def test_round_trip(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, seq.space, "full")
        rng = np.random.default_rng(22)
        n = seq.space.cell_count
        phi = GridFunction(seq.space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        back = U.inverse(U.forward(phi))
        defect = GridFunction(seq.space, back.values - phi.values).norm()
        assert defect <= 1e-10 * phi.norm()

    def test_inverse_of_unit_vector(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, seq.space, "full")
        e1 = np.zeros(U.size)
        e1[0] = 1.0
        np.testing.assert_allclose(
            U.inverse(e1).values, U.b_functions[0].values, atol=1e-14
        )

    def test_projected_mode_flagged(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, seq.space, 8)
        assert U.projected
        assert U.size == 8
        full = UnitarySurrogate.from_sequence(seq, seq.space, "full")
        assert not full.projected

    def test_length_mismatch_rejected(self):
        seq = three_band_sequence(6)
        U = UnitarySurrogate.from_sequence(seq, seq.space, "full")
        with pytest.raises(ValueError):
            U.inverse(np.zeros(U.size - 1))

    def test_basis_size_below_sequence_rejected(self):
        seq = three_band_sequence(6)
        with pytest.raises(ValueError):
            UnitarySurrogate.from_sequence(seq, seq.space, 2)
