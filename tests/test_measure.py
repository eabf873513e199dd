"""Grid model: spaces, sets, functions, kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thirdkind import (
    GridFunction,
    GridKernel,
    IntegralOperator,
    MeasurableSet,
    MeasureSpace,
    MultiplicationOperator,
    NotBisectableError,
    SpaceMismatchError,
    band_set,
    inner_product,
    lift,
    rademacher,
)


class TestBuildSpace:
    def test_depth_one_cells(self):
        space = MeasureSpace(1)
        assert space.cell_count == 2
        assert space.cell_width == 0.5
        np.testing.assert_allclose(space.centers(), [0.25, 0.75])

    def test_depth_three_measures(self):
        space = MeasureSpace(3)
        assert space.cell_count == 8
        assert space.cell_width == 0.125
        assert space.cell_count * space.cell_width == 1.0

    @pytest.mark.parametrize("depth", [0, -1, 25])
    def test_depth_out_of_range(self, depth):
        with pytest.raises(ValueError):
            MeasureSpace(depth)


class TestInnerProduct:
    def test_unit_constant(self):
        space = MeasureSpace(3)
        one = GridFunction(space, np.ones(space.cell_count))
        assert inner_product(one, one) == 1.0

    def test_disjoint_supports(self):
        space = MeasureSpace(3)
        left = GridFunction(space, np.repeat([1.0, 0.0], 4))
        right = GridFunction(space, np.repeat([0.0, 1.0], 4))
        assert inner_product(left, right) == 0.0

    def test_half_indicator_with_itself(self):
        # direct sum over 4 of 8 cells: 4 * 1 * 2**-3
        space = MeasureSpace(3)
        half = GridFunction(space, np.repeat([1.0, 0.0], 4))
        expected = sum(1.0 * 1.0 * 2.0**-3 for _ in range(4))
        assert inner_product(half, half) == expected == 0.5

    def test_space_mismatch(self):
        f = GridFunction(MeasureSpace(2), np.ones(4))
        g = GridFunction(MeasureSpace(3), np.ones(8))
        with pytest.raises(SpaceMismatchError):
            inner_product(f, g)

    def test_conjugate_symmetry(self):
        space = MeasureSpace(4)
        rng = np.random.default_rng(3)
        f = GridFunction(space, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        g = GridFunction(space, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))

    def test_norm_positive_definite(self):
        space = MeasureSpace(3)
        f = GridFunction(space, np.zeros(space.cell_count))
        assert f.norm() == 0.0
        g = GridFunction(space, np.eye(8)[5] * 1e-8)
        assert g.norm() > 0.0


class TestBandSet:
    def test_linear_coefficient_band(self):
        # centers 1/16, 3/16, ..., 15/16; |y| in (0.25, 0.5] picks 5/16, 7/16
        space = MeasureSpace(3)
        H = GridFunction.sample(space, lambda y: y)
        E = band_set(H, 0.0, 0.25, 0.5)
        assert E.cell_indices.tolist() == [2, 3]

    def test_constant_equals_alpha(self):
        space = MeasureSpace(3)
        H = GridFunction(space, np.full(space.cell_count, 2.0 + 1.0j))
        E = band_set(H, 2.0 + 1.0j, 0.1, 1.0)
        assert E.is_empty

    def test_outer_band(self):
        space = MeasureSpace(3)
        H = GridFunction.sample(space, lambda y: y)
        E = band_set(H, 0.0, 0.5, 1.0)
        assert E.cell_indices.tolist() == [4, 5, 6, 7]

    def test_bad_bounds(self):
        space = MeasureSpace(3)
        H = GridFunction.sample(space, lambda y: y)
        with pytest.raises(ValueError):
            band_set(H, 0.0, 0.5, 0.25)

    def test_consecutive_bands_disjoint(self):
        space = MeasureSpace(6)
        H = GridFunction.sample(space, lambda y: y)
        eps = [0.5 * 2.0**-n for n in range(5)]
        bands = [band_set(H, 0.0, eps[i + 1], eps[i]) for i in range(4)]
        seen = set()
        for b in bands:
            cells = set(b.cell_indices.tolist())
            assert not cells & seen
            seen |= cells


def halves(E):
    """The two leaves of rademacher(E, 1): the cells of sign + and of sign -."""
    values = rademacher(E, 1).values
    return (
        MeasurableSet(E.space, np.flatnonzero(values > 0)),
        MeasurableSet(E.space, np.flatnonzero(values < 0)),
    )


class TestBisect:
    """The level-1 Rademacher function bisects its set by the sorted-half rule."""

    def test_full_interval_depth_one(self):
        space = MeasureSpace(1)
        E = MeasurableSet(space, [0, 1])
        left, right = halves(E)
        assert left.cell_indices.tolist() == [0]
        assert right.cell_indices.tolist() == [1]

    def test_sorted_half_rule(self):
        space = MeasureSpace(3)
        E = MeasurableSet(space, [2, 3, 4, 5])
        left, right = halves(E)
        assert left.cell_indices.tolist() == [2, 3]
        assert right.cell_indices.tolist() == [4, 5]

    def test_singleton_not_bisectable(self):
        space = MeasureSpace(3)
        with pytest.raises(NotBisectableError):
            rademacher(MeasurableSet(space, [7]), 1)

    @settings(max_examples=50, deadline=None)
    @given(
        depth=st.integers(2, 8),
        data=st.data(),
    )
    def test_measure_additivity_exact(self, depth, data):
        space = MeasureSpace(depth)
        size = data.draw(
            st.integers(1, space.cell_count // 2).map(lambda k: 2 * k)
        )
        cells = data.draw(
            st.lists(
                st.integers(0, space.cell_count - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        E = MeasurableSet(space, cells)
        left, right = halves(E)
        # dyadic arithmetic: equality is exact, not approximate
        assert left.measure + right.measure == E.measure
        assert left.measure == right.measure
        assert not set(left.cell_indices) & set(right.cell_indices)
        assert sorted(set(left.cell_indices) | set(right.cell_indices)) == sorted(
            E.cell_indices.tolist()
        )


class TestGridKernel:
    def test_apply_is_weighted_matvec(self):
        space = MeasureSpace(2)
        K = GridKernel(space, np.eye(4))
        f = GridFunction(space, np.array([1.0, 2.0, 3.0, 4.0]))
        out = K.apply(f)
        np.testing.assert_allclose(out.values, f.values * space.cell_width)

    def test_adjoint_is_conjugate_transpose(self):
        space = MeasureSpace(3)
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        K = GridKernel(space, entries)
        f = GridFunction(space, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        via_method = K.apply_adjoint(f)
        via_matrix = K.adjoint().apply(f)
        np.testing.assert_allclose(via_method.values, via_matrix.values, atol=1e-14)

    def test_adjoint_inner_product_identity(self):
        # <Kf, g> == <f, K* g> is what makes the adjoint an adjoint
        space = MeasureSpace(4)
        rng = np.random.default_rng(6)
        n = space.cell_count
        K = GridKernel(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        f = GridFunction(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = GridFunction(space, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        lhs = inner_product(K.apply(f), g)
        rhs = inner_product(f, K.apply_adjoint(g))
        assert lhs == pytest.approx(rhs, abs=1e-13)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(-np.inf, 1.0)]
    )
    def test_rejects_non_finite_entries(self, bad):
        space = MeasureSpace(2)
        entries = np.ones((4, 4), dtype=type(bad) if isinstance(bad, complex) else float)
        entries[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            GridKernel(space, entries)


class TestOperators:
    def test_multiplication_adjoint(self):
        space = MeasureSpace(3)
        h = GridFunction(space, np.arange(8) * (0.5 + 0.25j))
        op = MultiplicationOperator(h)
        f = GridFunction(space, np.ones(space.cell_count))
        np.testing.assert_allclose(
            op.adjoint().apply(f).values, np.conj(h.values)
        )

    def test_integral_double_adjoint(self):
        space = MeasureSpace(2)
        K = GridKernel(space, np.arange(16.0).reshape(4, 4))
        op = IntegralOperator(K)
        f = GridFunction(space, np.array([1.0, -1.0, 2.0, 0.5]))
        np.testing.assert_allclose(
            op.adjoint().adjoint().apply(f).values, op.apply(f).values
        )


    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_apply_rows_is_apply_on_each_row(self, kind):
        space = MeasureSpace(4)
        rng = np.random.default_rng(41)
        entries = rng.standard_normal((16, 16))
        if kind == "complex":
            entries = entries + 1j * rng.standard_normal((16, 16))
        rows = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        symbol = GridFunction(space, rng.standard_normal(16) + 1j * rng.standard_normal(16))
        integral = IntegralOperator(GridKernel(space, entries))
        mult = MultiplicationOperator(symbol)
        for op in (integral, integral.adjoint(), mult, mult.adjoint()):
            one_by_one = [op.apply(GridFunction(space, r)).values for r in rows]
            np.testing.assert_allclose(op.apply_rows(rows), one_by_one, rtol=0, atol=1e-13)


class TestLifting:
    def test_lift_preserves_norms(self):
        space = MeasureSpace(3)
        rng = np.random.default_rng(8)
        f = GridFunction(space, rng.standard_normal(8) + 1j * rng.standard_normal(8))
        fine = lift(f, MeasureSpace(6))
        assert fine.norm() == pytest.approx(f.norm(), rel=1e-15)

    def test_lift_set_and_kernel_commute_with_apply(self):
        space = MeasureSpace(3)
        rng = np.random.default_rng(9)
        K = GridKernel(space, rng.standard_normal((8, 8)))
        f = GridFunction(space, rng.standard_normal(8))
        coarse = K.apply(f)
        fine_space = MeasureSpace(5)
        fine = K.refined().refined().apply(lift(f, fine_space))
        np.testing.assert_allclose(
            fine.values, lift(coarse, fine_space).values, atol=1e-14
        )

    def test_lift_set_children(self):
        space = MeasureSpace(2)
        E = MeasurableSet(space, [1, 3])
        fine = lift(E, MeasureSpace(3))
        assert fine.cell_indices.tolist() == [2, 3, 6, 7]
        assert fine.measure == E.measure

    def test_cannot_lift_coarser(self):
        f = GridFunction(MeasureSpace(4), np.ones(16))
        with pytest.raises(SpaceMismatchError):
            lift(f, MeasureSpace(3))
        with pytest.raises(SpaceMismatchError):
            lift(MeasurableSet(MeasureSpace(4), [0]), MeasureSpace(3))
