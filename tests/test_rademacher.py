"""Rademacher functions, index selection, and the damping sequence."""

import math

import numpy as np
import pytest

from thirdkind import (
    EmptyBandError,
    GridFunction,
    GridKernel,
    MeasurableSet,
    MeasureSpace,
    NotBisectableError,
    ToleranceUnreachableError,
    build_sequence,
    inner_product,
    rademacher,
    select_index,
)


def full_interval(space):
    return MeasurableSet(space, np.arange(space.cell_count))


def oracle_rademacher_values(space, cells, n):
    """Independent construction: alternating-sign blocks over the index list."""
    cells = np.asarray(cells)
    pieces = 1 << n
    block = cells.size // pieces
    amplitude = 1.0 / math.sqrt(cells.size * space.cell_width)
    out = np.zeros(space.cell_count)
    signs = np.array([1.0 if b % 2 == 0 else -1.0 for b in range(pieces)])
    out[cells] = np.repeat(signs * amplitude, block)
    return out


class TestRademacher:
    def test_level_two_sign_pattern(self):
        # +1, -1, +1, -1 on the four quarters of [0, 1)
        space = MeasureSpace(2)
        r = rademacher(full_interval(space), 2)
        np.testing.assert_array_equal(r.values, [1.0, -1.0, 1.0, -1.0])

    def test_half_support_normalization(self):
        # mu E = 1/2 so the amplitude is sqrt(2), zero off E
        space = MeasureSpace(2)
        E = MeasurableSet(space, [0, 1])
        r = rademacher(E, 1)
        s2 = math.sqrt(2.0)
        np.testing.assert_allclose(r.values, [s2, -s2, 0.0, 0.0])

    def test_levels_orthogonal(self):
        space = MeasureSpace(5)
        E = full_interval(space)
        r1 = rademacher(E, 1)
        r2 = rademacher(E, 2)
        assert inner_product(r1, r2) == 0.0

    def test_unit_norm_and_zero_mean(self):
        space = MeasureSpace(6)
        E = MeasurableSet(space, np.arange(8, 40))
        for n in (1, 2, 3):
            r = rademacher(E, n)
            assert r.norm() == pytest.approx(1.0, abs=1e-14)
            one = GridFunction(space, np.ones(space.cell_count))
            assert abs(inner_product(r, one)) <= 1e-15

    def test_divisibility_required(self):
        space = MeasureSpace(3)
        E = MeasurableSet(space, [0, 1, 2])
        with pytest.raises(NotBisectableError):
            rademacher(E, 1)
        with pytest.raises(NotBisectableError):
            rademacher(MeasurableSet(space, [0, 1]), 2)

    def test_matches_oracle(self):
        space = MeasureSpace(5)
        cells = np.arange(4, 20)
        r = rademacher(MeasurableSet(space, cells), 3)
        np.testing.assert_array_equal(
            r.values, oracle_rademacher_values(space, cells, 3)
        )


class TestSelectIndex:
    def test_constant_kernel_level_one(self):
        # Rademacher functions have zero mean, so a constant kernel kills them
        space = MeasureSpace(4)
        K = GridKernel(space, np.ones((16, 16)))
        sel = select_index(K, full_interval(space), n=3)
        assert sel.k == 1
        assert sel.achieved == 0.0

    def test_rank_one_constant_factors(self):
        space = MeasureSpace(4)
        ones = np.ones(16)
        K = GridKernel(space, np.outer(ones, ones))
        sel = select_index(K, full_interval(space), n=5)
        assert sel.k == 1
        assert sel.achieved == 0.0

    def test_exp_kernel_depth_12(self):
        # frozen from a first run; the oracle below recomputes independently
        space = MeasureSpace(12)
        c = space.centers()
        K = GridKernel(space, np.exp(np.outer(c, c)))
        sel = select_index(K, full_interval(space), n=4)
        assert sel.achieved <= 0.25
        assert sel.k == 2

        w = space.cell_width
        r = oracle_rademacher_values(space, np.arange(space.cell_count), sel.k)
        forward = np.linalg.norm(K.entries @ r * w) * math.sqrt(w)
        backward = np.linalg.norm(K.entries.T @ r * w) * math.sqrt(w)
        assert sel.achieved == pytest.approx(forward + backward, rel=1e-12)

    def test_empty_band_rejected(self):
        space = MeasureSpace(3)
        K = GridKernel(space, np.ones((8, 8)))
        with pytest.raises(ValueError):
            select_index(K, MeasurableSet(space, []), n=1)

    def test_refinement_extends_divisibility(self):
        # three cells admit no level-1 split until the grid doubles
        space = MeasureSpace(3)
        K = GridKernel(space, np.ones((8, 8)))
        E = MeasurableSet(space, [1, 2, 5])
        sel = select_index(K, E, n=2)
        assert sel.k == 1
        assert sel.band.space.depth == 4
        assert sel.band.cell_count == 6
        assert sel.achieved == 0.0

    def test_tolerance_unreachable_reports_best(self):
        # a spike kernel acts as the identity on the grid, so the norms stay
        # near 2; with no refinement budget the search must give up
        space = MeasureSpace(2)
        K = GridKernel(space, np.eye(4) / space.cell_width)
        with pytest.raises(ToleranceUnreachableError) as err:
            select_index(K, full_interval(space), n=100, depth_max=2)
        assert err.value.achieved == pytest.approx(2.0, rel=1e-12)

    def test_selection_carries_the_accepted_function_and_norms(self):
        space = MeasureSpace(8)
        c = space.centers()
        K = GridKernel(space, np.exp(np.outer(c, c)))
        sel = select_index(K, MeasurableSet(space, np.arange(8, 40)), n=3)
        np.testing.assert_array_equal(sel.function.values, rademacher(sel.band, sel.k).values)
        assert sel.norm_kernel == sel.kernel.apply(sel.function).norm()
        assert sel.norm_kernel_adjoint == sel.kernel.apply_adjoint(sel.function).norm()
        assert sel.achieved == sel.norm_kernel + sel.norm_kernel_adjoint

    @pytest.mark.parametrize("kernel", ["spike", "aligned"])
    def test_overflowing_image_stops_without_refining(self, monkeypatch, kernel):
        # levels 1-3 fit the 8-cell band at depth 6, so a search that went on
        # would refine for level 4; an overflowed norm stops it at level 1.
        # spike: the image 1e300 R_k w is finite but its norm overflows;
        # aligned: the rows match R_1's signs, so the image itself is inf
        space = MeasureSpace(6)
        E = MeasurableSet(space, np.arange(8))
        if kernel == "spike":
            entries = 1e300 * np.eye(64)
        else:
            entries = np.zeros((64, 64))
            entries[:, :4], entries[:, 4:8] = 1e308, -1e308

        def no_refinement(self):
            raise AssertionError("the level search refined the grid")

        monkeypatch.setattr(GridKernel, "refined", no_refinement)
        with pytest.raises(ToleranceUnreachableError) as err:
            select_index(GridKernel(space, entries), E, n=1, depth_max=12)
        assert err.value.achieved == math.inf
        assert str(err.value) == "the kernel image overflows at depth 6 (level 1)"


class TestBuildSequence:
    def test_linear_coefficient_band_norms(self):
        # continuum value (7/12) 4^-n; the grid value agrees to 2**-depth
        depth = 10
        space = MeasureSpace(depth)
        H = GridFunction.sample(space, lambda y: y)
        K = GridKernel(space, np.ones((space.cell_count,) * 2))
        seq = build_sequence(H, K, 0.0, count=4, eps0=1.0, ratio=0.5, depth_max=14)
        for n in range(1, 5):
            expected = (7.0 / 12.0) * 4.0**-n
            assert seq.norm_coefficient[n - 1] ** 2 == pytest.approx(
                expected, abs=2.0**-depth
            )
            assert seq.norm_coefficient[n - 1] <= seq.epsilons[n - 1]

    def test_constant_coefficient_empty_band(self):
        space = MeasureSpace(4)
        H = GridFunction(space, np.full(space.cell_count, 5.0))
        K = GridKernel(space, np.ones((16, 16)))
        with pytest.raises(EmptyBandError) as err:
            build_sequence(H, K, 3.0, count=2, eps0=0.5, ratio=0.5)
        assert err.value.band == 1

    def test_constant_kernel_all_levels_one(self):
        space = MeasureSpace(8)
        H = GridFunction.sample(space, lambda y: y)
        K = GridKernel(space, np.ones((space.cell_count,) * 2))
        seq = build_sequence(H, K, 0.0, count=3, eps0=1.0, ratio=0.5, depth_max=12)
        assert seq.levels == [1, 1, 1]
        np.testing.assert_array_equal(seq.norm_kernel, 0.0)
        np.testing.assert_array_equal(seq.norm_kernel_adjoint, 0.0)

    def test_orthonormality(self):
        space = MeasureSpace(8)
        H = GridFunction.sample(space, lambda y: y)
        c = space.centers()
        K = GridKernel(space, np.exp(np.outer(c, c)))
        seq = build_sequence(H, K, 0.25, count=3, eps0=0.25, ratio=0.5, depth_max=12)
        gram = seq.gram_matrix()
        assert np.max(np.abs(gram - np.eye(len(seq)))) <= 1e-12
        pairwise = [[inner_product(f, h) for h in seq.functions] for f in seq.functions]
        np.testing.assert_allclose(gram, pairwise, rtol=0, atol=1e-15)

    def test_kernel_decay_bound(self):
        space = MeasureSpace(8)
        H = GridFunction.sample(space, lambda y: y)
        c = space.centers()
        K = GridKernel(space, np.exp(np.outer(c, c)))
        seq = build_sequence(H, K, 0.0, count=4, eps0=0.5, ratio=0.5, depth_max=12)
        sums = seq.norm_kernel + seq.norm_kernel_adjoint
        for n in range(1, 5):
            assert sums[n - 1] <= 1.0 / n

    def test_multiplication_self_adjoint_norms(self):
        # |H - alpha| is what enters; the adjoint multiplies by the conjugate
        space = MeasureSpace(7)
        H = GridFunction.sample(space, lambda y: y)
        K = GridKernel(space, np.ones((space.cell_count,) * 2))
        seq = build_sequence(H, K, 0.5, count=2, eps0=0.25, ratio=0.5)
        for n, e in enumerate(seq.functions):
            shifted = GridFunction(
                seq.space, (seq.coefficient.values - seq.alpha) * e.values
            )
            adj = GridFunction(
                seq.space,
                np.conj(seq.coefficient.values - seq.alpha) * e.values,
            )
            assert shifted.norm() == adj.norm()

    def test_refinement_lifts_everything(self):
        # eps schedule forcing a 1-cell band at depth 4: the level search
        # must refine, and earlier bands must follow to the final grid
        space = MeasureSpace(4)
        H = GridFunction.sample(space, lambda y: y)
        c = space.centers()
        K = GridKernel(space, np.exp(np.outer(c, c)))
        seq = build_sequence(H, K, 0.0, count=3, eps0=1.0, ratio=0.5, depth_max=10)
        assert seq.space.depth >= 4
        depths = {b.space.depth for b in seq.bands}
        depths |= {f.space.depth for f in seq.functions}
        assert depths == {seq.space.depth}
        gram = seq.gram_matrix()
        assert np.max(np.abs(gram - np.eye(len(seq)))) <= 1e-12

    def test_parameter_validation(self):
        space = MeasureSpace(4)
        H = GridFunction.sample(space, lambda y: y)
        K = GridKernel(space, np.ones((16, 16)))
        with pytest.raises(ValueError):
            build_sequence(H, K, 0.0, count=2, eps0=0.5, ratio=1.5)
        with pytest.raises(ValueError):
            build_sequence(H, K, 0.0, count=0, eps0=0.5, ratio=0.5)
        with pytest.raises(ValueError):
            build_sequence(H, K, 0.0, count=2, eps0=-1.0, ratio=0.5)

    def test_report_shape(self):
        space = MeasureSpace(6)
        H = GridFunction.sample(space, lambda y: y)
        K = GridKernel(space, np.ones((64, 64)))
        seq = build_sequence(H, K, 0.0, count=2, eps0=0.5, ratio=0.5)
        report = seq.to_report()
        assert len(report["bands"]) == 2
        band = report["bands"][0]
        assert set(band) == {"n", "epsilon", "band_cells", "k", "norm_S1", "norm_S2_sum"}
