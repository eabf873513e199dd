"""Forward model, reduction identities, and the reduced solvers."""

import math
import tracemalloc

import numpy as np
import pytest

import thirdkind.blas
import thirdkind.kernels
import thirdkind.solvers
from thirdkind import (
    AlphaNotZeroError,
    BilinearKernel,
    DegenerateSystemError,
    GridFunction,
    GridKernel,
    IntegralOperator,
    KernelPencil,
    MultiplicationOperator,
    NearSingularError,
    ProbeGrid,
    SmoothBasis,
    UnitarySurrogate,
    build_sequence,
    build_space,
    forward_third_kind,
    make_first_kind,
    matrix_elements,
    multiplier_matrix,
    reduce_problem,
    scale_by_multiplier,
    solve_first_kind,
    solve_second_kind,
    verify_equivalence,
)
from thirdkind.config import make_kernel
from thirdkind.kernels import probe_grid
from thirdkind.pipeline import random_grid_function


def exp_kernel(space, scale=1.0):
    c = space.centers()
    return GridKernel(space, np.exp(scale * np.outer(c, c)))


def product_kernel(space):
    c = space.centers()
    return GridKernel(space, np.outer(c, c))


def build_chain(depth, alpha, kernel_factory=exp_kernel, bands=3, eps0=0.25):
    space = build_space(depth)
    H = GridFunction.sample(space, lambda y: y)
    K = kernel_factory(space)
    seq = build_sequence(H, K, alpha, bands, eps0, 0.5, depth_max=depth + 4)
    U = UnitarySurrogate.from_sequence(seq, "full")
    return seq.coefficient, seq.kernel, seq, U


def default_probes(pencil):
    """The default probe grid (41 points on [-8, 8]) over the pencil's basis."""
    return ProbeGrid(pencil.basis, probe_grid())


class TestForward:
    def test_lambda_zero_is_multiplication(self):
        space = build_space(4)
        H = GridFunction.sample(space, lambda y: y * y)
        K = exp_kernel(space)
        rng = np.random.default_rng(61)
        phi = random_grid_function(rng, space)
        out = forward_third_kind(H, K, 0.0, phi)
        np.testing.assert_allclose(out.values, H.values * phi.values, atol=1e-14)

    def test_pure_integral_part(self):
        # H = 0, K = 1, lambda = 1, phi = 1: psi = -integral of phi = -1
        space = build_space(5)
        H = GridFunction.zero(space)
        K = GridKernel(space, np.ones((32, 32)))
        phi = GridFunction.constant(space, 1.0)
        out = forward_third_kind(H, K, 1.0, phi)
        np.testing.assert_allclose(out.values, -1.0, atol=1e-14)

    def test_zero_input(self):
        space = build_space(4)
        H = GridFunction.sample(space, lambda y: y)
        out = forward_third_kind(H, exp_kernel(space), 0.5, GridFunction.zero(space))
        np.testing.assert_array_equal(out.values, 0.0)

    def test_inputs_on_another_grid_rejected(self):
        space, other = build_space(4), build_space(5)
        H = GridFunction.sample(space, lambda y: y)
        K = exp_kernel(space)
        phi = GridFunction.zero(space)
        for args in (
            (GridFunction.sample(other, lambda y: y), K, phi),
            (H, exp_kernel(other), phi),
            (H, K, GridFunction.zero(other)),
        ):
            with pytest.raises(ValueError, match="different grids"):
                forward_third_kind(args[0], args[1], 0.3, args[2])


class TestReduce:
    def test_passage_identity_lambda_zero(self):
        H, K, seq, U = build_chain(6, alpha=0.5)
        rng = np.random.default_rng(64)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        g = U.forward(forward_third_kind(H, K, 0.0, phi))
        f = U.forward(phi)
        lhs = 0.5 * f + (pencil.a0 - 0.0 * pencil.a) @ f
        assert np.linalg.norm(lhs - g) <= 1e-10 * np.linalg.norm(g)

    def test_full_pipeline_depth_eight(self):
        H, K, seq, U = build_chain(8, alpha=0.0)
        rng = np.random.default_rng(65)
        phi = random_grid_function(rng, seq.space)
        lam = 0.3
        pencil = reduce_problem(seq, U)
        g = U.forward(forward_third_kind(H, K, lam, phi))
        f = U.forward(phi)
        lhs = (pencil.a0 - lam * pencil.a) @ f
        assert np.linalg.norm(lhs - g) <= 1e-9 * np.linalg.norm(g)

    def test_pencil_is_the_sequence_problem(self):
        # alpha, H and K come from the sequence: A0 against the generic
        # operator-application path for H - alpha on the final grid
        H, K, seq, U = build_chain(5, alpha=0.25, bands=2)
        pencil = reduce_problem(seq, U)
        assert pencil.alpha == seq.alpha == 0.25
        shifted = MultiplicationOperator(GridFunction(seq.space, H.values - 0.25))
        np.testing.assert_allclose(
            pencil.a0, matrix_elements(shifted, U.b_functions), rtol=0, atol=1e-13
        )
        np.testing.assert_allclose(
            pencil.a, matrix_elements(IntegralOperator(K), U.b_functions), rtol=0, atol=1e-13
        )

    def test_pencil_is_affine_in_lambda(self):
        _, _, seq, U = build_chain(6, alpha=0.25)
        pencil = reduce_problem(seq, U)
        lam = 1.3 - 0.4j
        direct = pencil.system_matrix(lam)
        affine = pencil.system_matrix(0.0) - lam * pencil.a
        np.testing.assert_array_equal(direct, affine)


def complex_constant_kernel(space):
    return make_kernel({"kind": "constant", "value": [1.0, -0.5]}, space)


def assert_same_bytes(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


class TestPencilDtype:
    def test_real_problem_gives_float64_pencil(self):
        # the benchmark's shape: H = y, exp(x y), real alpha
        _, _, seq, U = build_chain(6, alpha=0.25)
        pencil = reduce_problem(seq, U)
        for m in (pencil.a0, pencil.a):
            assert m.dtype == np.float64
            assert m.flags.c_contiguous

    @pytest.mark.parametrize(
        "alpha, kernel_factory, bands, complex_matrices",
        [
            (0.25 + 0.1j, exp_kernel, 1, ("a0",)),
            (0.25, complex_constant_kernel, 3, ("a",)),
        ],
    )
    def test_complex_data_keeps_complex128(
        self, alpha, kernel_factory, bands, complex_matrices
    ):
        _, _, seq, U = build_chain(6, alpha, kernel_factory, bands=bands)
        pencil = reduce_problem(seq, U)
        for name in ("a0", "a"):
            expected = np.complex128 if name in complex_matrices else np.float64
            assert getattr(pencil, name).dtype == expected, name

    @pytest.mark.parametrize("lam", [0.4 - 0.3j, 0.5])
    def test_lambda_matrices_do_not_depend_on_the_dtype(self, lam):
        _, _, seq, U = build_chain(6, alpha=0.25)
        real = reduce_problem(seq, U)
        wide = KernelPencil(real.alpha, real.a0.astype(complex), real.a.astype(complex))
        assert_same_bytes(real.pencil_kernel(lam).matrix, wide.pencil_kernel(lam).matrix)
        assert_same_bytes(real.system_matrix(lam), wide.system_matrix(lam))
        fact, wide_fact = real.factorize(lam), wide.factorize(lam)
        for name in ("u", "sigma", "vh"):
            assert_same_bytes(getattr(fact, name), getattr(wide_fact, name))
        assert fact.rank == wide_fact.rank


class TestSolveSecondKind:
    def identity_pencil(self, n=4, alpha=1.0):
        return KernelPencil(
            alpha=alpha,
            a0=np.zeros((n, n), dtype=complex),
            a=np.zeros((n, n), dtype=complex),
        )

    def test_identity_system(self):
        pencil = self.identity_pencil()
        g = np.array([1.0, 2.0, -1.0, 0.5], dtype=complex)
        sol = solve_second_kind(pencil, 0.7, g)
        np.testing.assert_allclose(sol.coefficients, g, atol=1e-14)
        assert sol.residual <= 1e-10

    def test_scalar_rank_one(self):
        # (1 - 1/2) c0 = 1 on the first mode
        n = 3
        a = np.zeros((n, n), dtype=complex)
        a[0, 0] = 1.0
        pencil = KernelPencil(1.0, np.zeros((n, n), dtype=complex), a)
        g = np.zeros(n, dtype=complex)
        g[0] = 1.0
        sol = solve_second_kind(pencil, 0.5, g)
        np.testing.assert_allclose(sol.coefficients, 2.0 * g, atol=1e-12)

    def test_near_singular(self):
        n = 3
        a = np.zeros((n, n), dtype=complex)
        a[0, 0] = 1.0
        pencil = KernelPencil(1.0, np.zeros((n, n), dtype=complex), a)
        with pytest.raises(NearSingularError):
            solve_second_kind(pencil, 1.0, np.ones(n, dtype=complex))

    def test_nan_condition_is_near_singular(self, monkeypatch):
        monkeypatch.setattr(
            thirdkind.solvers, "gesdd", lambda a, *, vectors: np.full(4, np.nan)
        )
        with pytest.raises(NearSingularError) as err:
            solve_second_kind(self.identity_pencil(), 0.7, np.ones(4, dtype=complex))
        assert math.isnan(err.value.condition)

    def test_alpha_zero_rejected(self):
        pencil = self.identity_pencil(alpha=0.0)
        with pytest.raises(ValueError):
            solve_second_kind(pencil, 0.1, np.zeros(4, dtype=complex))

    def test_substitution_residual(self):
        rng = np.random.default_rng(67)
        n = 12
        pencil = KernelPencil(
            1.5,
            rng.standard_normal((n, n)) * 0.1 + 0j,
            rng.standard_normal((n, n)) * 0.1 + 0j,
        )
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        sol = solve_second_kind(pencil, 0.8 + 0.1j, g)
        assert sol.residual <= 1e-10
        assert sol.condition < 1e3


class TestFirstKind:
    def pencil_from_chain(self, depth=4):
        H, K, seq, U = build_chain(depth, alpha=0.0, bands=2, eps0=0.5)
        rng = np.random.default_rng(68)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        return pencil, U.forward(forward_third_kind(H, K, 0.3, phi)), U.forward(phi)

    def test_zero_rhs(self):
        pencil, g, _ = self.pencil_from_chain()
        fp = make_first_kind(pencil, np.zeros_like(g))
        np.testing.assert_array_equal(fp.w, 0.0)

    def test_alpha_not_zero_rejected(self):
        n = 4
        pencil = KernelPencil(
            0.5, np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
        )
        with pytest.raises(AlphaNotZeroError):
            make_first_kind(pencil, np.zeros(n, dtype=complex))

    def test_hs_bound_with_gaussian_multiplier(self):
        from thirdkind import hs_norm
        from thirdkind.kernels import carleman_row_norms

        pencil, g, _ = self.pencil_from_chain()
        fp = make_first_kind(pencil, g)
        plain = BilinearKernel(pencil.a)
        gamma = scale_by_multiplier(plain, fp.m_matrix)
        probes = ProbeGrid(plain.basis, probe_grid(8.0, 161))
        sup = float(np.max(carleman_row_norms(plain, probes)))
        assert hs_norm(gamma) <= sup * math.pi**0.25 + 1e-12

    def test_multiplied_identity_preserved(self):
        pencil, g, f = self.pencil_from_chain()
        fp = make_first_kind(pencil, g)
        lhs = fp.gamma_pencil(0.3).multiplied_matrix @ f
        assert np.linalg.norm(lhs - fp.w) <= 1e-9 * np.linalg.norm(fp.w)

    def test_identity_system_any_cutoff(self):
        n = 5
        g = np.arange(1.0, n + 1.0).astype(complex)
        for cutoff in (1e-12, 1e-6, 0.5):
            sol = solve_first_kind(np.eye(n), g, cutoff)
            np.testing.assert_allclose(sol.coefficients, g, atol=1e-12)
            assert sol.discarded_energy == 0.0

    def test_manufacture_then_solve_recovery(self):
        # wide bands keep the grid at depth 4 (16 modes), where the
        # multiplier matrix is far from its truncation floor
        H, K, seq, U = build_chain(4, alpha=0.0, bands=2, eps0=1.0)
        rng = np.random.default_rng(69)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        fp = make_first_kind(pencil, U.forward(forward_third_kind(H, K, 0.3, phi)))
        n = pencil.size
        c0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        system = fp.gamma_pencil(0.3).multiplied_matrix
        # well-conditioned at this size: nothing gets truncated
        assert np.linalg.cond(system) < 1e7
        sol = solve_first_kind(system, system @ c0, 1e-10)
        assert sol.kept == n
        assert np.linalg.norm(sol.coefficients - c0) <= 1e-8 * np.linalg.norm(c0)

    def test_degenerate_system(self):
        n = 4
        pencil = KernelPencil(
            0.0, np.zeros((n, n), dtype=complex), np.zeros((n, n), dtype=complex)
        )
        fp = make_first_kind(pencil, np.ones(n, dtype=complex))
        with pytest.raises(DegenerateSystemError):
            solve_first_kind(fp.gamma_pencil(0.5).multiplied_matrix, fp.w, 1e-10)

    def test_cutoff_range_checked(self):
        pencil, g, _ = self.pencil_from_chain()
        fp = make_first_kind(pencil, g)
        system = fp.gamma_pencil(0.3).multiplied_matrix
        with pytest.raises(ValueError):
            solve_first_kind(system, fp.w, 0.0)
        with pytest.raises(ValueError):
            solve_first_kind(system, fp.w, 1.0)


class TestVerifyEquivalence:
    def test_zero_solution_zero_residuals(self):
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        pencil = reduce_problem(seq, U)
        phi = GridFunction.zero(seq.space)
        report = verify_equivalence(seq, pencil, U, 1.0, phi, default_probes(pencil))
        assert report.passage_residual == 0.0
        assert report.round_trip_error == 0.0

    def test_depth_six_product_kernel(self):
        _, _, seq, U = build_chain(6, alpha=0.25, kernel_factory=product_kernel)
        rng = np.random.default_rng(70)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        report = verify_equivalence(seq, pencil, U, 1.0, phi, default_probes(pencil))
        assert report.passage_residual <= 1e-9
        assert report.round_trip_error <= 1e-9
        assert report.first_kind is None

    def test_alpha_zero_adds_first_kind_section(self):
        _, _, seq, U = build_chain(6, alpha=0.0)
        rng = np.random.default_rng(71)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        m_matrix = multiplier_matrix(pencil.basis)
        report = verify_equivalence(
            seq, pencil, U, 0.4, phi, default_probes(pencil), m_matrix=m_matrix
        )
        fk = report.first_kind
        assert fk is not None
        assert fk.residual <= 1e-9
        assert fk.bound_slack <= 1e-9
        assert fk.hs_norm_pencil <= fk.carleman_sup * fk.multiplier_norm + 1e-9

    def test_report_serializes(self):
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        rng = np.random.default_rng(72)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        report = verify_equivalence(seq, pencil, U, 0.2, phi, default_probes(pencil))
        d = report.to_dict()
        for key in (
            "passage_residual",
            "round_trip_error",
            "condition",
            "hs_norm",
            "carleman_sup",
            "tail_sup",
            "discarded_energy",
        ):
            assert key in d

    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_report_keys_in_written_order(self, alpha):
        """The report JSON keeps its key order; `first_kind` comes last and
        only when alpha = 0."""
        _, _, seq, U = build_chain(5, alpha=alpha, bands=2)
        rng = np.random.default_rng(75)
        phi = random_grid_function(rng, seq.space)
        pencil = reduce_problem(seq, U)
        m_matrix = multiplier_matrix(pencil.basis) if alpha == 0 else None
        d = verify_equivalence(
            seq, pencil, U, 0.2, phi, default_probes(pencil), m_matrix=m_matrix
        ).to_dict()
        keys = [
            "passage_residual",
            "round_trip_error",
            "condition",
            "hs_norm",
            "carleman_sup",
            "tail_sup",
            "discarded_energy",
            "projected",
        ]
        if alpha != 0:
            assert list(d) == keys
            return
        assert list(d) == keys + ["first_kind"]
        assert list(d["first_kind"]) == [
            "residual",
            "hs_norm_pencil",
            "carleman_sup",
            "multiplier_norm",
            "bound_slack",
            "coefficient_form_gap",
            "column_first_quarter_max",
            "column_last_quarter_max",
            "discarded_energy",
            "truncated_directions",
            "recovery_error",
        ]

    def test_randomized_equivalence_battery(self):
        from problem_family import build_problem_instance, random_problem_instance

        rng = np.random.default_rng(73)
        for _ in range(5):
            inst = random_problem_instance(rng, depth=int(rng.integers(6, 8)))
            _, _, seq, U = build_problem_instance(inst)
            phi = random_grid_function(rng, seq.space)
            pencil = reduce_problem(seq, U)
            report = verify_equivalence(
                seq, pencil, U, inst["lambda"], phi, default_probes(pencil)
            )
            assert report.passage_residual <= 1e-9

    def test_alpha_zero_needs_multiplier_matrix(self):
        _, _, seq, U = build_chain(5, alpha=0.0, bands=2)
        pencil = reduce_problem(seq, U)
        phi = GridFunction.zero(seq.space)
        with pytest.raises(ValueError, match="multiplier matrix"):
            verify_equivalence(seq, pencil, U, 0.4, phi, default_probes(pencil))

    def test_pencil_of_another_alpha_rejected(self):
        # H, K and alpha come from the sequence alone: a pencil reduced from
        # a sequence at another alpha does not describe it
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        _, _, other_seq, other_U = build_chain(5, alpha=0.3, bands=2)
        other = reduce_problem(other_seq, other_U)
        assert other.size == U.size
        phi = GridFunction.zero(seq.space)
        with pytest.raises(ValueError, match="alpha"):
            verify_equivalence(seq, other, U, 0.4, phi, default_probes(other))

    def test_pencil_of_another_size_rejected(self):
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        pencil = reduce_problem(seq, U)
        projected = UnitarySurrogate.from_sequence(seq, U.size // 2)
        phi = GridFunction.zero(seq.space)
        with pytest.raises(ValueError, match="size"):
            verify_equivalence(seq, pencil, projected, 0.4, phi, default_probes(pencil))

    @pytest.mark.parametrize("alpha", [0.25, 0.0])
    def test_one_factorization_per_lambda(self, monkeypatch, alpha):
        """D = A0 - lambda A is factorized once; with alpha = 0 its SVD also
        gives the condition (the other SVD is the first-kind solve's),
        otherwise alpha I + D takes one values-only SVD."""
        _, _, seq, U = build_chain(6, alpha=alpha)
        rng = np.random.default_rng(74)
        phi = random_grid_function(rng, seq.space)
        lam = 0.4 + 0.2j
        pencil = reduce_problem(seq, U)
        m_matrix = multiplier_matrix(pencil.basis) if alpha == 0 else None
        probes = default_probes(pencil)
        calls = {"vectors": 0, "values": 0}
        original = thirdkind.blas.gesdd

        def counted(a, *, vectors):
            calls["vectors" if vectors else "values"] += 1
            return original(a, vectors=vectors)

        # every module of the package that binds the entry point
        for module in (thirdkind.kernels, thirdkind.solvers):
            monkeypatch.setattr(module, "gesdd", counted)
        report = verify_equivalence(seq, pencil, U, lam, phi, probes, m_matrix=m_matrix)
        monkeypatch.undo()
        if alpha == 0:
            assert calls == {"vectors": 2, "values": 0}
        else:
            assert calls == {"vectors": 1, "values": 1}
        expected = np.linalg.cond(pencil.system_matrix(lam))
        assert report.condition == pytest.approx(expected, rel=1e-12)

    def test_transient_memory_of_one_lambda(self):
        """The per-lambda transient at N = 256 is the in-place SVD of D alone:
        D, u, vh and the 5 N^2 real workspace make about 88 N^2 B, and any
        other n x n complex array still alive during it adds 16 N^2 B."""
        self.check_transient_memory(alpha=0.25, bound=96)

    def test_transient_memory_of_one_lambda_alpha_zero(self):
        """With alpha = 0 the one in-place SVD is of M D: M D, its Fortran
        copy, u, vh and the workspace make about 104 N^2 B."""
        self.check_transient_memory(alpha=0.0, bound=112)

    @staticmethod
    def check_transient_memory(alpha, bound):
        _, _, seq, U = build_chain(8, alpha=alpha)
        pencil = reduce_problem(seq, U)
        n = pencil.size
        assert n == 256
        phi = random_grid_function(np.random.default_rng(75), seq.space)
        probes = default_probes(pencil)
        m_matrix = multiplier_matrix(pencil.basis) if alpha == 0 else None
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            verify_equivalence(
                seq, pencil, U, 0.4 + 0.2j, phi, probes, m_matrix=m_matrix
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < bound * n * n

    def test_probes_over_another_basis_rejected(self):
        _, _, seq, U = build_chain(5, alpha=0.25, bands=2)
        pencil = reduce_problem(seq, U)
        phi = GridFunction.zero(seq.space)
        other = ProbeGrid(SmoothBasis(pencil.size + 1), probe_grid())
        with pytest.raises(ValueError, match="probe grid"):
            verify_equivalence(seq, pencil, U, 0.4, phi, other)
