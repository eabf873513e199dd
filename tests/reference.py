"""One plain dense run at small depth: the oracle of the package's
structured routes.

The paper reduces the third-kind equation to the pencil (A0, A) by unitary
equivalence transformations alone, so at small depth a run made of generic
dense machinery must reproduce every number the package reports. This
module is that run. It shares with the package only the sampled inputs
(`pipeline.prepare`: H and K on the config's grid, and the damping sequence
of `build_sequence`), the basis values of `SmoothBasis` and the step
`FD_STEP` of the difference check it repeats. Everything else is numpy on
dense arrays:

- the completed basis B, the Gram-Schmidt sweep over every cell indicator
  (`dense_complete_basis`), cut to the config's basis size;
- the forward map w conj(B) phi and the inverse B^T c;
- A0 = w conj(B) diag(H - alpha) B^T and A = w^2 conj(B) K B^T;
- `numpy.linalg.svd` of D = A0 - lambda A, the explicit polar factors
  W = u_r sqrt(sigma_r) vh_r and V = vh^h sqrt(sigma) vh, and the series
  tail read from them;
- `numpy.linalg.cond`;
- the multiplier matrix M by Gauss-Hermite quadrature
  (`gauss_hermite_multiplier`), and the truncated solve from the SVD of the
  dense M D.

`DenseRun(config)` holds the lambda-free part. Its `reduction_reports()`
are what `pipeline.run_reduction` reports, and `verification()` gives the
reports and the check values of `pipeline.run_verification`, each as plain
dicts in the package's field and check order.

`dense_difference` and `one_block` serve the tests that hand the package a
dense A0, and `characteristic_value` the tests of the report's gate on a
singular alpha I + D.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.special import roots_hermite

from thirdkind import SmoothBasis
from thirdkind.kernels import FD_STEP
from thirdkind.pipeline import prepare
from thirdkind.reduction import BlockDiagonal


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


def gauss_hermite_multiplier(n):
    """M_pq = integral of exp(-s^2/2) u_p(s) u_q(s) ds by the n-node
    Gauss-Hermite rule on scaled nodes. With t_i the nodes of weight
    e^(-t^2), s_i = t_i sqrt(2/3) and omega_i = sqrt(2/3) e^(-t_i^2/3) /
    sum_k u_k(t_i)^2 (the Christoffel form of the weights),
    M = sum_i omega_i u(s_i) u(s_i)^T, exact for p + q <= 2n - 1."""
    basis = SmoothBasis(n)
    t, _ = roots_hermite(n)
    omega = math.sqrt(2 / 3) * np.exp(-t * t / 3) / np.sum(basis.value_matrix(0, t) ** 2, axis=0)
    u = basis.value_matrix(0, t * math.sqrt(2 / 3))
    return (u * omega) @ u.T


def characteristic_value(pencil):
    """The lambda of least modulus at which alpha I + A0 - lambda A is
    singular, from dense matrices: 1/mu for the eigenvalue mu of
    (alpha I + A0)^-1 A of largest modulus."""
    shifted = pencil.alpha * np.eye(pencil.size) + pencil.a0.toarray()
    mu = np.linalg.eigvals(np.linalg.solve(shifted, pencil.a))
    return complex(1 / mu[np.argmax(np.abs(mu))])


def dense_difference(a0, a, lam, order="C"):
    """A0 - lambda A as a dense A0 gives it: -lambda A formed in `order`,
    then the dense A0 added over the whole array."""
    d = np.multiply(a, -lam, order=order, dtype=complex)
    d += a0
    return d


def one_block(m):
    """The dense square `m` as the package's `BlockDiagonal` of one block,
    for a `KernelPencil` built from a dense A0."""
    n = m.shape[0]
    return BlockDiagonal(n, np.arange(0), np.zeros(0, dtype=m.dtype), ((np.arange(n), m),))


def _draw(rng, n):
    """A random complex grid function's values, drawn as the pipeline draws
    them: the real parts, then the imaginary parts."""
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _relative(value, scale):
    return value / scale if scale > 0 else value


def _quarter_maxima(norms):
    quarter = max(1, norms.size // 4)
    return float(np.max(norms[:quarter])), float(np.max(norms[-quarter:]))


class DenseRun:
    """The config's run with dense matrices only."""

    def __init__(self, config):
        self.config = config
        seq = prepare(config)
        space = seq.space
        self.cells, self.w = space.cell_count, space.cell_width
        size = self.cells if config.basis_size == "full" else int(config.basis_size)
        self.size = size
        self.sequence = seq
        self.h = seq.coefficient.values
        self.kernel = seq.kernel.entries
        self.alpha = complex(config.alpha)
        self.b = dense_complete_basis(seq.functions, space)[:size]
        w, b = self.w, self.b
        self.a0 = w * (b.conj() * (self.h - self.alpha)) @ b.T
        self.a = w * w * (b.conj() @ self.kernel @ b.T)
        self.points = np.linspace(-config.probe_bound, config.probe_bound, config.probe_points)
        self.basis = SmoothBasis(size)
        self.probe_values = self.basis.value_matrix(0, self.points)
        self.m = gauss_hermite_multiplier(size) if self.alpha == 0 else None
        self._pencils = {}

    def forward(self, x):
        return self.w * (self.b.conj() @ x)

    def norm(self, x):
        """The grid's L2 norm."""
        return float(np.linalg.norm(x) * math.sqrt(self.w))

    def kernel_values(self, d, i, s, j, t):
        """d^{i+j} T / ds^i dt^j on the points s x t, T the kernel of d."""
        return self.basis.value_matrix(i, s).T @ d @ self.basis.value_matrix(j, t)

    def factors(self, d):
        """The explicit polar factors (W, V) of d from numpy's SVD."""
        u, sigma, vh = np.linalg.svd(d)
        rank = int(np.sum(sigma > d.shape[0] * np.finfo(float).eps * sigma[0]))
        root = np.sqrt(sigma)
        return (u[:, :rank] * root[:rank]) @ vh[:rank], (vh.conj().T * root) @ vh

    def pencil(self, lam):
        """What the reports of lambda read of D = A0 - lambda A alone, made
        once per lambda: D, its explicit W and V, and the phi-free fields."""
        if lam in self._pencils:
            return self._pencils[lam]
        n, u_p = self.size, self.probe_values
        d = self.a0 - lam * self.a
        W, V = self.factors(d)
        w_vals, v_vals = W.T @ u_p, V.T @ u_p
        tail = np.abs(w_vals[n // 2 :, :, None] * np.conj(v_vals[n // 2 :, None, :]))
        fields = {
            "condition": float(np.linalg.cond(self.alpha * np.eye(n) + d)),
            "hs_norm": float(np.linalg.norm(d)),
            "carleman_sup": float(np.max(np.linalg.norm(d.T @ u_p, axis=0))),
            "tail_sup": float(np.max(np.sum(tail, axis=0))),
        }
        pencil = SimpleNamespace(d=d, w=W, v=V, fields=fields)
        if self.m is not None:
            pencil.md = self.m @ d
            pencil.svd = np.linalg.svd(pencil.md)
            hs_gamma = float(np.linalg.norm(pencil.md))
            exact = np.exp(-0.5 * self.points**2)[:, None] * (u_p.T @ d @ u_p)
            first, last = _quarter_maxima(np.linalg.norm(pencil.md, axis=1))
            pencil.first_kind = {
                "hs_norm_pencil": hs_gamma,
                "carleman_sup": fields["carleman_sup"],
                "multiplier_norm": math.pi**0.25,
                "bound_slack": max(0.0, hs_gamma - fields["carleman_sup"] * math.pi**0.25),
                "coefficient_form_gap": float(np.max(np.abs(exact - u_p.T @ pencil.md @ u_p))),
                "column_first_quarter_max": first,
                "column_last_quarter_max": last,
            }
        self._pencils[lam] = pencil
        return pencil

    def report(self, phi, lam):
        """The report of lambda for the manufactured solution phi, in the
        package's field order."""
        pencil, alpha = self.pencil(lam), self.alpha
        f = self.forward(phi)
        psi = self.h * phi - lam * (self.w * (self.kernel @ phi))
        g = self.forward(psi)
        report = {
            "passage_residual": _relative(
                np.linalg.norm(alpha * f + pencil.d @ f - g), np.linalg.norm(g)
            ),
            "round_trip_error": _relative(self.norm(self.b.T @ f - phi), self.norm(phi)),
            **pencil.fields,
            "discarded_energy": None,
            "projected": self.size < self.cells,
        }
        if self.m is None:
            return report
        mg = self.m @ g
        p, sigma, qh = pencil.svd
        kept = int(np.sum(sigma >= self.config.cutoff * sigma[0]))
        projections = p.conj().T @ mg
        c = qh[:kept].conj().T @ (projections[:kept] / sigma[:kept])
        discarded = float(np.sum(np.abs(projections[kept:]) ** 2) / np.linalg.norm(mg) ** 2)
        report["discarded_energy"] = discarded
        report["first_kind"] = {
            "residual": _relative(np.linalg.norm(pencil.md @ f - mg), np.linalg.norm(mg)),
            **pencil.first_kind,
            "discarded_energy": discarded,
            "truncated_directions": self.size - kept,
            "recovery_error": _relative(np.linalg.norm(c - f), np.linalg.norm(f)),
        }
        return report

    def reports(self, phi):
        return [self.report(phi, lam) for lam in self.config.lambdas]

    def reduction_reports(self):
        """`run_reduction`'s reports: phi is the seed's first draw."""
        rng = np.random.default_rng(self.config.seed)
        return self.reports(_draw(rng, self.cells))

    def verification(self):
        """(reports, {check name: value}) of `run_verification`, the checks
        in its order."""
        config, seq, w, n = self.config, self.sequence, self.w, self.size
        checks = {}
        functions = np.array([e.values for e in seq.functions])
        gram = w * (functions @ functions.conj().T)
        checks["sequence_gram_defect"] = float(np.max(np.abs(gram - np.eye(len(functions)))))
        bands = np.arange(1, len(functions) + 1)
        epsilons = config.eps0 * config.ratio**bands
        s1 = [self.norm((self.h - self.alpha) * e) for e in functions]
        checks["sequence_coefficient_decay"] = float(np.max(np.array(s1) / epsilons))
        s2 = [self.norm(w * (self.kernel @ e)) + self.norm(w * (self.kernel.conj().T @ e))
              for e in functions]
        checks["sequence_kernel_decay"] = float(np.max(np.array(s2) * bands))

        rng = np.random.default_rng(config.seed)
        iso = trip = 0.0
        for _ in range(20):
            a, b = _draw(rng, self.cells), _draw(rng, self.cells)
            ca, cb = self.forward(a), self.forward(b)
            iso = max(iso, abs(np.vdot(cb, ca) - w * np.sum(a * np.conj(b))))
            trip = max(trip, self.norm(self.b.T @ ca - a))
        checks["unitary_isometry_defect"] = iso
        checks["unitary_round_trip"] = trip
        phi = _draw(rng, self.cells)

        bc = self.b.conj()
        symbol = self.h - self.alpha
        multiplication = w * bc @ (self.b * np.conj(symbol)).T
        integral = w * bc @ (w * (self.kernel.conj().T @ self.b.T))
        checks["adjoint_consistency_multiplication"] = float(
            np.max(np.abs(multiplication - self.a0.conj().T))
        )
        checks["adjoint_consistency_integral"] = float(
            np.max(np.abs(integral - self.a.conj().T))
        )

        reports = self.reports(phi)
        for idx, report in enumerate(reports):
            checks[f"passage_residual_lambda{idx}"] = report["passage_residual"]
            checks[f"round_trip_lambda{idx}"] = report["round_trip_error"]

        lam_probe = 0.37 + 0.21j
        affine = (self.a0 - 0.0 * self.a) - lam_probe * self.a
        checks["pencil_lambda_affinity"] = float(
            np.max(np.abs(self.a0 - lam_probe * self.a - affine))
        )

        pencil = self.pencil(config.lambdas[0])
        d = pencil.d
        checks["kernel_derivative_fd_defect"] = self.fd_defect(d)
        radius = 8.0 + math.sqrt(2.0 * n)
        edges = np.array([-radius, radius])
        t = np.linspace(-config.probe_bound, config.probe_bound, 9)
        checks["kernel_vanishing_at_radius"] = max(
            float(np.max(np.abs(self.kernel_values(d, 0, edges, 0, t)))),
            float(np.max(np.abs(self.kernel_values(d, 0, t, 0, edges)))),
            float(np.max(np.linalg.norm(d.T @ self.basis.value_matrix(0, edges), axis=0))),
        )
        W, V = pencil.w, pencil.v
        checks["factorization_reconstruction"] = float(
            np.linalg.norm(W @ V.conj().T - d) / np.linalg.norm(d)
        )
        series = 0.0
        for s, t in ((0.3, -0.7), (-1.1, 0.4), (0.0, 0.0)):
            u_s, u_t = self.basis.value_matrix(0, s)[:, 0], self.basis.value_matrix(0, t)[:, 0]
            series = max(series, abs(u_s @ d @ u_t - np.sum((W.T @ u_s) * np.conj(V.T @ u_t))))
        checks["series_consistency"] = series

        if self.m is not None:
            fk = reports[0]["first_kind"]
            checks["first_kind_residual"] = fk["residual"]
            checks["hs_bound_slack"] = fk["bound_slack"]
            first, last = _quarter_maxima(np.linalg.norm(self.m, axis=1))
            checks["multiplier_damping_decay_ratio"] = last / first
            if fk["truncated_directions"] == 0:
                checks["first_kind_recovery"] = fk["recovery_error"]
        return reports, checks

    def fd_defect(self, d):
        """The largest gap, over 0 < i + j <= 3 on the 5 x 5 grid of
        [-2.5, 2.5]^2, between the (i, j) derivative of the kernel of d and
        the Richardson extrapolation of central differences of the
        derivative one order lower, at the steps FD_STEP and FD_STEP / 2."""
        pts = np.linspace(-2.5, 2.5, 5)
        worst = 0.0
        for i in range(4):
            for j in range(0 if i else 1, 4 - i):

                def central(h):
                    if i:
                        hi = self.kernel_values(d, i - 1, pts + h, j, pts)
                        lo = self.kernel_values(d, i - 1, pts - h, j, pts)
                    else:
                        hi = self.kernel_values(d, i, pts, j - 1, pts + h)
                        lo = self.kernel_values(d, i, pts, j - 1, pts - h)
                    return (hi - lo) / (2 * h)

                coarse, fine = central(FD_STEP), central(FD_STEP / 2)
                exact = self.kernel_values(d, i, pts, j, pts)
                worst = max(worst, float(np.max(np.abs(fine + (fine - coarse) / 3 - exact))))
        return worst
