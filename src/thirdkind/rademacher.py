"""Generalized Rademacher functions and the orthonormal damping sequence.

A level-n Rademacher function on a set E takes the values +-(mu E)^(-1/2)
on the 2**n equal-measure leaves of n successive bisections of E, with
alternating sign in tree order, and vanishes off E. Oscillation makes
integral operators kill these functions as n grows, while band extraction
makes multiplication by H - alpha small on them; combining the two yields
an orthonormal sequence {e_n} along which both the multiplication operator
H - alpha and the integral operator K (and their adjoints) decay to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBandError, NotBisectableError, ToleranceUnreachableError
from .measure import (
    MAX_DEPTH,
    GridFunction,
    GridKernel,
    MeasurableSet,
    MeasureSpace,
    band_set,
    lift,
)


def rademacher(E: MeasurableSet, n: int) -> GridFunction:
    """Construct the level-n Rademacher function on E.

    The leaves of the n-fold deterministic bisection (sorted-half rule) are
    the 2**n consecutive blocks of E's index list; block b carries sign
    (-1)**b. Requires the cell count of E to be divisible by 2**n.
    """
    if n < 1:
        raise ValueError("level must be >= 1")
    count = E.cell_count
    pieces = 1 << n
    if count == 0 or count % pieces:
        raise NotBisectableError(
            f"{count} cells cannot be split into {pieces} equal pieces"
        )
    block = count // pieces
    amplitude = 1.0 / math.sqrt(E.measure)
    signs = np.where(np.arange(pieces) % 2 == 0, amplitude, -amplitude)
    values = np.zeros(E.space.cell_count)
    values[E.cell_indices] = np.repeat(signs, block)
    return GridFunction(E.space, values)


@dataclass(frozen=True)
class IndexSelection:
    """Result of the Rademacher level search for one band.

    `kernel` and `band` are returned because the search may have refined the
    working grid; they live on the (possibly finer) final space, as does the
    accepted function R_k with its image norms ||K R_k|| and ||K* R_k||.
    """

    k: int
    achieved: float
    kernel: GridKernel
    band: MeasurableSet
    function: GridFunction
    norm_kernel: float
    norm_kernel_adjoint: float


def select_index(
    K: GridKernel, E: MeasurableSet, n: int, depth_max: int = MAX_DEPTH
) -> IndexSelection:
    """Smallest Rademacher level k with ||K R_k|| + ||K* R_k|| <= 1/n.

    Levels are tried in increasing order. When the divisibility of E's cell
    count runs out, the grid is refined (kernel and band re-sampled by
    subdivision) up to `depth_max` and the search continues. Raises
    ToleranceUnreachableError with the best achieved value if the refinement
    budget is exhausted, and with inf at once if the square of an image norm
    overflows (a norm above about 1.3e154, or an image that is not finite):
    refinement repeats K's entries, so it cannot bring such an image down to
    1/n.
    """
    if E.is_empty:
        raise ValueError("band set must have positive measure")
    target = 1.0 / n
    best = math.inf
    k = 1
    while True:
        while E.cell_count % (1 << k):
            if E.space.depth >= depth_max:
                raise ToleranceUnreachableError(best)
            K = K.refined()
            E = E.refined()
        r = rademacher(E, k)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                forward, backward = K.apply(r).norm(), K.apply_adjoint(r).norm()
        except ValueError:  # GridFunction rejects an image that is not finite
            forward = backward = math.inf
        if not math.isfinite(forward * forward + backward * backward):
            msg = f"the kernel image overflows at depth {E.space.depth} (level {k})"
            raise ToleranceUnreachableError(math.inf, msg)
        achieved = forward + backward
        if achieved <= target:
            return IndexSelection(k, achieved, K, E, r, forward, backward)
        best = min(best, achieved)
        k += 1


@dataclass(frozen=True, eq=False)
class KorotkovSequence:
    """Orthonormal sequence e_n = R_{k_n, E_n} with its decay diagnostics.

    The bands E_n are pairwise disjoint, so the e_n are orthonormal. For the
    pair of operators S1 = (H - alpha)I and S2 = K the construction
    guarantees ||S1 e_n|| <= eps_n and ||S2 e_n|| + ||S2* e_n|| <= 1/n.
    `coefficient` and `kernel` are the working copies of H and K on the
    final grid (refinement may have deepened it).
    """

    space: MeasureSpace
    alpha: complex
    epsilons: np.ndarray
    bands: list[MeasurableSet]
    levels: list[int]
    functions: list[GridFunction]
    norm_coefficient: np.ndarray
    norm_kernel: np.ndarray
    norm_kernel_adjoint: np.ndarray
    coefficient: GridFunction
    kernel: GridKernel

    def __len__(self) -> int:
        return len(self.functions)

    def gram_matrix(self) -> np.ndarray:
        """g_ij = <e_i, e_j>, as w F F^h over the stacked values F."""
        f = np.array([e.values for e in self.functions])
        return self.space.cell_width * (f @ f.conj().T)

    def to_report(self) -> dict:
        """Per-band summary in serializable form."""
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "depth": self.space.depth,
            "bands": [
                {
                    "n": i + 1,
                    "epsilon": float(self.epsilons[i]),
                    "band_cells": [int(c) for c in self.bands[i].cell_indices],
                    "k": self.levels[i],
                    "norm_S1": float(self.norm_coefficient[i]),
                    "norm_S2_sum": float(
                        self.norm_kernel[i] + self.norm_kernel_adjoint[i]
                    ),
                }
                for i in range(len(self))
            ],
        }


def epsilon_schedule(eps0: float, ratio: float, count: int) -> np.ndarray:
    """eps_n = eps0 * ratio**n for n = 1, ..., count + 1: the bounds of the
    bands E_1, ..., E_count of `build_sequence`."""
    return eps0 * np.power(ratio, np.arange(1, count + 2))


def build_sequence(
    H: GridFunction,
    K: GridKernel,
    alpha: complex,
    count: int,
    eps0: float,
    ratio: float,
    depth_max: int = MAX_DEPTH,
) -> KorotkovSequence:
    """Build the damping sequence for S1 = H - alpha and S2 = K.

    Bands are E_n = {eps_{n+1} < |H - alpha| <= eps_n} with the geometric
    schedule eps_n = eps0 * ratio**n. Each band must contain at least one
    cell (otherwise alpha fails the essential-range test at this resolution
    and EmptyBandError is raised). The level search may refine the grid;
    previously built bands and functions are lifted so everything in the
    returned sequence lives on one final space.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must lie in (0, 1)")
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    if count < 1:
        raise ValueError("need at least one band")
    if depth_max < H.space.depth:
        raise ValueError("depth_max below the starting depth")

    epsilons = epsilon_schedule(eps0, ratio, count)
    bands: list[MeasurableSet] = []
    levels: list[int] = []
    functions: list[GridFunction] = []
    norm_s1, norm_s2, norm_s2a = [], [], []

    for n in range(1, count + 1):
        band = band_set(H, alpha, epsilons[n], epsilons[n - 1])
        if band.is_empty:
            raise EmptyBandError(n)
        sel = select_index(K, band, n, depth_max)
        K, band, e = sel.kernel, sel.band, sel.function
        if K.space.depth > H.space.depth:
            H = lift(H, K.space)
            bands = [lift(b, K.space) for b in bands]
            functions = [lift(f, K.space) for f in functions]
        bands.append(band)
        levels.append(sel.k)
        functions.append(e)
        norm_s1.append(GridFunction(H.space, (H.values - alpha) * e.values).norm())
        norm_s2.append(sel.norm_kernel)
        norm_s2a.append(sel.norm_kernel_adjoint)

    return KorotkovSequence(
        space=H.space,
        alpha=complex(alpha),
        epsilons=epsilons[:-1],
        bands=bands,
        levels=levels,
        functions=functions,
        norm_coefficient=np.array(norm_s1),
        norm_kernel=np.array(norm_s2),
        norm_kernel_adjoint=np.array(norm_s2a),
        coefficient=H,
        kernel=K,
    )
