"""Randomized problem family for batch verification in the tests."""

import numpy as np

from thirdkind import MeasureSpace, UnitarySurrogate, build_sequence
from thirdkind.config import make_coefficient, make_kernel


def random_problem_instance(rng: np.random.Generator, depth: int) -> dict:
    """Draw one problem from the built-in families.

    The coefficient is affine with a root inside (0, 1) when alpha is taken
    on its range, so the band construction always has material to work with.
    """
    offset = float(rng.uniform(-0.2, 0.2))
    anchor = float(rng.uniform(0.15, 0.85))
    alpha = anchor + offset  # on the essential range of y + offset
    kernel_kind = rng.choice(["exp_xy", "product_xy", "constant", "rank_one"])
    if kernel_kind == "exp_xy":
        kernel_spec = {"kind": "exp_xy", "scale": float(rng.uniform(-1.0, 1.0))}
    elif kernel_kind == "constant":
        kernel_spec = {"kind": "constant", "value": float(rng.uniform(-2.0, 2.0))}
    elif kernel_kind == "rank_one":
        kernel_spec = {
            "kind": "rank_one",
            "left": {"kind": "exp", "scale": float(rng.uniform(-1.0, 1.0))},
            "right": {"kind": "linear", "scale": 1.0, "offset": float(rng.uniform(0.0, 1.0))},
        }
    else:
        kernel_spec = {"kind": "product_xy"}
    lam_angle = rng.uniform(0, 2 * np.pi)
    lam = 2.0 * rng.uniform(0, 1) * complex(np.cos(lam_angle), np.sin(lam_angle))
    return {
        "depth": depth,
        "alpha": alpha,
        "lambda": lam,
        "coefficient": {"kind": "linear", "scale": 1.0, "offset": offset},
        "kernel": kernel_spec,
    }


def build_problem_instance(instance: dict, count: int = 3, eps0: float = 0.25):
    """Materialize a drawn instance: returns (H, K, sequence, surrogate)."""
    space = MeasureSpace(instance["depth"])
    H = make_coefficient(instance["coefficient"], space)
    K = make_kernel(instance["kernel"], space)
    seq = build_sequence(
        H,
        K,
        instance["alpha"],
        count,
        eps0,
        0.5,
        depth_max=min(instance["depth"] + 6, 24),
    )
    surrogate = UnitarySurrogate.from_sequence(seq, "full")
    return seq.coefficient, seq.kernel, seq, surrogate
