"""Exception types shared across the package."""


class ThirdKindError(Exception):
    """Base class for all library errors."""


class SpaceMismatchError(ThirdKindError):
    """Operands live on grids of different resolution."""


class NotBisectableError(ThirdKindError):
    """A set's cell count does not admit the requested equal-measure split."""


class EmptyBandError(ThirdKindError):
    """A band of |H - alpha| contains no grid cell at the working resolution.

    Either alpha is off the essential range of the coefficient, or the grid
    is too coarse for the requested epsilon band. `band` is the 1-based band
    index that came up empty.
    """

    def __init__(self, band: int):
        self.band = band
        super().__init__(f"band {band} is empty at this resolution")


class ToleranceUnreachableError(ThirdKindError):
    """The Rademacher index search hit the refinement limit.

    `achieved` is the best norm sum reached before giving up.
    """

    def __init__(self, achieved: float, message: str | None = None):
        self.achieved = achieved
        super().__init__(
            message
            or f"best achieved norm sum {achieved:.6g} still above tolerance at depth_max"
        )


class NearSingularError(ThirdKindError):
    """Second-kind system matrix is numerically singular (lambda near a
    characteristic value). `condition` is the estimated condition number;
    a run's report gate also gives `lam` and its `index` in the config's
    lambdas."""

    def __init__(self, condition: float, lam: complex | None = None, index: int | None = None):
        self.condition = condition
        self.lam = lam
        self.index = index
        at = "" if index is None else f" at lambda {index} = {lam}"
        super().__init__(f"system condition estimate {condition:.3e} exceeds limit{at}")


class RightHandSideOverflowError(ThirdKindError):
    """The manufactured right-hand side psi = H phi - lambda K phi overflows
    double precision: the problem is well posed, but its data cannot be
    represented."""

    def __init__(self, lam: complex):
        super().__init__(f"psi = H phi - lambda K phi overflows at lambda = {lam}")


class DegenerateSystemError(ThirdKindError):
    """Every singular value of the first-kind system fell below the cutoff."""


class ConfigError(ThirdKindError):
    """Run configuration failed validation."""
