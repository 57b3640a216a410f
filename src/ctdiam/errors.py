"""Exception types shared across the package."""


class CtdiamError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CtdiamError):
    """Bad input data (configs, specs, preconditions). CLI exit code 2."""


class NonpositiveOffset(ValidationError):
    """A halfspace offset b <= 0; constraints through the origin are rejected."""


class SimplexNotContained(ValidationError):
    """The body does not contain the unit simplex (some a_ij > b_i)."""


class Unbounded(ValidationError):
    """The halfspace intersection with the nonnegative orthant is unbounded."""


class DimensionMismatch(ValidationError):
    """Operands have different dimensions."""


class EmptySpec(ValidationError):
    """A mesh spec produced no points."""


class WeightLengthMismatch(ValidationError):
    """Tabulated weights do not match the number of mesh points."""


class DegenerateWeight(ValidationError):
    """Every mesh point has zero weight."""


class ThetaNotInterior(ValidationError):
    """Direction theta is not strictly inside the body."""


class TooManyPoints(ValidationError):
    """More points requested than the polynomial space dimension allows."""


class InsufficientSupport(ValidationError):
    """The mesh has fewer positively weighted points than required."""


class BruteForceCapExceeded(ValidationError):
    """The exhaustive subset scan would exceed the configured cap."""


class SolverFailure(CtdiamError):
    """The LP solver failed to produce a verified optimum. CLI exit code 3."""
