"""Exception types shared across the library."""


class ConeShrinkError(Exception):
    """Base class for all library errors."""


class ConstraintViolation(ConeShrinkError):
    """A structural invariant of an isoparametric family failed.

    ``invariant`` names the violated rule (stable identifier used by the CLI).
    """

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


class NotMeanConvex(ConeShrinkError):
    """H(0) <= 0: the anchor hypersurface is not strictly mean convex."""


class OutOfRange(ConeShrinkError):
    """Argument outside the documented domain of an operation."""


class UnsupportedMode(ConeShrinkError):
    """Operation not available for the requested curvature-profile mode."""


class RootNotBracketed(ConeShrinkError):
    """The mean curvature does not change sign on the search interval."""


class BasepointMismatch(ConeShrinkError):
    """Jet composition attempted with an outer jet expanded at the wrong point."""


class OrderMismatch(ConeShrinkError):
    """Jet arithmetic attempted between jets of different truncation orders."""


class InsufficientOrder(ConeShrinkError):
    """Fewer derivatives supplied than the requested order needs."""


class PrecisionExhausted(ConeShrinkError):
    """Estimated rounding error exceeds the trust threshold; raise the working precision."""

    def __init__(self, order: int, rel_error: float, advice: str):
        super().__init__(
            f"coefficient {order}: estimated relative rounding error {rel_error:.3e}; {advice}"
        )
        self.order = order
        self.rel_error = rel_error
        self.advice = advice


class DivisionByEpsilonFailed(ConeShrinkError):
    """A constant term that must vanish did not; inconsistent coefficients or precision loss."""


class NonlinearDependence(ConeShrinkError):
    """A quantity asserted affine in a correction coefficient measurably is not."""


class NoUsefulTruncation(ConeShrinkError):
    """Every partial sum of the divergent series is worse than the configured threshold."""


class StepSizeCollapse(ConeShrinkError):
    """The adaptive integrator could not proceed; ``last_good`` is the last accepted abscissa."""

    def __init__(self, message: str, last_good: float):
        super().__init__(f"{message} (last good abscissa {last_good!r})")
        self.last_good = last_good


class MonotonicityLost(ConeShrinkError):
    """gamma' dropped to zero: the solution left the monotone regime."""

    def __init__(self, s: float):
        super().__init__(f"gamma'(s) <= 0 at s = {s!r}")
        self.s = s


class NotInvertible(ConeShrinkError):
    """gamma' <= 0 at a stored node; the s -> d change of variables fails."""


class BlowUpDetected(ConeShrinkError):
    """phi or phi' exceeded the configured bounds before the continuation target."""

    def __init__(self, d: float, message: str):
        super().__init__(f"{message} at d = {d!r}")
        self.d = d


class IdentityDrift(ConeShrinkError):
    """The continuation first integral drifted beyond tolerance."""


class InsufficientRange(ConeShrinkError):
    """Fewer than the required number of decades available for an asymptotic fit."""


class UnsupportedFamily(ConeShrinkError):
    """No ambient parameterization is available for this (n, g) combination."""


class ResolutionTooLow(ConeShrinkError):
    """Mesh resolution below the minimum angular sample count."""


class ResolutionTooHigh(ConeShrinkError):
    """Mesh resolution above the bound on the export's memory."""


class ExportIOError(ConeShrinkError):
    """File output failed; message carries the target path."""

    def __init__(self, path, cause):
        super().__init__(f"writing {path}: {cause}")
        self.path = path
