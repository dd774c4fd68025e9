"""Exception types shared across the package."""


class CycmaxError(Exception):
    """Base class for all package-specific errors."""


class InadmissiblePair(CycmaxError):
    """A sum was requested whose denominator vanishes."""


class DegenerateOrder(CycmaxError):
    """Interval inclusion produced overlapping, non-nested representatives."""


class NonConvergence(CycmaxError):
    """The best solution found missed the stationarity tolerance.

    Carries that solution so callers can inspect it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConsistencyViolation(CycmaxError):
    """Two evaluation routes that must agree at a minimizer disagree."""


class IllConditionedFit(CycmaxError):
    """Regression abscissas too clustered to extract an intercept."""
