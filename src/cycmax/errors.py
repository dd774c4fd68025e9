"""Exception types shared across the package."""


class CycmaxError(Exception):
    """Base class for all package-specific errors."""


class InadmissiblePair(CycmaxError):
    """A sum was requested whose denominator vanishes."""


class NonConvergence(CycmaxError):
    """The best solution found missed the stationarity tolerance.

    Carries that solution so callers can inspect it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class IllConditionedFit(CycmaxError):
    """Regression abscissas too clustered to extract an intercept."""
