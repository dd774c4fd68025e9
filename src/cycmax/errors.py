"""Exception types shared across the package."""


class CycmaxError(Exception):
    """Base class for all package-specific errors."""


class InadmissiblePair(CycmaxError):
    """A sum was requested whose denominator vanishes."""


class IllConditionedFit(CycmaxError):
    """Regression abscissas too clustered to extract an intercept."""
