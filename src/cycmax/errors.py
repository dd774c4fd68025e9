"""The one exception type of the package.

Every input the package rejects raises ``CycmaxError``.  It subclasses
``ValueError``, so callers that catch ``ValueError`` keep working.  The
command line reports it, and no other exception, as one ``error:`` line
with exit code 1.
"""


class CycmaxError(ValueError):
    """Bad input: a value, tuple, file or option that the package rejects."""

