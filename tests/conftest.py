import importlib.util
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# A failing property makes hypothesis write its patch through
# ``hypothesis.extra._patching``, whose first import (libcst, then
# typing_inspect) raises a DeprecationWarning from mypy_extensions.  Under
# ``filterwarnings = ["error"]`` that warning turns into an INTERNALERROR
# that ends the whole session, so the module is imported once here.
if importlib.util.find_spec("libcst") is not None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        import hypothesis.extra._patching  # noqa: F401

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")

from cycmax import PeriodicTuple, reduction

REFERENCE = (1.2, 2.3, 3.5, 1.8, 1.6, 2.4, 3.0, 3.2, 1.1, 2.5)
REFERENCE_EXACT = tuple(
    Fraction(s) for s in ("6/5", "23/10", "7/2", "9/5", "8/5", "12/5", "3", "16/5", "11/10", "5/2")
)


@pytest.fixture
def ref_float() -> PeriodicTuple:
    return PeriodicTuple(list(REFERENCE), backend="float")


@pytest.fixture
def ref_rational() -> PeriodicTuple:
    return PeriodicTuple(list(REFERENCE_EXACT), backend="rational")


@pytest.fixture
def moved_roots(monkeypatch):
    """Every root the chain solver finds, moved by 1e-6 relative: ln a by ln(1 + 1e-6).

    The 40-digit Newton step corrects only part of such a move: measured,
    the winner's backward error reads at least 4.3e-14 at p = 1/n over n in
    3..1e300, and 1.1e-14 next to the fold, far above the certificate's
    bound of about 1.1e-19.  A move of 1e-10 reads as little as 1.5e-21.
    """
    roots = reduction._roots

    def moved(*args):
        x, V, slope = roots(*args)
        return x + np.log1p(reduction.LD(1e-6)), V, slope

    monkeypatch.setattr(reduction, "_roots", moved)
