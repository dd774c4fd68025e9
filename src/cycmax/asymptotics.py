"""Growth of the cyclic minimum with n and extraction of its additive constant.

The minimum of the maximal-average cyclic sum over n-tuples equals the
simplex minimum of the chain sum at price 1/n.  As n grows it behaves
like e*log(n) - A with a remainder of order 1/log(n); this module
sweeps n, solving every n of a sweep in one batched root solve, records
the deficit e*log(n) - value, and extrapolates the constant A by
regressing the deficit on 1/log(n).

Reference value for the constant: A = 1.70465603718...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import CycmaxError
from .reduction import _minimize_many, cyclic_price

A_REFERENCE = 1.70465603718

CSV_HEADER = "n,s_star,deficit,support,residual"


@dataclass
class SweepRecord:
    """One n-point of the sweep: minimum value, deficit, and diagnostics."""

    n: int
    s_star: float
    deficit: float
    support: int
    residual: float

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.s_star:.17g},{self.deficit:.17g},"
            f"{self.support},{self.residual:.17g}"
        )


def sweep(n_values: Sequence[int]) -> list[SweepRecord]:
    """Solve a list of n values, in any order, at price 1/n each.

    All n are solved together: the right branch of each of the four
    support sizes around ln n of every n is a column of a single batched
    root solve (the left branch never wins), and each n keeps its own
    lowest value, the same result as ``minimize_chain(n, 1/n)``.  No n
    depends on another, so the records follow the order of ``n_values``.
    """
    values = list(n_values)
    if not values:
        raise CycmaxError("n_values must be nonempty")

    solutions = _minimize_many([(n, cyclic_price(n)) for n in values])
    return [
        SweepRecord(n, sol.value, math.e * math.log(n) - sol.value, sol.support, sol.stationarity_residual)
        for n, sol in zip(values, solutions)
    ]


# The most points a grid takes: a warm sweep of 1e4 points over 1e3..1e300
# peaks at 49 MB (tracemalloc), 16 MB of it held before the sweep, the
# 7.2 MB size store that such a sweep fills included, and about 3.3 KB per
# point (README), so this is about 0.33 GB.
MAX_GRID_POINTS = 100_000


def geometric_grid(lo: float, hi: float, points: int) -> list[int]:
    """Distinct integers, geometrically spaced between lo and hi inclusive."""
    if not 1 <= points <= MAX_GRID_POINTS:
        raise CycmaxError(f"points must lie in 1..{MAX_GRID_POINTS}")
    if not 1 <= lo <= hi < math.inf:
        raise CycmaxError("invalid range")
    raw = np.geomspace(lo, hi, points)
    out: list[int] = []
    for v in raw:
        n = int(round(v))
        if not out or n > out[-1]:
            out.append(n)
    return out


# Smallest n whose record enters the fit of the constant.
FIT_MIN_N = 100

# Least spread of the regressor 1/log(n) that the fit accepts.
FIT_MIN_SPREAD = 1e-3


def estimate_constant_a(records: Iterable[SweepRecord]) -> float:
    """Intercept a of the least-squares fit deficit = a - c / log(n).

    Uses records with n >= FIT_MIN_N (at least four are required).
    Raises ``CycmaxError`` when the regressor 1/log(n) is too clustered
    for the intercept to be trustworthy.
    """
    pts = [r for r in records if r.n >= FIT_MIN_N]
    if len(pts) < 4:
        raise CycmaxError("need at least four records with n >= %d" % FIT_MIN_N)
    regressor = np.array([1.0 / math.log(r.n) for r in pts])
    deficits = np.array([r.deficit for r in pts])
    spread = float(regressor.max() - regressor.min())
    if spread < FIT_MIN_SPREAD:
        raise CycmaxError(
            f"regressor spread {spread:.3e} below {FIT_MIN_SPREAD:.3e}"
        )
    design = np.column_stack([np.ones_like(regressor), -regressor])
    return float(np.linalg.lstsq(design, deficits, rcond=None)[0][0])


def records_to_csv(records: Iterable[SweepRecord], a_hat: Optional[float] = None) -> str:
    buf = StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(r.csv_row() + "\n")
    if a_hat is not None:
        buf.write(f"# a_hat,{a_hat:.17g}\n")
    return buf.getvalue()

