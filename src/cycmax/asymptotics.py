"""Growth of the cyclic minimum with n and extraction of its additive constant.

The minimum of the maximal-average cyclic sum over n-tuples equals the
simplex minimum of the chain sum at price 1/n.  As n grows it behaves
like e*log(n) - A with a remainder of order 1/log(n); this module
sweeps n, records the deficit e*log(n) - value, and extrapolates the
constant A by regressing the deficit on 1/log(n).

Reference value for the constant: A = 1.70465603718...
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import IllConditionedFit, NonConvergence
from .periodic import PeriodicTuple
from .reduction import STATIONARITY_TOL, minimize_chain

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
    converged: bool = True

    def csv_row(self) -> str:
        return (
            f"{self.n},{self.s_star:.17g},{self.deficit:.17g},"
            f"{self.support},{self.residual:.17g}"
        )


def inf_s(n: int) -> float:
    """Minimum of the maximal-average cyclic sum over n-tuples."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return minimize_chain(n, 1.0 / n).value


def sweep(n_values: Sequence[int], tol: float = STATIONARITY_TOL) -> list[SweepRecord]:
    """Solve a sorted list of n values at price 1/n each.

    A non-convergent solve (stationarity residual above ``tol``) is
    recorded with its best solution and flagged rather than aborting the
    sweep.
    """
    values = list(n_values)
    if not values:
        raise ValueError("n_values must be nonempty")
    if any(n < 1 for n in values):
        raise ValueError("n values must be positive")
    if values != sorted(values):
        raise ValueError("n values must be sorted ascending")

    records = []
    for n in values:
        try:
            sol = minimize_chain(n, 1.0 / n, tol)
        except NonConvergence as exc:
            sol = exc.best
        records.append(
            SweepRecord(
                n=n,
                s_star=sol.value,
                deficit=math.e * math.log(n) - sol.value,
                support=sol.support,
                residual=sol.stationarity_residual,
                converged=sol.converged,
            )
        )
    return records


def geometric_grid(lo: float, hi: float, points: int) -> list[int]:
    """Distinct integers, geometrically spaced between lo and hi inclusive."""
    if points < 1 or lo < 1 or hi < lo:
        raise ValueError("invalid range")
    raw = np.geomspace(lo, hi, points)
    out: list[int] = []
    for v in raw:
        n = int(round(v))
        if not out or n > out[-1]:
            out.append(n)
    return out


@dataclass
class FitDiagnostics:
    slope: float
    residual_norm: float
    n_points: int
    regressor_spread: float


def estimate_constant_a(
    records: Iterable[SweepRecord],
    min_n: int = 100,
    spread_threshold: float = 1e-3,
) -> tuple[float, FitDiagnostics]:
    """Intercept of the least-squares fit deficit = a - c / log(n).

    Uses records with n >= min_n (at least four are required).  Raises
    IllConditionedFit when the regressor 1/log(n) is too clustered for
    the intercept to be trustworthy.
    """
    pts = [r for r in records if r.n >= min_n]
    if len(pts) < 4:
        raise ValueError("need at least four records with n >= %d" % min_n)
    regressor = np.array([1.0 / math.log(r.n) for r in pts])
    deficits = np.array([r.deficit for r in pts])
    spread = float(regressor.max() - regressor.min())
    if spread < spread_threshold:
        raise IllConditionedFit(
            f"regressor spread {spread:.3e} below {spread_threshold:.3e}"
        )
    design = np.column_stack([np.ones_like(regressor), -regressor])
    coef, res, _, _ = np.linalg.lstsq(design, deficits, rcond=None)
    a_hat, slope = float(coef[0]), float(coef[1])
    residual_norm = float(np.linalg.norm(design @ coef - deficits))
    return a_hat, FitDiagnostics(
        slope=slope,
        residual_norm=residual_norm,
        n_points=len(pts),
        regressor_spread=spread,
    )


def records_to_csv(records: Iterable[SweepRecord], a_hat: Optional[float] = None) -> str:
    buf = StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in records:
        buf.write(r.csv_row() + "\n")
    if a_hat is not None:
        buf.write(f"# a_hat,{a_hat:.17g}\n")
    return buf.getvalue()


def geometric_witness(n: int) -> PeriodicTuple:
    """The n-tuple 1, 1/e, 1/e^2, ... truncated at ceil(log n), then zeros.

    Normalized to sum 1.  Its maximal-average sum stays within an O(1)
    band above e*log(n), giving a cheap upper-bound companion to the
    optimizer along the sweep.
    """
    if n < 2:
        raise ValueError("witness needs n >= 2")
    k = min(n, math.ceil(math.log(n)))
    head = [math.exp(-j) for j in range(k)]
    total = sum(head)
    values = [v / total for v in head] + [0.0] * (n - k)
    return PeriodicTuple(values, backend="float")
