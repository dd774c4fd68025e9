"""The non-cyclic companion problems and their simplex minimization.

For a nonnegative vector x = (x_{1-N}, ..., x_0) summing to 1 and a
price p > 0, two objectives are evaluated:

* the windowed form T(x, p)  = sum_{i<=-1} x_i / m_i + x_0 / p, where
  m_i is the largest average over forward windows of length at most |i|;
* the chain form   Tc(x, p)  = sum_{i<=-1} x_i / x_{i+1} + x_0 / p,
  with the convention that a zero prefix contributes nothing.

The chain form dominates the windowed form pointwise, and both share
the same simplex minimum, attained on a trailing support whose entries
are nonincreasing except possibly the leftmost one and whose last entry
is at least p.  The minimum over the simplex at p = 1/n equals the
infimum of the cyclic maximal-average sum over n-tuples, which is what
makes this module the computational workhorse of the package.

Minimization runs per support size k.  Fixing the last entry s of the
support, the first-order conditions become a backward recurrence that
determines the whole support from s, so each k reduces to one scalar
equation on s in (p, 1).  Its roots are bracketed on a log grid and
refined by bisection in extended precision; the projected stationarity
residual, also in extended precision, certifies each solve.  Support
sizes are enumerated upward until the value stops improving.
Independent nested grid searches over the simplex serve as cross-check
oracles at small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyViolation, InadmissiblePair, NonConvergence

LD = np.longdouble


# ---------------------------------------------------------------------------
# Objective evaluation


def t_chain(x: Sequence, p) -> float:
    """Chain sum: consecutive-ratio terms plus the boundary payment x_0/p.

    Zero entries may only appear as a prefix of zeros; a positive entry
    followed by a zero makes the pair inadmissible.  Works on floats,
    Fractions, or numpy scalars alike.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    n = len(x)
    total = 0 * x[-1]
    for i in range(n - 1):
        if x[i] == 0:
            continue
        if x[i + 1] == 0:
            raise InadmissiblePair(f"positive entry at {i} followed by zero")
        total += x[i] / x[i + 1]
    return total + x[-1] / p


def t_noncyclic(x: Sequence, p) -> float:
    """Windowed sum: denominators are maximal forward averages.

    The window at slot i extends at most to the final entry (length
    capped by the distance to the right end), so the vector is treated
    as a finite segment, not a periodic one.  Each window sum runs
    forward from its own start: a difference of prefix sums would lose
    a tiny window next to a large one to cancellation.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    n = len(x)
    total = 0 * x[-1]
    for i in range(n - 1):
        if x[i] == 0:
            continue
        best = None
        window = 0 * x[-1]
        for r in range(1, n - i):
            window += x[i + r]
            avg = window / r
            if best is None or avg > best:
                best = avg
        if best == 0:
            raise InadmissiblePair(f"positive entry at {i} with zero forward window")
        total += x[i] / best
    return total + x[-1] / p


def chain_gradient(x: np.ndarray, p: float) -> np.ndarray:
    """Gradient of the chain sum at a strictly positive vector."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("gradient requires a strictly positive vector")
    n = len(x)
    g = np.zeros(n)
    g[:-1] += 1.0 / x[1:]
    g[-1] += 1.0 / p
    g[1:] -= x[:-1] / x[1:] ** 2
    return g


def chain_gradient_fd(x: np.ndarray, p: float, rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-component relative steps.

    Steps scale with each coordinate, which keeps the difference quotient
    meaningful when entries span many orders of magnitude.  Differences
    run in extended precision: near a constrained minimizer the objective
    moves by ~|g| * h against a background value many orders larger, and
    double precision would lose most of the quotient to cancellation.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise ValueError("finite differences require a strictly positive vector")
    x = x.astype(LD)
    pld = LD(p)
    g = np.zeros(len(x), dtype=LD)
    for j in range(len(x)):
        h = LD(rel_step) * x[j]
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (_value_ld(xp, pld) - _value_ld(xm, pld)) / (xp[j] - xm[j])
    return g.astype(float)


def gradient_agreement(x: np.ndarray, p: float, rel_step: float = 1e-6) -> float:
    """Normalized mismatch between analytic and differenced gradients."""
    g = chain_gradient(x, p)
    g_fd = chain_gradient_fd(x, p, rel_step)
    return float(np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1.0))


def support_entries(x: np.ndarray) -> np.ndarray:
    """Trailing positive block of a vector whose zeros form a prefix."""
    x = np.asarray(x, dtype=float)
    nz = np.nonzero(x)[0]
    if len(nz) == 0:
        raise ValueError("vector is identically zero")
    lead = nz[0]
    if np.any(x[lead:] <= 0):
        raise ValueError("zeros occur inside the support")
    return x[lead:]


def projected_residual(x: np.ndarray, p: float) -> float:
    """Norm of the support gradient projected tangent to the sum constraint.

    Evaluated in extended precision: near the optimum the gradient
    components agree to many digits, and the cancellation would otherwise
    swamp the result for small p.
    """
    return _residual_ld(support_entries(x).astype(LD), LD(p))


# ---------------------------------------------------------------------------
# Extended-precision internals (support coordinates, all entries positive)


def _value_ld(x: np.ndarray, p) -> np.longdouble:
    """Chain sum of one support (1-D) or of each column (2-D)."""
    return (x[:-1] / x[1:]).sum(axis=0) + x[-1] / p


def _grad_ld(x: np.ndarray, p) -> np.ndarray:
    g = np.zeros(len(x), dtype=LD)
    g[:-1] += 1 / x[1:]
    g[-1] += 1 / p
    g[1:] -= x[:-1] / x[1:] ** 2
    return g


def _residual_ld(x: np.ndarray, p) -> float:
    if len(x) == 1:
        return 0.0
    g = _grad_ld(x, p)
    g = g - g.mean()
    return float(np.sqrt((g * g).sum()))


# ---------------------------------------------------------------------------
# Shooting solve of the first-order system, one support size at a time
#
# On a support x_0, ..., x_{k-1} with last entry s, stationarity under the
# sum constraint asks that every partial derivative equal one multiplier
# lam.  The ratio terms are homogeneous of degree 0 and the boundary term
# x_{k-1}/p of degree 1, so Euler's identity gives lam * sum(x) = s/p,
# hence lam = s/p.  Writing q_j = x_{j-1}/x_j, the conditions at
# j = k-1, ..., 1 turn into the backward recurrence
#
#     q_{k-1} = s(1-s)/p,   x_{j-1} = q_j x_j,   q_{j-1} = q_j - lam x_{j-1},
#
# and the condition at j = 0 into q_0 = 0.  Conversely, any s with
# q_0(s) = 0 and q_j(s) > 0 for j >= 1 gives a positive stationary point,
# whose entries sum to 1 by the same identity.  Each support size is thus
# a scalar root problem on s in (p, 1), solved by sign changes on a log
# grid and bisection in extended precision.

# Points of the log grid over [p, 1] on which q_0 is sampled for sign
# changes.  One support size can carry close pairs of stationary points:
# 120 points missed the k = 14 root at n = 372759, 400 split every pair on
# the reference cases.
BRACKET_POINTS = 400

# Default bound on the projected stationarity residual of a converged solve.
STATIONARITY_TOL = 1e-10

# Relative change below which a value does not count as an improvement
# when deciding whether a non-convergent solve is the best one.
_VALUE_RTOL = 1e-12


def _shoot(s: np.ndarray, k: int, p) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the recurrence for a vector of trial last entries s.

    Returns the entries (shape (k, len(s)), unnormalized), q_0 for each
    trial, and whether the recurrence reached q_0 with every q_j > 0 for
    j >= 1.  A trial whose q_j turns nonpositive earlier stops there and
    reports that q_j in place of q_0: both vanish together (x_0 is
    proportional to q_j), so the reported function stays continuous.
    Stopped trials are zeroed, and running ones stay bounded because
    q_{j-1} = q_j (1 - lam x_j) > 0 forces x_j < 1/lam <= 1, so nothing
    can overflow.
    """
    lam = s / p
    q = s * (1 - s) / p
    x = np.empty((k, len(s)), dtype=LD)
    x[-1] = s
    reached = np.ones(len(s), dtype=bool)
    early = np.zeros(len(s), dtype=LD)
    for j in range(k - 1, 0, -1):
        x[j - 1] = q * x[j]
        q = q - lam * x[j - 1]
        if j > 1:
            stop = reached & (q <= 0)
            if stop.any():
                early[stop] = q[stop]
                reached &= ~stop
                q[stop] = 0
                x[j - 1, stop] = 0
    return x, np.where(reached, q, early), reached


def _bisect(lo: np.ndarray, hi: np.ndarray, k: int, p) -> tuple[np.ndarray, np.ndarray]:
    """Shrink sign-change brackets of q_0 until their ends are adjacent."""
    lo_positive = _shoot(lo, k, p)[1] > 0
    while True:
        mid = (lo + hi) / 2
        if np.all((mid <= lo) | (mid >= hi)):
            return lo, hi
        same = (_shoot(mid, k, p)[1] > 0) == lo_positive
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)


def _solve_support(k: int, p: float) -> Optional[tuple[np.ndarray, np.longdouble]]:
    """Lowest-value positive stationary point with support size k >= 2.

    Returns the longdouble entries (sum 1) and their value, or None when
    no admissible root exists.  Brackets whose negative end stops before
    q_0 close on a point where a leading entry vanishes, which belongs to
    a smaller support, and are discarded.
    """
    pld = LD(p)
    t = np.linspace(0, 1, BRACKET_POINTS, dtype=LD)
    grid = pld ** (1 - t)
    positive = _shoot(grid, k, pld)[1] > 0
    cross = np.nonzero(positive[:-1] != positive[1:])[0]
    if len(cross) == 0:
        return None
    lo, hi = _bisect(grid[cross], grid[cross + 1], k, pld)
    lo_positive = positive[cross]
    s_pos = np.where(lo_positive, lo, hi)
    s_neg = np.where(lo_positive, hi, lo)
    genuine = _shoot(s_neg, k, pld)[2]
    if not genuine.any():
        return None
    x = _shoot(s_pos[genuine], k, pld)[0]
    x = x / x.sum(axis=0)
    values = _value_ld(x, pld)
    best = int(np.argmin(values))
    return x[:, best], values[best]


@dataclass
class ReducedSolution:
    """Outcome of a simplex minimization of the chain sum.

    Only the trailing support is stored; every entry before it is zero.
    """

    N: int
    p: float
    value: float
    entries: np.ndarray
    stationarity_residual: float
    oracle_gap: Optional[float] = None
    consistency_gap: Optional[float] = None
    converged: bool = True

    @property
    def support(self) -> int:
        return len(self.entries)

    @property
    def minimizer(self) -> np.ndarray:
        """The dense length-N minimizer, built on request."""
        x = np.zeros(self.N)
        x[self.N - self.support :] = self.entries
        return x

    def to_dict(self) -> dict:
        return {
            "n": self.N,
            "p": self.p,
            "value": self.value,
            "support": self.support,
            "entries": [float(v) for v in self.entries],
            "residual": self.stationarity_residual,
            "oracle_gap": self.oracle_gap,
        }


def minimize_chain(N: int, p: float, tol: float = STATIONARITY_TOL) -> ReducedSolution:
    """Minimize the chain sum over the N-simplex at price p.

    Support sizes are enumerated upward from 1, up to min(N, ceil(1/p)),
    the bound past which enlarging the simplex cannot help.  Enumeration
    stops at the first size whose best stationary point has no root or
    does not strictly lower the value.  The certificate of each solve is
    its projected stationarity residual in extended precision; raises
    NonConvergence (carrying the best solution) only if the best value
    belongs to a solve whose residual exceeds ``tol``.
    """
    if N < 1:
        raise ValueError("N must be a positive integer")
    if not (p > 0) or not math.isfinite(p):
        raise ValueError("p must be positive and finite")
    kmax = min(N, max(1, math.ceil(1.0 / p)))

    def solution(x: np.ndarray, value) -> ReducedSolution:
        entries = np.asarray(x, dtype=float)
        entries /= entries.sum()
        residual = _residual_ld(x, LD(p))
        return ReducedSolution(
            N=N,
            p=p,
            value=float(value),
            entries=entries,
            stationarity_residual=residual,
            converged=residual <= tol,
        )

    best = best_conv = solution(np.ones(1, dtype=LD), 1.0 / p)
    for k in range(2, kmax + 1):
        found = _solve_support(k, p)
        if found is None or not found[1] < best.value:
            break
        best = solution(*found)
        if best.converged:
            best_conv = best

    slack = abs(best.value) * _VALUE_RTOL + 1e-15
    if best_conv.value <= best.value + slack:
        return best_conv
    raise NonConvergence(
        f"no support size reached stationarity {tol:g} "
        f"at the best value {best.value:.12g}",
        best=best,
    )


def minimize_noncyclic(N: int, p: float) -> ReducedSolution:
    """Minimize the windowed sum; solved through the chain form.

    At the chain minimizer the forward-window denominators collapse to
    the immediate successors, so the two objectives must agree there;
    the observed discrepancy is recorded and a violation raised when it
    exceeds 1e-9 relative.  The zero prefix contributes nothing to the
    windowed sum, so it is evaluated on the support alone.
    """
    sol = minimize_chain(N, p)
    windowed = t_noncyclic(sol.entries, p)
    gap = abs(windowed - sol.value) / max(abs(sol.value), 1.0)
    if gap > 1e-9:
        raise ConsistencyViolation(
            f"windowed value {windowed!r} and chain value {sol.value!r} "
            f"disagree (relative gap {gap:.3e})"
        )
    return replace(sol, value=float(windowed), consistency_gap=float(gap))


# ---------------------------------------------------------------------------
# Grid-search oracles


def _chain_values(X: np.ndarray, p: float) -> np.ndarray:
    """Vectorized chain sum over rows of X; inadmissible rows get +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = X[:, :-1] / X[:, 1:]
    terms = np.where(X[:, :-1] == 0, 0.0, ratios)
    return terms.sum(axis=1) + X[:, -1] / p


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for first in range(total + 1):
        rest = _compositions(total - first, parts - 1)
        block = np.empty((len(rest), parts), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


def _refine_box(center: np.ndarray, width: float, per_dim: int, evaluate) -> tuple[np.ndarray, float, float]:
    """One local grid pass over the simplex around ``center``.

    The first N-1 coordinates range over a clipped box; the last is the
    slack.  Returns the new incumbent, its value, and the cell width.
    """
    n = len(center)
    axes = []
    cell = 0.0
    for j in range(n - 1):
        lo = max(center[j] - width, 0.0)
        hi = min(center[j] + width, 1.0)
        axes.append(np.linspace(lo, hi, per_dim))
        cell = max(cell, (hi - lo) / max(per_dim - 1, 1))
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    slack = 1.0 - pts.sum(axis=1)
    keep = slack >= -1e-12
    pts = pts[keep]
    slack = np.clip(slack[keep], 0.0, None)
    X = np.column_stack([pts, slack])
    vals = evaluate(X)
    idx = int(np.argmin(vals))
    return X[idx], float(vals[idx]), cell


def _per_dim_budget(n_free: int, budget: int = 200_000) -> int:
    if n_free <= 0:
        return 1
    m = int(budget ** (1.0 / n_free))
    return max(9, min(m, 61))


def brute_force_oracle(N: int, p: float, grid_steps: int, refinements: int = 3) -> float:
    """Nested uniform grid search for the chain minimum over the simplex.

    Independent of the log-coordinate optimizer; cost grows like
    grid_steps^(N-1), so this is a small-N verification tool.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if N > 6:
        raise ValueError("grid oracle supports N <= 6")
    if N == 1:
        return 1.0 / p
    comp = _compositions(grid_steps, N)
    X = comp.astype(float) / grid_steps
    vals = _chain_values(X, p)
    idx = int(np.argmin(vals))
    center, best = X[idx], float(vals[idx])
    width = 2.0 / grid_steps
    per_dim = _per_dim_budget(N - 1)
    for _ in range(refinements):
        cand, val, cell = _refine_box(center, width, per_dim, lambda Y: _chain_values(Y, p))
        if val < best:
            best, center = val, cand
        width = 2.0 * cell
    return best


def max_sum_values(X: np.ndarray) -> np.ndarray:
    """Vectorized maximal-average sum over rows of X (periodic n-tuples)."""
    m_rows, n = X.shape
    doubled = np.concatenate([X, X], axis=1)
    prefix = np.zeros((m_rows, 2 * n + 1))
    np.cumsum(doubled, axis=1, out=prefix[:, 1:])
    total = np.zeros(m_rows)
    for j in range(n):
        m_best = np.full(m_rows, -np.inf)
        for r in range(1, n + 1):
            avg = (prefix[:, j + 1 + r] - prefix[:, j + 1]) / r
            np.maximum(m_best, avg, out=m_best)
        total += X[:, j] / m_best
    return total


def cyclic_bruteforce(n: int, grid_steps: int, refinements: int = 2) -> float:
    """Grid lower-envelope search for the cyclic maximal-average minimum.

    Enumerates simplex grid points with the largest coordinate first
    (each rotation orbit contributes one such representative), then
    refines locally.  Returns the best value found, an upper bound on
    the true infimum.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > 4:
        raise ValueError("cyclic grid search supports n <= 4")
    if n == 1:
        return 1.0
    comp = _compositions(grid_steps, n)
    keep = comp[:, 0] == comp.max(axis=1)
    X = comp[keep].astype(float) / grid_steps
    vals = max_sum_values(X)
    idx = int(np.argmin(vals))
    center, best = X[idx], float(vals[idx])
    width = 2.0 / grid_steps
    per_dim = _per_dim_budget(n - 1)
    for _ in range(refinements):
        cand, val, cell = _refine_box(center, width, per_dim, max_sum_values)
        if val < best:
            best, center = val, cand
        width = 2.0 * cell
    return best
