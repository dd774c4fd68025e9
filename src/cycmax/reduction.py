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

Minimization runs per support size k.  From a free parameter a, the
first-order conditions run front to back as a forward recurrence of
sums and quotients of positive numbers, which makes size k stationary at
one price p_k(a); each k thus reduces to the scalar equation p_k(a) = p.
The recurrence depends on neither k nor p, so one longdouble pass serves
many sizes of many problems (N, p) at once, and the cost of a solve is
counted in such passes.  A per-process record of each size, independent
of p and computed the first time a call needs it, tells where p_k peaks
(found by Newton on the slope, in 3 or 4 passes), hence whether the size
has a root, and samples the branch right of the peak, with its slope,
from the peak on (one more pass).  Each problem solves that branch of
four sizes just below min(N, ceil(ln(1/p)) + 2), the winner lies among
them; the root left of the peak never wins (measured).  All these are
solved in one batched Newton iteration, each started from a cubic
Hermite interpolant of its size's samples, in 2 passes on the measured
grids; the lowest value wins.  ``_certified`` makes the winner's solution
from ``_run``, the recurrence in 40-digit decimals, one Newton step past
the root, with the slope of the iteration's last pass; that run certifies
the winner by its backward error (p_k at the corrected root is p to within
the longdouble epsilon) or raises RuntimeError, a bug, not a verdict.
The finite-difference gradient takes its 2N points as rows of one call.
Independent nested grid searches over the simplex serve as cross-check
oracles at small N.
"""

from __future__ import annotations

import decimal
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CycmaxError

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
        raise CycmaxError("p must be positive")
    n = len(x)
    total = 0 * x[-1]
    for i in range(n - 1):
        if x[i] == 0:
            continue
        if x[i + 1] == 0:
            raise CycmaxError(f"positive entry at {i} followed by zero")
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
        raise CycmaxError("p must be positive")
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
            raise CycmaxError(f"positive entry at {i} with zero forward window")
        total += x[i] / best
    return total + x[-1] / p


def _chain_values(X: np.ndarray, p) -> np.ndarray:
    """Vectorized chain sum over rows of X, in the precision of X; inadmissible rows get +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = X[:, :-1] / X[:, 1:]
    terms = np.where(X[:, :-1] == 0, 0.0, ratios)
    return terms.sum(axis=1) + X[:, -1] / p


# Step of the central differences, relative to each coordinate.
FD_REL_STEP = 1e-6


def chain_gradient_fd(x: np.ndarray, p: float) -> np.ndarray:
    """Central-difference gradient with per-component relative steps.

    Steps scale with each coordinate, which keeps the difference quotient
    meaningful when entries span many orders of magnitude.  Differences
    run in extended precision: near a constrained minimizer the objective
    moves by ~|g| * h against a background value many orders larger, and
    double precision would lose most of the quotient to cancellation.
    The 2N moved points are the rows of one ``_chain_values`` call.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise CycmaxError("finite differences require a strictly positive vector")
    x = x.astype(LD)
    n, j = len(x), np.arange(len(x))
    h = LD(FD_REL_STEP) * x
    # row j moves coordinate j up by its step, row n + j moves it down
    moved = np.tile(x, (2 * n, 1))
    moved[j, j] += h
    moved[n + j, j] -= h
    values = _chain_values(moved, LD(p))
    return ((values[:n] - values[n:]) / (moved[j, j] - moved[n + j, j])).astype(float)


def gradient_agreement(x: np.ndarray, p: float) -> float:
    """Normalized mismatch between the analytic and the differenced gradient.

    The analytic gradient is ``_grad_ld``, the one behind every solve's
    stationarity residual, evaluated here in double precision.
    """
    g_fd = chain_gradient_fd(x, p)
    g = _grad_ld(np.asarray(x, dtype=float), p)
    return float(np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1.0))


# ---------------------------------------------------------------------------
# Extended-precision internals (support coordinates, all entries positive)


def _grad_ld(x: np.ndarray, p) -> np.ndarray:
    """Gradient of the chain sum of one support, in the precision of x."""
    g = np.empty(len(x), dtype=x.dtype)
    g[:-1] = 1 / x[1:]
    g[-1] = 1 / p
    g[1:] -= x[:-1] / x[1:] ** 2
    return g


def _residual_ld(x: np.ndarray, p) -> float:
    """Norm of the support gradient projected tangent to the sum constraint.

    Evaluated in extended precision: near the optimum the gradient
    components agree to many digits, and the cancellation would otherwise
    swamp the result for small p.
    """
    g = _grad_ld(x, p)
    g -= g.sum() / len(g)  # the bits of g.mean(), without its dispatch
    return float(np.sqrt((g * g).sum()))


# ---------------------------------------------------------------------------
# Forward recurrence for the first-order system, many support sizes at once
#
# On a support x_0, ..., x_{k-1}, stationarity under the sum constraint asks
# that every partial derivative of the chain sum equal one multiplier lam.
# Writing q_j = x_{j-1}/x_j (q_0 = 0) and u_j = lam x_j, the conditions at
# j = 0, ..., k-2 run front to back from a free parameter a = u_0 > 0:
#
#     q_0 = 0,  u_0 = a,  q_j = q_{j-1} + u_{j-1},  u_j = u_{j-1} / q_j.
#
# The condition at the last entry then holds exactly at the price
# p_k(a) = u_{k-1} / q_k^2, with lam = q_k (Euler's identity), entries
# x_j = u_j / q_k, which sum to 1 because q_k = u_0 + ... + u_{k-1}, and
# value V_k(a) = q_1 + ... + q_k.  Every step adds or divides positive
# numbers, so nothing cancels, and the price enters only as the level of
# the root equation p_k(a) = p: all problems share the same curves.
#
# In ln a, ln p_k tends to ln p_{k-1}(1) as a -> 0 (size k at a -> 0 runs
# as size k - 1 at a = 1) and falls like -k ln a as a -> oo.  Measured
# (tests/test_reduction.py pins it), it is decreasing for k <= 6 and has
# one interior maximum, at a*_k < 1, for k >= 7; its top, -m_k, falls
# strictly with k.  So size k has a root iff m_k < ln(1/p), and each of its
# two monotone branches, left and right of a*_k, holds at most one.  Only
# the right branch is solved: on 3500 seeded (N, p) the 11148 left-branch
# roots each lay above the right root of their size (least relative gap
# 3e-13, at the fold) and at least 5.7e-6 above the problem's winner.  The
# branches meet at the fold, where dV/dp = -x_last/p^2 along each, and the
# left root has the larger last entry.  a*_k, m_k and samples of the right
# branch depend on no price and are computed once per size, the first time
# a call needs the size.  Each problem of a call takes a window of four
# sizes around ln(1/p), where its winner lies; their right roots are then
# solved together by safeguarded Newton in ln a, each started where the
# Hermite interpolant of its size's samples puts it, and the lowest value
# wins.  The root pass carries the slope at each root to the winner's
# 40-digit Newton step.

# Lower end of the search for a*_k, where it stays for sizes whose ln p_k
# only falls.  At and below it a is under half an ulp of 1 in longdouble,
# so q_2 = a + 1 rounds to 1 and p_k no longer moves: the column runs
# exactly as size k - 1 at a = 1, its a -> 0 limit.
_A_MIN = LD(2.0**-65)

# Newton step in ln a below which a root is taken as found.  It sits well
# above the rounding noise of a step (~1e-18 / |d ln p_k / d ln a|), so
# noise never passes for slow progress, and V_k there is within ~1e-16 of
# its value at the root; ``_certified`` takes the step left.
_ROOT_STEP = LD(2.0**-50)

def _forward(a: np.ndarray, k: np.ndarray, curvature: bool = False):
    """p_k(a), d ln p_k / d ln a and V_k(a) in longdouble, one column each.

    Column i runs k[i] steps from a[i]; the columns must come sorted by k,
    descending, so that step j works on the prefix of columns with k >= j.
    The derivative runs the logarithmic derivatives Q_j = d ln q_j / d ln a
    and U_j = d ln u_j / d ln a alongside the recurrence:
    Q_j = (q_{j-1} Q_{j-1} + u_{j-1} U_{j-1}) / q_j and U_j = U_{j-1} - Q_j.
    With ``curvature``, a fourth column gives d^2 ln p_k / d(ln a)^2 from
    their derivatives Q'_j and U'_j, run the same way:
    Q'_j = (q_{j-1} (Q_{j-1}^2 + Q'_{j-1}) + u_{j-1} (U_{j-1}^2 + U'_{j-1})) / q_j - Q_j^2
    and U'_j = U'_{j-1} - Q'_j.
    """
    steps = int(k[0]) if len(k) else 0
    # how many columns take steps 1, 2, ..., steps + 1
    live = np.searchsorted(-k, -np.arange(1, steps + 2), side="right").tolist()
    u = np.array(a, dtype=LD)
    q = np.zeros_like(u)
    Q = np.zeros_like(u)
    U = np.ones_like(u)
    V = np.zeros_like(u)
    qQ = np.empty_like(u)
    if curvature:
        Q2, U2 = np.zeros_like(u), np.zeros_like(u)
    for n, m in zip(live, live[1:]):
        qn, Qn, qQn, un = q[:n], Q[:n], qQ[:n], u[:n]
        if curvature:
            # d^2 q_j / d(ln a)^2, from step j - 1's columns
            qQ2 = qn * (Qn * Qn + Q2[:n]) + un * (U[:n] * U[:n] + U2[:n])
        np.multiply(qn, Qn, out=qQn)
        qQn += un * U[:n]
        qn += un
        np.divide(qQn, qn, out=Qn)
        V[:n] += qn
        if curvature:
            Q2[:n] = qQ2 / qn - Qn * Qn
            U2[:m] -= Q2[:m]
        # u_{j+1} and U_{j+1} serve only the columns that take one more step
        U[:m] -= Q[:m]
        u[:m] /= q[:m]
    columns = u / (q * q), U - 2 * Q, V
    return columns + (U2 - 2 * Q2,) if curvature else columns


# Sizes k >= _RISING_FROM have an interior peak; ln p_k only falls for the
# smaller ones (tests pin both), whose a*_k stays _A_MIN.
_RISING_FROM = 7

# Newton step in ln a below which a peak is taken as found.  The step's
# error is quadratic in the one before it, so the accepted ln a*_k lies
# within ~1e-16 of the zero of the slope; ln p_k is flat there, so m_k is
# exact to rounding.
_PEAK_STEP = LD(2.0**-30)


def _peaks(k: np.ndarray):
    """ln a*_k and d^2 ln p_k / d(ln a)^2 there, for sizes k >= _RISING_FROM.

    Safeguarded Newton on the slope d ln p_k / d ln a, which falls through
    0 once on [ln _A_MIN, 0] (tests pin it): started on the measured curve
    ln a*_k ~ -0.8033 - 5.29 / (k - 4.49), each pass narrows the bracket
    to the sign change and takes the Newton step inside it, or halves the
    bracket where the step leaves it.  Columns come sorted by k, descending.
    """
    lo, hi = np.full(len(k), np.log(_A_MIN)), np.zeros(len(k), dtype=LD)
    x = LD(-0.8033) - LD(5.29) / (k - LD(4.49))
    curvature = np.empty_like(x)
    run = np.arange(len(k))
    while len(run):
        _, slope, _, curvature[run] = _forward(np.exp(x[run]), k[run], curvature=True)
        xr, concave = x[run], curvature[run] < 0
        lor = lo[run] = np.where(slope > 0, xr, lo[run])
        hir = hi[run] = np.where(slope < 0, xr, hi[run])
        step = -slope / curvature[run]
        new = xr + step
        newton = concave & (lor < new) & (new < hir)
        # a step this short is taken even where rounding has moved a bracket
        # end across the peak
        found = concave & (abs(step) <= _PEAK_STEP)
        x[run] = np.where(newton | found, new, (lor + hir) / 2)
        run = run[~found]
    return x, curvature


# The largest ln(1/p) of a float price whose inverse is finite.
_LOG_MAX = LD(math.log(sys.float_info.max))

# Where each size samples ln p_k past its peak: _GRID points evenly over
# ln a in (max(ln a*_k, -10), 2], where the roots of the window sizes lie
# (on 6300 seeded (N, p), all but those of windows cut by N and of size 2
# below n = 110), and _TAIL points out to the bracket top at the smallest
# float price.  With the slope at each sample ``_start`` interpolates by
# cubic Hermite, and 192 grid points bring every warm root to 2 Newton
# passes on 3000 seeded n = 1/p over 664..1e6 and 3000 prices over
# 1e-300..1e-6; roots of sizes 2, 5 and 6 below n = 664 and 3% of those
# in windows cut by N take 3.  With 160 points roots take 3 up to
# n = 1826, and with 96 points 17% of those over 1e2..1e6 do.  A record is
# 2 + 3 * 209 longdoubles, 10 KB, so the table of the sizes 2..712 that a
# float price reaches holds 7.2 MB.  ``_start``'s sample count needs a
# size's z samples never to fall, which holds for every size 2..712
# (tests pin it).
_GRID = 192
_TAIL = 16
_SAMPLES = _GRID + _TAIL + 1


def _size_records(k: np.ndarray) -> np.ndarray:
    """One record per size k: a*_k, m_k, then _SAMPLES values each of z, ln a and d ln a / dz.

    a*_k is where ln p_k peaks on [_A_MIN, oo), found by ``_peaks``; it is
    _A_MIN where ln p_k only falls.  The samples of the right branch start
    at the peak, a*_k itself, whose level gives m_k, and go on at the
    _GRID and _TAIL points, all right of it and capped at the bracket top,
    so ln a never falls, and z = sqrt(-m_k - ln p_k), 0 at the peak, rises.
    The sample pass gives the slope s = d ln p_k / d ln a at each sample,
    hence d ln a / dz = -2 z / s; at an interior peak it is the limit
    sqrt(-2 / (d^2 ln p_k / d(ln a)^2)), and 0 at _A_MIN, where z grows
    like the square root of the distance.  Each size is solved on its own,
    so a record reads the same whatever sizes it is computed with.
    """
    k = np.sort(k)[::-1]
    a_star = np.full(len(k), _A_MIN)
    peak_dxdz = np.zeros(len(k), dtype=LD)
    rising = k >= _RISING_FROM
    log_peak, curvature = _peaks(k[rising])
    a_star[rising], peak_dxdz[rising] = np.exp(log_peak), np.sqrt(-2 / curvature)
    peak, end = np.log(a_star), np.log(LD(2)) + _LOG_MAX / k
    grid = np.linspace(np.maximum(peak, -10), 2, _GRID + 1, axis=1)[:, 1:]
    tail = 2 + (end[:, None] - 2) * np.linspace(0, 1, _TAIL + 1, dtype=LD)[1:] ** 2
    log_a = np.minimum(np.column_stack([peak, grid, tail]), end[:, None])
    a = np.column_stack([a_star, np.exp(log_a[:, 1:])])
    price, slope, _ = _forward(a.ravel(), np.repeat(k, _SAMPLES))
    level, slope = np.log(price).reshape(log_a.shape), slope.reshape(log_a.shape)
    z = np.sqrt(np.maximum(level[:, :1] - level, 0))
    dxdz = np.column_stack([peak_dxdz, -2 * z[:, 1:] / slope[:, 1:]])
    return np.column_stack([a_star, -level[:, 0], z, log_a, dxdz])[::-1]


# The records of the sizes computed so far, row k for size k; rows of sizes
# not yet computed read nan.  ``_records`` fills them as calls need them.
_table = np.full((0, 2 + 3 * _SAMPLES), np.nan, dtype=LD)


def _records(k: np.ndarray) -> np.ndarray:
    """The table, with the records of sizes k >= 2 that it lacked computed in one batch."""
    global _table
    size = k.max(initial=1) + 1
    if size > len(_table):
        grown = np.full((size, _table.shape[1]), np.nan, dtype=LD)
        grown[: len(_table)] = _table
        _table = grown
    new = np.zeros(len(_table), dtype=bool)
    new[k] = True
    new = np.flatnonzero(new & np.isnan(_table[:, 1]))
    if len(new):
        _table[new] = _size_records(new)
    return _table


# Columns per block of ``_start``'s sample count.  The count gathers a
# block's rows of z samples, 3.3 KB a column, so a block of 1024 columns
# holds 3.4 MB however many columns a call solves.
_START_BLOCK = 1024


def _start(table: np.ndarray, k: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Newton start a of the right-branch root of size k at ln p.

    The root has z = sqrt(-m_k - ln p) > 0, which lies above the first
    sample (the peak, z = 0) and at most at the last (the bracket top at
    the smallest float price) wherever the size has a root.  Since a
    size's z samples never fall, the count of its samples below z is the
    index of the first sample at or above it, and ln a is interpolated in
    z between that sample and the one before by the cubic Hermite
    interpolant of their ln a and d ln a / dz.
    """
    z = np.sqrt(-table[k, 1] - log_p)
    j = np.empty(len(k), dtype=int)
    for i in range(0, len(k), _START_BLOCK):
        block = slice(i, i + _START_BLOCK)
        j[block] = (table[k[block], 2 : 2 + _SAMPLES] < z[block, None]).sum(axis=1) + 2
    z0, z1 = table[k, j - 1], table[k, j]
    x0, x1 = table[k, j + _SAMPLES - 1], table[k, j + _SAMPLES]
    d0, d1 = table[k, j + 2 * _SAMPLES - 1], table[k, j + 2 * _SAMPLES]
    h = z1 - z0
    t = (z - z0) / h
    return np.exp(x0 + t * t * (3 - 2 * t) * (x1 - x0) + h * t * (1 - t) * ((1 - t) * d0 - t * d1))


def _roots(lo, hi, a, k, p):
    """Roots of p_k(a) = p on right-branch brackets [lo, hi], one per column.

    Columns come sorted by k, descending, each with its own price, bracket
    and start a; p_k falls across the bracket, so h = ln(p_k / p) falls
    from h(lo) > 0 to h(hi) < 0.  h is the log of a ratio near 1, not a
    difference of logs near ln p, so its rounding stays at the ulps of p_k.
    Newton steps in ln a are replaced by bisection in ln a when they leave
    the bracket or do not halve the step before last (rtsafe).  A column
    stops once its Newton step falls to _ROOT_STEP or its bracket ends are
    adjacent floats, keeping the a of its last pass.
    Gives a, V_k and d ln p_k / d ln a at the roots, all from that pass.
    """
    V, slope = np.empty_like(a), np.empty_like(a)
    step = np.log(hi / lo)
    step_old = step.copy()
    run = np.arange(len(a))
    while len(run):
        price, dh, V[run] = _forward(a[run], k[run])
        slope[run] = dh
        ar, lor, hir = a[run], lo[run], hi[run]
        h = np.log(price / p[run])
        lor = lo[run] = np.where(h > 0, ar, lor)
        hir = hi[run] = np.where(h < 0, ar, hir)
        s = -h / np.where(dh < 0, dh, -1)
        found = (h == 0) | ((dh < 0) & (abs(s) <= _ROOT_STEP))
        newton = (dh < 0) & (2 * abs(s) <= abs(step_old[run]))
        new = ar + ar * np.expm1(np.where(newton, s, 0))
        newton &= (lor < new) & (new < hir)
        new = np.where(newton, new, np.sqrt(lor * hir))
        done = found | (new == ar) | (new <= lor) | (new >= hir)
        step_old[run] = step[run]
        step[run] = np.where(newton, s, np.log(new / ar))
        run = run[~done]
        a[run] = new[~done]
    return a, V, slope


@dataclass
class ReducedSolution:
    """Outcome of a simplex minimization of the chain sum.

    Only the trailing support is stored; every entry before it is zero.
    ``stationarity_residual`` is that of the longdouble entries these were
    rounded from, a diagnostic: the certificate is the backward error that
    ``_certified`` checks.
    """

    N: int
    p: float
    value: float
    entries: np.ndarray
    stationarity_residual: float

    @property
    def support(self) -> int:
        return len(self.entries)

    def to_dict(self) -> dict:
        return {
            "n": self.N,
            "p": self.p,
            "value": self.value,
            "support": self.support,
            "entries": [float(v) for v in self.entries],
            "residual": self.stationarity_residual,
        }


# The largest backward error |p_k(a) / p - 1| of a certified root, the
# precision its entries are rounded to.  Measured, a root moved by 1e-8
# reads at least 4e-18 at p = 1/n over n in 3..1e300, 8.6e-19 at the fold.
_EPS = decimal.Decimal(float(np.finfo(LD).eps))


def _run(a, k: int):
    """u_0, ..., u_{k-1}, q_k and V_k(a), in the arithmetic of a (a Decimal's: the context's)."""
    u, q, value, x = a, 0, 0, []
    for _ in range(k):
        x.append(u)
        q += u
        value += q
        u /= q
    return x, q, value


def _certified(N: int, p: float, a, slope, k: int) -> ReducedSolution:
    """The solution of size k at the longdouble root a, certified in 40 digits.

    The longdouble recurrence leaves p_k and the entries a few ulps off,
    and the gradient at the last entry reads that error times 1/p.  So
    ``_run`` runs it again in 40 digits, and one Newton step in ln a, with
    the slope ``_roots`` gave at a, takes a to the root.  The run there
    certifies it: a backward error above _EPS raises RuntimeError.  The
    residual is that of the entries rounded once from 40 digits to
    longdouble; each is then rounded to the nearest double, and not
    renormalized: the doubles sum to 1 within a few ulps.
    """
    with decimal.localcontext() as context:
        context.prec = 40
        num, den = a.as_integer_ratio()
        root = decimal.Decimal(num) / den
        price = decimal.Decimal(float(p))
        x, q, _ = _run(root, k)
        mismatch = x[-1] / (q * q * price) - 1
        x, q, value = _run(root * (1 - mismatch / decimal.Decimal(float(slope))), k)
        error = abs(x[-1] / (q * q * price) - 1)
        if error > _EPS:
            raise RuntimeError(
                f"uncertified root of size {k} at p = {float(p)!r}: "
                f"backward error {float(error):.3g} above {float(_EPS):.3g}"
            )
        x = np.array([str(v / q) for v in x], dtype=LD)
    return ReducedSolution(N, p, float(value), x.astype(float), _residual_ld(x, LD(p)))


def check_price(p: float) -> float:
    """p itself, if the solver takes it as a price: positive, with 1/p finite."""
    if not 0 < p < math.inf:
        raise CycmaxError("p must be positive and finite")
    if not math.isfinite(1.0 / p):
        raise CycmaxError(f"p = {p!r} is too small: 1/p overflows")
    return p


def check_problem(N: int, p: float) -> None:
    """Reject a chain problem (N, p) that the solver does not take."""
    if N < 1:
        raise CycmaxError("N must be a positive integer")
    check_price(p)


def cyclic_price(n: int) -> float:
    """The price 1/n of the cyclic length n, which must lie in the float range."""
    if n < 1:
        raise CycmaxError("n must be a positive integer")
    try:
        return 1.0 / n
    except OverflowError:
        raise CycmaxError(
            f"n is too large: it must lie within the float range (at most {sys.float_info.max:.6g})"
        ) from None


# Sizes solved per problem: the right branch of the _WINDOW sizes up to the
# window's top, the largest size with a root that is at most N and at most
# ceil(ln(1/p)) + _ABOVE_LOG_N.  Measured on the 1200 ln n in [7, 400], the
# winner is ceil(ln n) (958 cases) or ceil(ln n) + 1 (242); on 6300 seeded
# (N, p), N < ln(1/p) and p down to 1e-300 included, and on 600 with N in
# [30, 689] and ln(1/p) in [N, 690], it is the top, one below it or two
# below it, never three.  tests/test_reduction.py checks the window against
# both branches of every size on 924 more, 24 of them with N cutting it at
# large sizes.  Anchored at the largest size with a root instead, the
# window misses the winner from n ~ 1e100 on (233 for 231 there), where
# m_k has fallen more than 4 below k.
_WINDOW = 4
_ABOVE_LOG_N = 2


def _minimize_many(problems: Sequence[tuple[int, float]]) -> list:
    """Minimize the chain sum for every (N, p) of ``problems`` together.

    The right branch of each size of each problem's window is one column
    of a single batched root solve; each problem then keeps its lowest
    value.  Gives one ReducedSolution per problem, built in problem order,
    each winner by ``_certified`` as the list is made, so one winner's
    entries are held at a time.
    """
    for N, p in problems:
        check_problem(N, p)
    price = np.array([p for _, p in problems], dtype=LD)
    log_p = np.log(price)
    # ceil(ln(1/p)) + 2 is at most 712 for a float price, so the cap on N
    # changes no bound; it only keeps N inside int64
    bound = np.minimum([min(N, 10**6) for N, _ in problems], np.ceil(-log_p) + _ABOVE_LOG_N).astype(int)
    # m_k rises with k and k - m_k > 1.28 (measured to k = 712, least at
    # k = 10), so the top of the window, the largest size with a root, lies
    # at most 2 below the bound, and the window is the four largest sizes
    # with a root among the six up to it; rows 0 and 1 of the table read
    # nan, which has no root
    k = bound[:, None] - np.arange(_WINDOW + 2)
    table = _records(k[k >= 2])
    root = table[np.maximum(k, 0), 1] < -log_p[:, None]
    root &= np.cumsum(root, axis=1) <= _WINDOW
    owner, k = np.nonzero(root)[0], k[root]
    order = np.argsort(-k, kind="stable")
    owner, k = owner[order], k[order]
    # p_k(a) <= a^-k for a >= 1, so p_k < p at a = 2 p^(-1/k)
    lo, hi = table[k, 0], 2 * np.exp(-log_p[owner] / k)
    start = np.clip(_start(table, k, log_p[owner]), lo, hi)
    a, V, slope = _roots(lo, hi, start, k, price[owner])

    # per problem, the lowest value, the smallest size on a tie; a problem
    # without columns (p >= 1 or N = 1) keeps the point mass, which size 2
    # beats wherever it has a root
    ranked = np.lexsort((k, V, owner))
    cols = ranked[np.diff(owner[ranked], prepend=-1) != 0]
    winner = np.full(len(problems), -1)
    winner[owner[cols]] = cols
    return [
        _certified(N, p, a[c], slope[c], int(k[c])) if c >= 0 else ReducedSolution(N, p, 1.0 / p, np.ones(1), 0.0)
        for (N, p), c in zip(problems, winner.tolist())
    ]


def minimize_chain(N: int, p: float) -> ReducedSolution:
    """Minimize the chain sum over the N-simplex at price p.

    The candidates are the point mass and the positive stationary points
    of the four support sizes just below min(N, ceil(ln(1/p)) + 2) that
    have a root, where the minimum lies (measured; see ``_WINDOW``): the
    right branch of each is solved in longdouble (its left-branch root
    never wins; see the notes above ``_forward``), the lowest value wins,
    and its entries and value are rounded from 40-digit decimals.  The
    40-digit run certifies the winner by its backward error (see
    ``_certified``); a root that fails it raises RuntimeError, since no
    float input is known to.  Rejects a p so small that 1/p overflows a
    float.
    """
    return _minimize_many([(N, p)])[0]


# ---------------------------------------------------------------------------
# Grid-search oracles


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of given length summing to total.

    Rows are in lexicographic order, enumerated by stars and bars: the
    positions of the parts - 1 bars among total + parts - 1 slots, taken in
    lexicographic order, fix the row, and the gaps between bars are its
    entries.
    """
    slots = total + parts - 1
    count = math.comb(slots, parts - 1)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
        count=count * (parts - 1),
    ).reshape(count, parts - 1)
    edges = np.empty((count, parts + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:-1] = bars
    edges[:, -1] = slots
    return np.diff(edges, axis=1) - 1


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


# Grid points per local refinement box of the grid oracles.
_BOX_BUDGET = 200_000

# Local refinements of the grid oracles after their first grid.
_REFINEMENTS = 3


def _per_dim_budget(n_free: int) -> int:
    if n_free <= 0:
        return 1
    m = int(_BOX_BUDGET ** (1.0 / n_free))
    return max(9, min(m, 61))


def _grid_search(X: np.ndarray, evaluate, grid_steps: int) -> float:
    """Least value of ``evaluate`` over the grid rows X, then refined locally.

    Each of the ``_REFINEMENTS`` refinements searches a box around the
    incumbent, two cells of the previous grid wide on each side.
    """
    vals = evaluate(X)
    idx = int(np.argmin(vals))
    center, best = X[idx], float(vals[idx])
    width = 2.0 / grid_steps
    per_dim = _per_dim_budget(X.shape[1] - 1)
    for _ in range(_REFINEMENTS):
        cand, val, cell = _refine_box(center, width, per_dim, evaluate)
        if val < best:
            best, center = val, cand
        width = 2.0 * cell
    return best


def brute_force_oracle(N: int, p: float, grid_steps: int) -> float:
    """Nested uniform grid search for the chain minimum over the simplex.

    A grid of step 1/grid_steps, then ``_REFINEMENTS`` local refinements.
    Independent of the log-coordinate optimizer; cost grows like
    grid_steps^(N-1), so this is a small-N verification tool.
    """
    if N < 1:
        raise CycmaxError("N must be positive")
    if N > 6:
        raise CycmaxError("grid oracle supports N <= 6")
    if N == 1:
        return 1.0 / p
    X = _compositions(grid_steps, N).astype(float) / grid_steps
    return _grid_search(X, lambda Y: _chain_values(Y, p), grid_steps)


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


def cyclic_bruteforce(n: int, grid_steps: int) -> float:
    """Grid lower-envelope search for the cyclic maximal-average minimum.

    Enumerates simplex grid points with the largest coordinate first
    (each rotation orbit contributes one such representative), then
    refines locally ``_REFINEMENTS`` times.  Returns the best value found,
    an upper bound on the true infimum.
    """
    if n < 1:
        raise CycmaxError("n must be positive")
    if n > 4:
        raise CycmaxError("cyclic grid search supports n <= 4")
    if n == 1:
        return 1.0
    comp = _compositions(grid_steps, n)
    keep = comp[:, 0] == comp.max(axis=1)
    X = comp[keep].astype(float) / grid_steps
    return _grid_search(X, max_sum_values, grid_steps)
