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
many sizes of many problems (N, p) at once, its columns in any order, and
the cost of a solve is counted in such passes; it gives p_k, V_k and the
slope of ln p_k in ln a.  A per-process record of each size, independent
of p and computed the first time a call needs it, in a store with a row
for every size a float price reaches, holds the depth m_k of
the peak of p_k (Newton on the slope, whose derivative is the difference
quotient of two adjacent columns, in 3 or 4 passes), hence whether the
size has a root, and samples of the branch right of the peak, from the
peak on, with its slope (one more pass).  Each problem solves that
branch of three sizes just below min(N, ceil(ln(1/p)) + 2), where the
winner lies; the root left of the peak never wins (measured).  All are
solved in one batched Newton iteration, each started from a cubic
Hermite interpolant of its size's samples (from the square-root law of
z next to the top of a size whose ln p_k only falls), in 1 pass on the
measured grids.  Both searches are one routine, ``_newton``: Newton in
ln a on a falling function, kept inside a bracket, that takes a step of
at most 2^-24 with no pass to confirm it.  The search runs in ln a
throughout, from the records to the roots, and V_k moves with a root's
last step along dV_k / d ln p = -q_k.  The lowest value wins.
``_certify`` makes the solutions of all the winners of a call: per
winner, the recurrence in 40-digit decimals takes one Newton step past
the longdouble root and certifies it by its backward error (p_k there is
p within 2^-63) or raises RuntimeError, a bug, not a verdict; per chunk
of about _CHUNK entries, one parse to longdouble, one pass for the
residuals and one rounding to doubles serve every winner.  Solves refuse
a longdouble without a 64-bit mantissa.  The finite-difference gradient
takes its 2N points as rows of one call; nested grid searches are
independent oracles at small N.
"""

from __future__ import annotations

import decimal
import math
import operator
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
    Fractions, or numpy scalars alike; see ``_check_objective`` for what
    it rejects.
    """
    _check_objective(x, p)
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
    a tiny window next to a large one to cancellation.  Rejects what
    ``t_chain`` rejects.
    """
    _check_objective(x, p)
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


def _check_objective(x: Sequence, p) -> None:
    """Reject an empty x, an entry of x that is negative or not finite, and a p that is not positive and finite.

    Both tests compare with math.inf, which NaN fails and a Fraction or an
    int of any size passes exactly, where math.isfinite would convert it to
    a float and overflow.
    """
    if not len(x):
        raise CycmaxError("x must be nonempty")
    if not all(0 <= v < math.inf for v in x):
        raise CycmaxError("entries of x must be nonnegative and finite")
    if not 0 < p < math.inf:
        raise CycmaxError("p must be positive and finite")


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
    _check_longdouble()
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

    The analytic gradient is ``_grad_ld``, evaluated here in double
    precision; a solve's stationarity residual takes the same gradient
    elementwise over its longdouble entries (``_residuals``).
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
# left root has the larger last entry.  m_k and samples of the right
# branch, the first at a*_k, depend on no price and are computed once per
# size, the first time a call needs the size, into the size's row of a
# store allocated once for sizes 0..712; the peak search takes
# d^2 ln p_k / d(ln a)^2 as the difference quotient of the slopes at ln a
# and ln a + 2^-26, so the kernel carries the first derivative only.  Each
# problem takes a window of three sizes around ln(1/p), where its winner
# lies; their right roots are solved together by Newton in ln a, kept
# inside a bracket, each started at the Hermite interpolant of its size's
# samples (in the first sample interval of a size whose ln p_k only falls,
# where z^2 grows like a, at the square-root law of z instead), and the
# lowest value wins.  The last pass of each root gives the slope of the winner's
# 40-digit Newton step.  The kernel orders the columns of a pass itself,
# so the columns of any call may mix sizes and problems freely.

# Lower end of the search for a*_k, where it stays for sizes whose ln p_k
# only falls.  At and below it a is under half an ulp of 1 in longdouble,
# so q_2 = a + 1 rounds to 1 and p_k no longer moves: the column runs
# exactly as size k - 1 at a = 1, its a -> 0 limit.
_A_MIN = LD(2.0**-65)

# Newton step in ln a at most which ``_newton`` takes and then stops, with
# no pass to confirm it; its error is quadratic in the step.  On the
# benchmark grids a first root step from a Hermite start is at most 3.6e-8
# (median 3.8e-10), and ``_certify``'s 40-digit step takes the ~1e-15
# left; ln p_k is flat at a peak, so m_k is exact to rounding.
_NEWTON_STEP = LD(2.0**-24)


def _forward(a: np.ndarray, k: np.ndarray):
    """p_k(a), d ln p_k / d ln a, V_k(a) and q_k(a) in longdouble, one column each.

    Column i runs k[i] steps from a[i], and the columns may come in any
    order: they run sorted by k, descending, so that step j works on the
    prefix of columns with k >= j, and every output comes back in the
    order of a.  The slope, the one derivative carried (``_peaks``
    differences slopes), runs Q_j = d ln q_j / d ln a and
    U_j = d ln u_j / d ln a alongside:
    Q_j = (q_{j-1} Q_{j-1} + u_{j-1} U_{j-1}) / q_j and U_j = U_{j-1} - Q_j.
    """
    order = np.argsort(-k, kind="stable")
    # how many columns take steps 1, 2, ..., max(k) + 1
    live = np.searchsorted(-k[order], -np.arange(1, k.max(initial=0) + 2), side="right").tolist()
    u = np.asarray(a, dtype=LD)[order]
    q, Q, V, qQ = np.zeros((4, len(u)), dtype=LD)
    U = np.ones_like(u)
    for n, m in zip(live, live[1:]):
        qn, Qn, qQn, un = q[:n], Q[:n], qQ[:n], u[:n]
        np.multiply(qn, Qn, out=qQn)
        qQn += un * U[:n]
        qn += un
        np.divide(qQn, qn, out=Qn)
        V[:n] += qn
        # u_{j+1} and U_{j+1} serve only the columns that take one more step
        U[:m] -= Q[:m]
        u[:m] /= q[:m]
    back = np.argsort(order)
    return tuple(c[back] for c in (u / (q * q), U - 2 * Q, V, q))


def _newton(x, lo, hi, evaluate):
    """Roots in x = ln a of falling functions f, one per column, by Newton kept inside a bracket.

    Column i starts at x[i] inside its bracket [lo[i], hi[i]], across which
    f falls through 0; ``evaluate(run, x[run])`` gives f and df/dx of the
    columns ``run`` in one kernel pass.  Each pass narrows the bracket to the
    sign change and takes the Newton step where it lands inside; otherwise
    it halves the bracket.  A column whose Newton step is at most
    _NEWTON_STEP takes it and stops, with no pass to confirm it, even where
    the step is too short to move x off a bracket end, where halving would
    take dozens of passes more.  A column whose bracket can no longer be
    halved stops at the x of its last pass.  So each column's last pass is
    the one its result is stepped from.  lo, hi and x are updated in place.
    """
    run = np.arange(len(x))
    while len(run):
        xr = x[run]
        f, df = evaluate(run, xr)
        lor = lo[run] = np.where(f > 0, xr, lo[run])
        hir = hi[run] = np.where(f < 0, xr, hi[run])
        s = -f / np.where(df < 0, df, -1)
        found = (f == 0) | ((df < 0) & (abs(s) <= _NEWTON_STEP))
        new = xr + s
        newton = (df < 0) & (lor < new) & (new < hir)
        new = np.where(newton | found, new, (lor + hir) / 2)
        done = found | (new <= lor) | (new >= hir)
        x[run] = np.where(found | ~done, new, xr)
        run = run[~done]
    return x


# Sizes k >= _RISING_FROM have an interior peak; ln p_k only falls for the
# smaller ones (tests pin both), whose a*_k stays _A_MIN.
_RISING_FROM = 7


def _peaks(k: np.ndarray):
    """ln a*_k and d^2 ln p_k / d(ln a)^2 there, for sizes k >= _RISING_FROM.

    ``_newton`` on the slope d ln p_k / d ln a, which falls through 0 once
    on [ln _A_MIN, 0] (tests pin it), started on the measured curve
    ln a*_k ~ -0.8033 - 5.29 / (k - 4.49).  A pass runs each size as two
    adjacent columns, at ln a and ln a + 2^-26, and the difference quotient
    of their slopes is the curvature, within ~1e-8 relative (tests pin
    1e-7).
    """
    curvature, delta = np.empty(len(k), dtype=LD), LD(2.0**-26)

    def evaluate(run, x):
        pair = np.exp(x[:, None] + [0, delta]).ravel()
        slope, ahead = _forward(pair, np.repeat(k[run], 2))[1].reshape(-1, 2).T
        c = curvature[run] = (ahead - slope) / delta
        return slope, c

    lo, hi = np.full(len(k), np.log(_A_MIN)), np.zeros(len(k), dtype=LD)
    return _newton(LD(-0.8033) - LD(5.29) / (k - LD(4.49)), lo, hi, evaluate), curvature


# The largest ln(1/p) of a float price whose inverse is finite.
_LOG_MAX = LD(math.log(sys.float_info.max))

# Where each size samples ln p_k past its peak: _GRID points evenly over
# ln a in (max(ln a*_k, -10), 2], where the roots of the window sizes lie
# (on 6300 seeded (N, p), all but those of windows cut by N and of size 2
# below n = 110), and _TAIL points out to the bracket top at the smallest
# float price.  With the slope at each sample ``_start`` interpolates by
# cubic Hermite, and 192 grid points bring every warm root to 1 Newton
# pass, a first step of at most _NEWTON_STEP, on 3000 seeded n = 1/p over
# 664..1e6 and 3000 prices over 1e-300..1e-6; 10% of the roots below
# n = 664 and 12% of those in windows cut by N take 2.  With 160 points
# 14 of the 2304 roots of the 96 benchmark grids take 2, and with 96
# points 76 do.  A record is 1 + 3 * 209 longdoubles, 10 KB, so the store
# of the sizes 2..712 that a float price reaches reserves 7.2 MB.
# ``_start``'s halving search needs a size's z samples never to fall,
# which holds for every size 2..712 (tests pin it).
_GRID = 192
_TAIL = 16
_SAMPLES = _GRID + _TAIL + 1

# The fields of a record's sample block: z, ln a and d ln a / dz.
_Z, _LOG_A, _DXDZ = range(3)


def _size_records(k: np.ndarray):
    """m_k and a (3, _SAMPLES) block of z, ln a and d ln a / dz samples, per size k.

    a*_k is where ln p_k peaks on [_A_MIN, oo), found by ``_peaks``; it is
    _A_MIN where ln p_k only falls.  The samples of the right branch start
    at the peak, ln a*_k itself, whose level gives m_k, and go on at the
    _GRID and _TAIL points, all right of it and capped at the bracket top,
    so ln a never falls, and z = sqrt(-m_k - ln p_k), 0 at the peak, rises.
    The sample pass gives the slope s = d ln p_k / d ln a at each sample,
    hence d ln a / dz = -2 z / s; at an interior peak it is the limit
    sqrt(-2 / (d^2 ln p_k / d(ln a)^2)), and 0 at _A_MIN, where z grows
    like the square root of the distance.  Each size is solved on its own,
    so a record reads the same whatever sizes it is computed with.
    """
    peak, peak_dxdz = np.full(len(k), np.log(_A_MIN)), np.zeros(len(k), dtype=LD)
    rising = k >= _RISING_FROM
    peak[rising], curvature = _peaks(k[rising])
    peak_dxdz[rising] = np.sqrt(-2 / curvature)
    end = np.log(LD(2)) + _LOG_MAX / k
    grid = np.linspace(np.maximum(peak, -10), 2, _GRID + 1, axis=1)[:, 1:]
    tail = 2 + (end[:, None] - 2) * np.linspace(0, 1, _TAIL + 1, dtype=LD)[1:] ** 2
    log_a = np.minimum(np.column_stack([peak, grid, tail]), end[:, None])
    price, slope, _, _ = _forward(np.exp(log_a).ravel(), np.repeat(k, _SAMPLES))
    level, slope = np.log(price).reshape(log_a.shape), slope.reshape(log_a.shape)
    z = np.sqrt(np.maximum(level[:, :1] - level, 0))
    dxdz = np.column_stack([peak_dxdz, -2 * z[:, 1:] / slope[:, 1:]])
    return -level[:, 0], np.stack([z, log_a, dxdz], axis=1)


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
# m_k has fallen more than 4 below k.  3 is the smallest window the tests
# accept: with 2, six fail, and a replay of 8,683 CLI commands and 9,498
# problems (scripts/identity.py) reads the same bytes with 3 as with 4.
_WINDOW = 3
_ABOVE_LOG_N = 2

# The records of every size a float price reaches, row k for size k up to
# ceil(_LOG_MAX) + _ABOVE_LOG_N = 712: _m holds m_k, nan until ``_records``
# computes the size, and _samples its (3, _SAMPLES) block.  Only the rows of
# computed sizes are written or read, so the 7.2 MB of _samples, which
# np.empty leaves untouched, are reserved, not resident.
_m = np.full(math.ceil(_LOG_MAX) + _ABOVE_LOG_N + 1, np.nan, dtype=LD)
_samples = np.empty((len(_m), 3, _SAMPLES), dtype=LD)


def _records(k: np.ndarray):
    """m_k and the sample blocks of the store, with the sizes 2 <= k <= 712 that it lacked computed in one batch.

    Row k is size k: m[k], and samples[k, field, j], sample j of the field
    _Z, _LOG_A or _DXDZ.
    """
    new = np.flatnonzero((np.bincount(k, minlength=len(_m)) > 0) & np.isnan(_m))
    if len(new):
        _m[new], _samples[new] = _size_records(new)
    return _m, _samples


def _start(m: np.ndarray, samples: np.ndarray, k: np.ndarray, log_p: np.ndarray) -> np.ndarray:
    """Newton start ln a of the right-branch root of size k at ln p.

    The root has z = sqrt(-m_k - ln p) > 0, which lies above the first
    sample (the peak, z = 0) and at most at the last (the bracket top at
    the smallest float price) wherever the size has a root.  Since a
    size's z samples never fall, halving the sample indices finds the
    last sample below z, j, in 8 steps of one sample per column, and ln a
    is interpolated in z between samples j and j + 1 by the cubic Hermite
    interpolant of their ln a and d ln a / dz.  Where sample j is the
    peak at _A_MIN of a size whose ln p_k only falls, z^2 grows like a
    and no cubic in z fits ln a, so the start is the square-root law
    ln a = x1 + 2 ln(z / z1) through sample j + 1.  m and samples are
    those of ``_records``.
    """
    z, Z = np.sqrt(-m[k] - log_p), samples[:, _Z]
    j, n = np.zeros(len(k), dtype=int), _SAMPLES
    while n > 1:
        half = n // 2
        j += half * (Z[k, j + half] < z)
        n -= half
    (z0, x0, d0), (z1, x1, d1) = samples[k, :, j].T, samples[k, :, j + 1].T
    h = z1 - z0
    t = (z - z0) / h
    hermite = x0 + t * t * (3 - 2 * t) * (x1 - x0) + h * t * (1 - t) * ((1 - t) * d0 - t * d1)
    return np.where(d0 == 0, x1 + 2 * np.log(z / z1), hermite)


def _roots(lo, hi, x, k, p):
    """Roots in ln a of p_k(a) = p on right-branch brackets [lo, hi], one per column.

    Each column has its own price, bracket and start x, all in ln a; p_k
    falls across the bracket, so h = ln(p_k / p) falls from h(lo) > 0 to
    h(hi) < 0, and ``_newton`` solves h = 0.  h is the log of a ratio near
    1, not a difference of logs near ln p, so its rounding stays at the
    ulps of p_k.  Gives ln a, V_k and d ln p_k / d ln a, each from the last
    pass of its column: V_k moved along dV_k / d ln p = -q_k to that pass's
    Newton step, so V_k + q_k h.
    """
    V, slope = np.empty_like(x), np.empty_like(x)

    def evaluate(run, xr):
        price, dh, Vr, q = _forward(np.exp(xr), k[run])
        h = np.log(price / p[run])
        V[run], slope[run] = Vr + q * h, dh
        return h, dh

    return _newton(x, lo, hi, evaluate), V, slope


@dataclass
class ReducedSolution:
    """Outcome of a simplex minimization of the chain sum.

    Only the trailing support is stored; every entry before it is zero.
    ``stationarity_residual`` is that of the longdouble entries these were
    rounded from, a diagnostic: the certificate is the backward error that
    ``_certify`` checks.
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
# precision its entries are rounded to: the epsilon of a 64-bit mantissa,
# which ``_check_longdouble`` asks of LD.  Measured, a root moved by 1e-8
# reads at least 5e-18 at p = 1/n over n in 3..1e300, 1.9e-19 at the fold.
_EPS = decimal.Decimal(2.0**-63)


def _check_longdouble() -> None:
    """Reject a platform whose longdouble lacks the 64-bit mantissa the solver is measured in."""
    if np.finfo(LD).nmant < 63:
        bits = np.finfo(LD).nmant + 1
        raise CycmaxError(f"the chain solver needs an 80-bit long double (a 64-bit mantissa); numpy.longdouble has {bits} bits here")


def _run(a, k: int):
    """u_0, ..., u_{k-1}, q_k and V_k(a), in the arithmetic of a (a Decimal's: the context's)."""
    u, q, value, x = a, 0, 0, []
    for _ in range(k):
        x.append(u)
        q += u
        value += q
        u /= q
    return x, q, value


def _residuals(x: np.ndarray, start: np.ndarray, k: np.ndarray) -> np.ndarray:
    """The stationarity residual of each support in the flat longdouble x, as doubles.

    Support i has k[i] entries, and x holds a slot before each support,
    at start[i], and one after the last: 0 before the first, and after
    each support its price, [0, x^1, p^1, x^2, ..., x^m, p^m].  The
    residual of a support is the norm of its gradient (``_grad_ld``)
    projected tangent to the sum constraint, in extended precision: near
    the optimum the gradient components agree to many digits, and the
    cancellation would otherwise swamp the result for small p.  The
    gradient is elementwise, with the term that crosses a slot masked, and
    the slots' own components are zeroed, so ``np.add.reduceat`` from each
    slot sums a support as 0 plus the pairwise sum of its components: the
    bits of ``g.sum()`` of that support alone.
    """
    g = 1 / x[1:]
    cross = x[:-2] / x[1:-1] ** 2
    cross[start] = 0
    g[1:] -= cross
    g[start] = 0
    g -= (np.add.reduceat(g, start) / k).repeat(k + 1)
    g[start] = 0
    return np.sqrt(np.add.reduceat(g * g, start)).astype(float)


def _solutions(solved: list, strings: list) -> list:
    """The solutions of one chunk of certified winners.

    ``solved`` holds (N, p, V_k, k, start) per winner, and ``strings`` the
    entries in 40 digits, each support after a slot "0" at its start,
    and one more "0" after the last.  The strings are parsed in one call,
    rounded once to longdouble; the residuals are those of these entries
    (``_residuals``), and each entry is then rounded to the nearest double,
    in one call, and not renormalized: the doubles sum to 1 within a few
    ulps.
    """
    N, p, value, k, start = zip(*solved)
    x = np.array(strings, dtype=LD)
    x[[i + n + 1 for i, n in zip(start, k)]] = p
    rounded = x.astype(float)
    entries = [rounded[i + 1 : i + 1 + n] for i, n in zip(start, k)]
    return list(map(ReducedSolution, N, p, value, entries, _residuals(x, np.array(start), np.array(k)).tolist()))


# Entries certified together: ``_certify`` rounds a chunk once its entry
# strings pass _CHUNK, so it holds at most _CHUNK + 713 at a time.  On a
# warm 1e4-point sweep over 1e3..1e300 (3.5 million entries) one chunk for
# all took the tracemalloc peak to 616 MB, against 33.1 MB with this one,
# nearly all of it the solutions returned.
_CHUNK = 2048


def _certify(problems: Sequence[tuple[int, float]], a: np.ndarray, slope: np.ndarray, k: np.ndarray) -> list:
    """The solutions of sizes k at the longdouble roots a, certified in 40 digits, one per problem (N, p).

    The longdouble recurrence leaves p_k and the entries a few ulps off,
    and the gradient at the last entry reads that error times 1/p.  So
    ``_run`` runs it again in 40 digits, and one Newton step in ln a, with
    the slope of the last kernel pass of ``_roots`` (taken just before a,
    within _NEWTON_STEP in ln a), takes a to the root.  A second ``_run``
    there certifies it: a backward error above _EPS raises RuntimeError,
    and no solution is returned.  All runs share one decimal context, and the
    winners' entries are rounded in chunks of about _CHUNK (``_solutions``);
    each problem's solution reads the same in any chunk.
    """
    solutions, solved, strings = [], [], ["0"]
    with decimal.localcontext() as context:
        context.prec = 40
        for (N, p), root, s, size in zip(problems, a, slope, k):
            size = int(size)
            num, den = root.as_integer_ratio()
            root = decimal.Decimal(num) / den
            price = decimal.Decimal(p)
            x, q, _ = _run(root, size)
            mismatch = x[-1] / (q * q * price) - 1
            x, q, value = _run(root * (1 - mismatch / decimal.Decimal(float(s))), size)
            error = abs(x[-1] / (q * q * price) - 1)
            if error > _EPS:
                raise RuntimeError(
                    f"uncertified root of size {size} at p = {float(p)!r}: "
                    f"backward error {float(error):.3g} above {float(_EPS):.3g}"
                )
            solved.append((N, p, float(value), size, len(strings) - 1))
            strings += [str(v / q) for v in x]
            strings.append("0")
            if len(strings) > _CHUNK or len(solutions) + len(solved) == len(problems):
                solutions += _solutions(solved, strings)
                solved, strings = [], ["0"]
    return solutions


def check_price(p: float) -> float:
    """p as a float, if the solver takes it as a price: positive, with 1/p finite."""
    if not 0 < p < math.inf:
        raise CycmaxError("p must be positive and finite")
    if not math.isfinite(1.0 / p):
        raise CycmaxError(f"p = {p!r} is too small: 1/p overflows")
    return float(p)


def _check_size(n, name: str) -> int:
    """n as an int, if it is an integer of at least 1: an int or a numpy integer, not a bool."""
    try:
        size = operator.index(n)
    except TypeError:
        size = 0
    if isinstance(n, bool) or size < 1:
        raise CycmaxError(f"{name} must be a positive integer")
    return size


def check_problem(N: int, p: float) -> tuple[int, float]:
    """(N, p) as an int and a float; rejects a chain problem that the solver does not take."""
    return _check_size(N, "N"), check_price(p)


def cyclic_price(n: int) -> float:
    """The price 1/n of the cyclic length n, which must lie in the float range."""
    try:
        return 1.0 / _check_size(n, "n")
    except OverflowError:
        raise CycmaxError(
            f"n is too large: it must lie within the float range (at most {sys.float_info.max:.6g})"
        ) from None


def _winners(problems: list) -> tuple:
    """The winning root of each checked (N, p) of ``problems``, from one batched root solve.

    The right branch of each size of each problem's window is one column
    of a single batched root solve; each problem then keeps its lowest
    value.  Gives whether each problem has a winner, and the winners' a,
    slopes d ln p_k / d ln a and sizes k, in problem order; the solve's
    columns are freed on return, before the winners are certified.
    """
    price = np.array([p for _, p in problems], dtype=LD)
    log_p = np.log(price)
    # ceil(ln(1/p)) + 2 is at most 712 for a float price, so the cap on N
    # changes no bound; it only keeps N inside int64
    bound = np.minimum([min(N, 10**6) for N, _ in problems], np.ceil(-log_p) + _ABOVE_LOG_N).astype(int)
    # m_k rises with k and k - m_k > 1.28 (measured to k = 712, least at
    # k = 10), so the top of the window, the largest size with a root, lies
    # at most 2 below the bound, and the window is the three largest sizes
    # with a root among the five up to it; m reads nan at sizes 0 and 1,
    # which has no root
    k = bound[:, None] - np.arange(_WINDOW + 2)
    m, samples = _records(k[k >= 2])
    root = m[np.maximum(k, 0)] < -log_p[:, None]
    root &= np.cumsum(root, axis=1) <= _WINDOW
    owner, k = np.nonzero(root)[0], k[root]
    # the first ln a sample is ln a*_k; p_k(a) <= a^-k for a >= 1, so
    # p_k < p at ln a = ln 2 - ln p / k
    lo, hi = samples[k, _LOG_A, 0], np.log(LD(2)) - log_p[owner] / k
    start = np.clip(_start(m, samples, k, log_p[owner]), lo, hi)
    x, V, slope = _roots(lo, hi, start, k, price[owner])

    # per problem, the lowest value, the smallest size on a tie; a problem
    # without columns (p >= 1 or N = 1) keeps the point mass, which size 2
    # beats wherever it has a root
    ranked = np.lexsort((k, V, owner))
    cols = ranked[np.diff(owner[ranked], prepend=-1) != 0]
    won = np.zeros(len(problems), dtype=bool)
    won[owner[cols]] = True
    return won.tolist(), np.exp(x[cols]), slope[cols], k[cols]


def _minimize_many(problems: Sequence[tuple[int, float]]) -> list:
    """Minimize the chain sum for every (N, p) of ``problems`` together.

    Gives one ReducedSolution per problem, in problem order: the winners
    of ``_winners`` are certified by one ``_certify`` call, which holds
    one chunk's entry strings at a time, and a problem without a root
    keeps the point mass.
    """
    problems = [check_problem(N, p) for N, p in problems]
    _check_longdouble()
    won, a, slope, k = _winners(problems)
    certified = iter(_certify([problem for problem, w in zip(problems, won) if w], a, slope, k))
    return [next(certified) if w else ReducedSolution(N, p, 1.0 / p, np.ones(1), 0.0) for (N, p), w in zip(problems, won)]


def minimize_chain(N: int, p: float) -> ReducedSolution:
    """Minimize the chain sum over the N-simplex at price p.

    The candidates are the point mass and the positive stationary points
    of the three support sizes just below min(N, ceil(ln(1/p)) + 2) that
    have a root, where the minimum lies (measured; see ``_WINDOW``): the
    right branch of each is solved in longdouble (its left-branch root
    never wins; see the notes above ``_forward``), the lowest value wins,
    and its entries and value are rounded from 40-digit decimals.  The
    40-digit run certifies the winner by its backward error (see
    ``_certify``); a root that fails it raises RuntimeError, since no
    float input is known to.  The solution reads the same bits as in any
    batch of ``_minimize_many``.  Rejects a p so small that 1/p overflows
    a float.
    """
    return _minimize_many([(N, p)])[0]


# ---------------------------------------------------------------------------
# Grid-search oracles


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of given length summing to total.

    Rows are in lexicographic order.  Part by part, ``np.repeat`` expands
    each row once per value of its next part, from 0 up to what the row
    has left, in increasing order; the last part is what is left.
    """
    rest = np.full(1, total, dtype=np.int64)
    columns = []
    for _ in range(parts - 1):
        counts = rest + 1
        part = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        columns = [np.repeat(c, counts) for c in columns]
        columns.append(part)
        rest = np.repeat(rest, counts) - part
    columns.append(rest)
    return np.stack(columns, axis=1)


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
    grid_steps^(N-1), so this is a small-N verification tool.  N and
    grid_steps are positive integers, and p a price ``check_price`` takes.
    """
    if _check_size(N, "N") > 6:
        raise CycmaxError("grid oracle supports N <= 6")
    check_price(p)
    _check_size(grid_steps, "grid_steps")
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
    an upper bound on the true infimum.  n and grid_steps are positive
    integers.
    """
    if _check_size(n, "n") > 4:
        raise CycmaxError("cyclic grid search supports n <= 4")
    _check_size(grid_steps, "grid_steps")
    if n == 1:
        return 1.0
    comp = _compositions(grid_steps, n)
    keep = comp[:, 0] == comp.max(axis=1)
    X = comp[keep].astype(float) / grid_steps
    return _grid_search(X, max_sum_values, grid_steps)
