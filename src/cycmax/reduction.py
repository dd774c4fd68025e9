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
equation on s in (p, 1).  The recurrence is the same for every k and
differs between prices only in its start, so one batched shooting pass
serves a whole chunk of support sizes of many problems (N, p) at once:
the roots are bracketed on a log grid and refined by multisection in
extended precision, all sizes and all problems together; the projected
stationarity residual, also in extended precision, certifies each solve.
Each problem takes its support sizes upward, in chunks of doubling size,
until the value stops improving; a sweep over n solves all its n in the
same passes, round by round.  Independent nested grid searches over the
simplex serve as cross-check oracles at small N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import InadmissiblePair, NonConvergence

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


# Step of the central differences, relative to each coordinate.
FD_REL_STEP = 1e-6


def chain_gradient_fd(x: np.ndarray, p: float) -> np.ndarray:
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
        h = LD(FD_REL_STEP) * x[j]
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        g[j] = (_value_ld(xp, pld) - _value_ld(xm, pld)) / (xp[j] - xm[j])
    return g.astype(float)


def gradient_agreement(x: np.ndarray, p: float) -> float:
    """Normalized mismatch between the analytic and the differenced gradient.

    The analytic gradient is ``_grad_ld``, the one behind every solve's
    stationarity certificate, evaluated here in double precision.
    """
    g_fd = chain_gradient_fd(x, p)
    g = _grad_ld(np.asarray(x, dtype=float), p)
    return float(np.linalg.norm(g_fd - g) / max(np.linalg.norm(g), 1.0))


# ---------------------------------------------------------------------------
# Extended-precision internals (support coordinates, all entries positive)


def _value_ld(x: np.ndarray, p) -> np.longdouble:
    """Chain sum of one support (1-D) or of each column (2-D)."""
    return (x[:-1] / x[1:]).sum(axis=0) + x[-1] / p


def _grad_ld(x: np.ndarray, p) -> np.ndarray:
    """Gradient of the chain sum of one support, in the precision of x."""
    g = np.zeros(len(x), dtype=x.dtype)
    g[:-1] += 1 / x[1:]
    g[-1] += 1 / p
    g[1:] -= x[:-1] / x[1:] ** 2
    return g


def _residual_ld(x: np.ndarray, p) -> float:
    """Norm of the support gradient projected tangent to the sum constraint.

    Evaluated in extended precision: near the optimum the gradient
    components agree to many digits, and the cancellation would otherwise
    swamp the result for small p.
    """
    if len(x) == 1:
        return 0.0
    g = _grad_ld(x, p)
    g = g - g.mean()
    return float(np.sqrt((g * g).sum()))


# ---------------------------------------------------------------------------
# Shooting solve of the first-order system, every support size at once
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
# a scalar root problem on s in (p, 1).
#
# The recurrence from s does not depend on k: step m gives the entry m
# places before the last, and q_0 of support size k is q after k-1 steps.
# Nor does it depend on the problem (N, p) except through p, so columns of
# many problems, each with its own p and lam, run in one shooting pass.
# The kernel clamps q at zero: a column whose q_j turns nonpositive has
# x = 0 from the next step on and stays at q = 0, so q_0 > 0 exactly when
# every q_j stayed positive, and no mask is needed.  Columns are ordered by
# depth, descending, so step m works only on the prefix of columns that
# still run.  A pass costs a fixed number of numpy calls per step whatever
# its width.
#
# Problems are solved in rounds.  Round r takes the r-th chunk of support
# sizes of every problem still running: one pass over the log grids of s
# of all of them samples q_0 of every size of every chunk, the sign-change
# brackets of all sizes are refined together by multisection in extended
# precision, and one more pass over both ends of every bracket gives the
# genuineness test and the entries of the roots.  A problem leaves the
# rounds when its stop rule fires.

# Points of the log grid over [p, 1] on which q_0 is sampled for sign
# changes.  One support size can carry close pairs of stationary points:
# 120 points missed the k = 14 root at n = 372759, 400 split every pair on
# the reference cases.
BRACKET_POINTS = 400

# Bisection levels replayed per refinement pass: each pass shoots the
# 2**_LEVELS - 1 interior points of the bisection tree of every bracket
# and gains _LEVELS bits.
_LEVELS = 4

# Bound on the projected stationarity residual of a converged solve.
STATIONARITY_TOL = 1e-10

# Relative change below which a value does not count as an improvement
# when deciding whether a non-convergent solve is the best one.
_VALUE_RTOL = 1e-12

# The first chunk of support sizes ends at ceil(log(1/p)) + _CHUNK_SLACK.
# The optimal support at p = 1/n is about log(n) + 1, so enumeration
# normally stops inside it; later chunks double in size.
_CHUNK_SLACK = 3


def _shoot(s: np.ndarray, p, depth: np.ndarray, entries: bool = False):
    """Run the recurrence from the trial last entries s, one column each.

    The columns are the entries of s in C order, and p broadcasts against
    s.  Column i starts from s[i] at price p[i] and runs depth[i] steps;
    the columns must come sorted by depth, descending.
    Returns a boolean table of depth[0] rows whose row m-1 tells whether
    q > 0 after m steps, so a column has q_0 > 0 when its row depth-1
    says so, and reached q_0 at all when its row depth-2 does; with
    ``entries``, also the table of x after m steps, the entry m places
    before the last (unnormalized).  Both tables read zero past a column's
    depth.  Running columns stay bounded because q_{j-1} = q_j (1 - lam x_j)
    > 0 forces x_j < 1/lam <= 1, and stopped ones are zero, so nothing can
    overflow.
    """
    steps = int(depth[0]) if len(depth) else 0
    # how many columns still run at steps 1, 2, ..., steps
    live = np.searchsorted(-depth, -np.arange(1, steps + 1), side="right").tolist()
    x = np.array(s, dtype=LD)
    lam = (x / p).ravel()
    q = 1 - x
    q *= x
    q /= p
    q, x = q.ravel(), x.ravel()
    lam_x = np.empty_like(x)
    positive = np.zeros((steps, len(x)), dtype=bool)
    xs = np.zeros((steps, len(x)), dtype=LD) if entries else None
    for m, n in enumerate(live):
        xm, qm, tm = x[:n], q[:n], lam_x[:n]
        xm *= qm
        np.multiply(lam[:n], xm, out=tm)
        qm -= tm
        np.maximum(qm, 0, out=qm)
        np.greater(qm, 0, out=positive[m, :n])
        if entries:
            xs[m, :n] = xm
    return positive, xs


def _refine(lo: np.ndarray, hi: np.ndarray, lo_positive: np.ndarray, depth: np.ndarray, p: np.ndarray):
    """Shrink sign-change brackets of q_0 until their ends are adjacent.

    Brackets are sorted by depth, descending, and each has its own p.
    Each pass shoots the interior points of every bracket's bisection
    tree at once and replays bisection over their signs, so the brackets
    end exactly where plain bisection would leave them.
    """
    parts = 2**_LEVELS
    rows = np.arange(len(lo))
    # the interior points of a bracket are adjacent columns of the shoot
    depth_pts = np.repeat(depth, parts - 1)
    at_depth = (depth_pts - 1, np.arange(len(depth_pts)))
    while True:
        mid = (lo + hi) / 2
        if np.all((mid <= lo) | (mid >= hi)):
            return lo, hi
        # pts[:, i] is the point i/parts of the way from lo to hi, computed
        # by the same halvings bisection would make
        pts = np.empty((len(lo), parts + 1), dtype=LD)
        pts[:, 0], pts[:, parts] = lo, hi
        step = parts // 2
        while step:
            pts[:, step::2 * step] = (pts[:, : -step : 2 * step] + pts[:, 2 * step :: 2 * step]) / 2
            step //= 2
        positive = _shoot(pts[:, 1:parts], p[:, None], depth_pts)[0][at_depth]
        positive = positive.reshape(len(lo), parts - 1)  # column i - 1 holds point i
        a = np.zeros(len(lo), dtype=int)
        b = np.full(len(lo), parts)
        for _ in range(_LEVELS):
            c = (a + b) // 2
            same = positive[rows, c - 1] == lo_positive
            a = np.where(same, c, a)
            b = np.where(same, b, c)
        lo, hi = pts[rows, a], pts[rows, b]


def _grid_brackets(ks: np.ndarray, owner: np.ndarray, ps: np.ndarray, deepest: np.ndarray):
    """Sign-change brackets of q_0 on the log grid.

    Problem j has price ps[j] and deepest support size deepest[j] + 1, and
    the problems come deepest first; row g stands for support size ks[g]
    of problem owner[g].  One shooting pass samples every row.  Gives, per
    bracket, its row, its ends and whether q_0 > 0 at its lower end, in
    the order of the rows.
    """
    t = np.linspace(0, 1, BRACKET_POINTS, dtype=LD)
    grid = ps[:, None] ** (1 - t)
    signs = _shoot(grid, ps[:, None], np.repeat(deepest, BRACKET_POINTS))[0]
    positive = signs.reshape(-1, len(ps), BRACKET_POINTS)[ks - 2, owner]
    rows, cross = np.nonzero(positive[:, :-1] != positive[:, 1:])
    at = owner[rows]
    return rows, grid[at, cross], grid[at, cross + 1], positive[rows, cross]


def _solve_supports(
    chunks: Sequence[tuple[Sequence[int], float]],
) -> list[list[Optional[tuple[np.ndarray, np.longdouble]]]]:
    """Lowest-value positive stationary point of each support size of each chunk.

    A chunk is a pair (ks, p) of ascending support sizes k >= 2 and a
    price.  Gives, per chunk and per k, the longdouble entries (sum 1) and
    their value, or None when no admissible root exists.  All chunks share
    one grid pass, one refinement loop and one final pass.  Brackets whose
    negative end stops before q_0 close on a point where a leading entry
    vanishes, which belongs to a smaller support, and are discarded.
    """
    # deepest chunk first, so that the grid columns are ordered by depth
    order = sorted(range(len(chunks)), key=lambda i: -chunks[i][0][-1])
    ps = np.array([chunks[i][1] for i in order], dtype=LD)
    deepest = np.array([chunks[i][0][-1] - 1 for i in order])
    # one row per (chunk, k), largest k first, so that the brackets come out
    # ordered by depth
    groups = sorted(((k, j) for j, i in enumerate(order) for k in chunks[i][0]), key=lambda g: -g[0])
    ks = np.array([k for k, _ in groups])
    owner = np.array([j for _, j in groups])
    rows, lo, hi, lo_positive = _grid_brackets(ks, owner, ps, deepest)
    depth = ks[rows] - 1
    at = owner[rows]
    lo, hi = _refine(lo, hi, lo_positive, depth, ps[at])
    s_pos = np.where(lo_positive, lo, hi)
    s_neg = np.where(lo_positive, hi, lo)

    # the negative end of a bracket tells whether q_0 was reached, and the
    # positive end, a root, gives the entries
    ends = np.stack([s_neg, s_pos], axis=1)
    signs, xs = _shoot(ends, ps[at, None], np.repeat(depth, 2), entries=True)
    neg = 2 * np.arange(len(depth))
    genuine = np.where(depth > 1, signs[depth - 2, neg], True)

    found = [[None] * len(ks_i) for ks_i, _ in chunks]
    # values are taken one (chunk, k) at a time, on arrays shaped as in a
    # per-size solve: numpy sums a single column pairwise and several row
    # by row, so a wider array could change the last bit
    bounds = np.searchsorted(rows, np.arange(len(groups) + 1)).tolist()
    for (k, j), a, b in zip(groups, bounds, bounds[1:]):
        keep = genuine[a:b]
        if not keep.any():
            continue
        x = np.empty((k, int(keep.sum())), dtype=LD)
        x[-1] = s_pos[a:b][keep]
        x[:-1] = xs[k - 2 :: -1, neg[a:b][keep] + 1]
        x = x / x.sum(axis=0)
        values = _value_ld(x, ps[j])
        best = int(np.argmin(values))
        found[order[j]][k - chunks[order[j]][0][0]] = (x[:, best], values[best])
    return found


def _chunks(p: float, kmax: int) -> Iterator[range]:
    """Support sizes k = 2..kmax in order, in chunks of doubling size.

    A chunk is solved only when the previous one is used up, so a problem
    that stops early wastes at most the rest of one chunk.
    """
    k = 2
    end = min(kmax, max(k, math.ceil(math.log(1.0 / p)) + _CHUNK_SLACK))
    while k <= kmax:
        yield range(k, end + 1)
        k, end = end + 1, min(kmax, end + 2 * (end + 1 - k))


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
    converged: bool = True

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
            "converged": self.converged,
            "oracle_gap": self.oracle_gap,
        }


def _solution(N: int, p: float, x: np.ndarray, value) -> ReducedSolution:
    """The solution with longdouble support entries x, certified against ``STATIONARITY_TOL``."""
    entries = np.asarray(x, dtype=float)
    entries /= entries.sum()
    residual = _residual_ld(x, LD(p))
    return ReducedSolution(
        N=N,
        p=p,
        value=float(value),
        entries=entries,
        stationarity_residual=residual,
        converged=residual <= STATIONARITY_TOL,
    )


class _Run:
    """One problem's walk over its chunks of support sizes, and its best solutions."""

    def __init__(self, N: int, p: float, kmax: int):
        self.N, self.p = N, p
        self.chunks = _chunks(p, kmax)
        self.chunk: Optional[range] = None
        self.best = self.best_conv = _solution(N, p, np.ones(1, dtype=LD), 1.0 / p)

    def advance(self) -> bool:
        """Move to the next chunk; False when none is left."""
        self.chunk = next(self.chunks, None)
        return self.chunk is not None

    def take(self, found) -> bool:
        """Walk a solved chunk in k order; False once the stop rule fires."""
        for item in found:
            if item is None or not item[1] < self.best.value:
                return False
            self.best = _solution(self.N, self.p, *item)
            if self.best.converged:
                self.best_conv = self.best
        return True

    def outcome(self):
        """The best converged solution, or a NonConvergence carrying the best one."""
        slack = abs(self.best.value) * _VALUE_RTOL + 1e-15
        if self.best_conv.value <= self.best.value + slack:
            return self.best_conv
        return NonConvergence(
            f"no support size reached stationarity {STATIONARITY_TOL:g} "
            f"at the best value {self.best.value:.12g}",
            best=self.best,
        )


def _minimize_many(problems: Sequence[tuple[int, float]]) -> list:
    """Minimize the chain sum for every (N, p) of ``problems`` together.

    Each problem walks its support sizes as ``minimize_chain`` describes,
    and all of them share their shooting passes: round r solves the r-th
    chunk of every problem still running, and a problem leaves the rounds
    when its stop rule fires.  Gives, per problem, its ReducedSolution or
    the NonConvergence that ``minimize_chain`` raises.
    """
    runs = []
    for N, p in problems:
        if N < 1:
            raise ValueError("N must be a positive integer")
        if not (p > 0) or not math.isfinite(p):
            raise ValueError("p must be positive and finite")
        if not math.isfinite(1.0 / p):
            raise ValueError(f"p = {p!r} is too small: 1/p overflows")
        runs.append(_Run(N, p, min(N, max(1, math.ceil(1.0 / p)))))

    running = [run for run in runs if run.advance()]
    while running:
        found = _solve_supports([(run.chunk, run.p) for run in running])
        running = [run for run, f in zip(running, found) if run.take(f) and run.advance()]
    return [run.outcome() for run in runs]


def minimize_chain(N: int, p: float) -> ReducedSolution:
    """Minimize the chain sum over the N-simplex at price p.

    Support sizes are enumerated upward from 1, up to min(N, ceil(1/p)),
    the bound past which enlarging the simplex cannot help.  Enumeration
    stops at the first size whose best stationary point has no root or
    does not strictly lower the value.  Sizes are solved in chunks (see
    ``_chunks``); chunking saves shooting passes and never changes which
    size is kept.  The certificate of each solve is its projected
    stationarity residual in extended precision; raises NonConvergence
    (carrying the best solution) only if the best value belongs to a solve
    whose residual exceeds ``STATIONARITY_TOL``.  Rejects a p so small
    that 1/p overflows a float; ``_minimize_many`` solves many at once.
    """
    result = _minimize_many([(N, p)])[0]
    if isinstance(result, NonConvergence):
        raise result
    return result


# ---------------------------------------------------------------------------
# Grid-search oracles


def _chain_values(X: np.ndarray, p: float) -> np.ndarray:
    """Vectorized chain sum over rows of X; inadmissible rows get +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = X[:, :-1] / X[:, 1:]
    terms = np.where(X[:, :-1] == 0, 0.0, ratios)
    return terms.sum(axis=1) + X[:, -1] / p


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


def _per_dim_budget(n_free: int) -> int:
    if n_free <= 0:
        return 1
    m = int(_BOX_BUDGET ** (1.0 / n_free))
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
