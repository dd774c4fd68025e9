"""Reference implementations kept as independent oracles.

The package derives values and shortest maximizing lengths from one O(n)
stack pass (``cycmax.periodic.right_maximal_profile``), Hasse parents
from one walk over the classes (``cycmax.structure.build_poset``), and
solves the right branch of a window of three support sizes of the chain
problem by one batched Newton iteration on a forward recurrence
(``cycmax.reduction.minimize_chain``).  These are the direct definitions
and three chain solvers: both branches of every size with a root, the
right ones by a batched Newton solve from the bracket top and the left
ones by bisection; the backward shooting solve the forward one
replaced, with its own grid brackets and bisection; and the forward
recurrence in mpmath.  The rational backend compares averages by
cross-multiplying integer prefix sums; the ``Fraction`` versions below
sum ``x.values`` themselves and never read that table.  The per-window
forms that the verify suites' scans and the cyclic sums replaced are
kept as they were, with the prop5 suite's draw of one subset per
generator call, and so is the finite-difference gradient taken one
coordinate at a time, the root solve that confirmed each last Newton
step with one more kernel pass, the stationarity residual of one support
vector, and the tuple reader that parsed float documents with
``json.loads`` rather than orjson.
"""

import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional

import mpmath as mp
import numpy as np

from cycmax import reduction
from cycmax.errors import CycmaxError
from cycmax.reduction import FD_REL_STEP, LD, ReducedSolution
from cycmax.periodic import FLOAT, RATIONAL, IndexInterval, PeriodicTuple, _exact_number, interval_average
from cycmax.structure import MIntervalRecord
from cycmax.sums import SubsetCollectionSystem


def scan_right_maximal(x, i: int):
    """Largest window average at left end i and the smallest length attaining it.

    Windows are [i : i+r-1] for r = 1..n; strict comparison keeps the
    first (shortest) maximizer.  Window sums are differences of prefix
    sums of ``x.values``, added up here as the package adds up its table
    (running sums over one period, then the period sum plus each), so
    float results are comparable bit for bit.
    """
    n = x.n
    prefix = [0 * x.values[0]]
    for v in x.values:
        prefix.append(prefix[-1] + v)
    prefix += [prefix[n] + s for s in prefix[1:]]
    i0 = (i - 1) % n
    best, best_r = None, 0
    for r in range(1, n + 1):
        avg = (prefix[i0 + r] - prefix[i0]) / r
        if best is None or avg > best:
            best, best_r = avg, r
    return best, best_r


def scan_profile(x):
    """(values, lengths) of ``scan_right_maximal`` for i = 1..n."""
    pairs = [scan_right_maximal(x, i) for i in range(1, x.n + 1)]
    return [v for v, _ in pairs], [r for _, r in pairs]


def _spans(records: list[MIntervalRecord]) -> list[tuple[int, int]]:
    """The (first, last) index of each class's representative [i : i+kappa]."""
    return [(rec.start, rec.start + rec.kappa) for rec in records]


def _class_contains(parent: tuple[int, int], child: tuple[int, int], n: int) -> bool:
    """Whether some shift of the span ``child`` by a multiple of n lies strictly inside ``parent``."""
    (a, b), (c, d) = parent, child
    return b - a > d - c and any(a <= c + t * n and d + t * n <= b for t in (-1, 0, 1))


def _classes_overlap(one: tuple[int, int], other: tuple[int, int], n: int) -> bool:
    """Whether the two spans share an index (mod shifts)."""
    (a, b), (c, d) = one, other
    return any(c + t * n <= b and a <= d + t * n for t in (-1, 0, 1))


def classes_nest(records: list[MIntervalRecord], n: int) -> bool:
    """Whether every two classes are nested or disjoint (mod shifts)."""
    spans = _spans(records)
    return all(
        _class_contains(a, b, n) or _class_contains(b, a, n) or not _classes_overlap(a, b, n)
        for j, a in enumerate(spans)
        for b in spans[j + 1 :]
    )


def link_parents(records: list[MIntervalRecord], n: int) -> dict[int, Optional[int]]:
    """Hasse parents by smallest strict container, ties to the smaller start.

    Fails an assertion if two classes overlap without one containing the
    other.
    """
    spans = _spans(records)
    parent: dict[int, Optional[int]] = {}
    for span in spans:
        containers = []
        for other in spans:
            if other == span:
                continue
            if _class_contains(other, span, n):
                containers.append((other[1] - other[0], other[0]))
            else:
                assert _class_contains(span, other, n) or not _classes_overlap(span, other, n), (
                    "classes [%d:%d] and [%d:%d] overlap without nesting" % (*span, *other)
                )
        parent[span[0]] = min(containers)[1] if containers else None
    return parent


def json_tuple_from_json(text, backend: str = FLOAT) -> PeriodicTuple:
    """``periodic.tuple_from_json`` as it read every document with ``json.loads``."""
    try:
        doc = json.loads(text, parse_float=_exact_number if backend == RATIONAL else None)
    except (ValueError, RecursionError) as exc:
        raise CycmaxError(str(exc)) from exc
    if not isinstance(doc, dict) or "values" not in doc:
        raise CycmaxError('tuple JSON must be an object with a "values" array')
    values = doc["values"]
    if not isinstance(values, list) or not values:
        raise CycmaxError('"values" must be a nonempty array')
    return PeriodicTuple([_exact_number(v) if isinstance(v, str) else v for v in values], backend=backend)


# ---------------------------------------------------------------------------
# Rational-backend kernels on ``Fraction`` prefix sums of ``x.values``.


def fraction_prefix3(x) -> list:
    """Prefix sums over three periods, p[k] = x_1 + ... + x_k, as Fractions."""
    p = [Fraction(0)]
    for v in x.values * 3:
        p.append(p[-1] + Fraction(v))
    return p


def _fraction_prefix(x, p: list, k: int) -> Fraction:
    q, r = divmod(k, x.n)
    return q * p[x.n] + p[r]


class PoppedProfile(NamedTuple):
    """Values, shortest maximizing lengths, and Hasse parents read off the pops."""

    values: list
    lengths: list[int]
    parents: list[Optional[int]]


def fraction_rising_sun(x) -> PoppedProfile:
    """The rising-sun pass with ``Fraction`` averages and quotient comparisons.

    Over three periods, the point that pops a middle-period start's entry
    begins the smallest window containing that start's window: its Hasse
    parent, found independently of the package's walk over the classes.
    """
    n = x.n
    p = fraction_prefix3(x)
    ends = [0] * n
    poppers: list[Optional[int]] = [None] * n
    stack = [3 * n]
    for k in range(3 * n - 1, -1, -1):
        pk = p[k]
        top = stack[-1]
        best = (p[top] - pk) / (top - k)
        while len(stack) > 1:
            nxt = stack[-2]
            avg = (p[nxt] - pk) / (nxt - k)
            if not avg > best:
                break
            if n <= top < 2 * n:
                poppers[top - n] = k
            stack.pop()
            top, best = nxt, avg
        if k < n:
            ends[k] = top
        stack.append(k)

    values, lengths, parents = [], [], []
    for k in range(n):
        r = min(ends[k] - k, n)
        values.append((p[k + r] - p[k]) / r)
        lengths.append(r)
        popper = poppers[k]
        parents.append(None if r == n or popper is None else popper % n + 1)
    return PoppedProfile(values, lengths, parents)


def fraction_distinct_short_averages(x) -> bool:
    """Whether the averages of [i : i+r-1], r < n, and the mean are pairwise distinct."""
    n = x.n
    p = fraction_prefix3(x)
    seen = {p[n] / n}
    count = 1
    for i in range(n):
        for r in range(1, n):
            seen.add((p[i + r] - p[i]) / r)
            count += 1
    return len(seen) == count


def fraction_has_majorizing_prefixes(x, start: int) -> bool:
    """Every proper prefix sum of the rotation at ``start`` below k times the mean."""
    p = fraction_prefix3(x)
    mean = p[x.n] / x.n
    left = _fraction_prefix(x, p, start - 1)
    for k in range(1, x.n):
        if _fraction_prefix(x, p, start + k - 1) - left >= k * mean:
            return False
    return True


def right_window_system(n: int):
    """The system whose i-th collection holds the windows [i : i+r-1] mod n, r = 1..n.

    With it the generalized sum divides by the right maximal value at i
    itself, not at i + 1.
    """
    return SubsetCollectionSystem(
        [[[(i - 1 + j) % n + 1 for j in range(r)] for r in range(1, n + 1)] for i in range(1, n + 1)]
    )


def fraction_max_subset_average(system, x, i: int) -> Fraction:
    """Largest subset average in the i-th collection, the first on ties."""
    best = None
    for idx in system.collections[i - 1]:
        avg = sum((Fraction(x.values[j - 1]) for j in idx), start=Fraction(0)) / len(idx)
        if best is None or avg > best:
            best = avg
    return best


def fraction_average_table(x) -> list[list[Fraction]]:
    """Averages of [i : i+r-1] for r = 1..n-1 (rows) and i = 1..n (columns)."""
    n = x.n
    p = fraction_prefix3(x)
    return [[(p[i + r] - p[i]) / r for i in range(n)] for r in range(1, n)]


def list_average_table(x) -> list[list[float]]:
    """``structure.average_table`` as lists of floats, built a row at a time.

    A float row is the prefix-sum difference divided by r in numpy, and a
    rational cell divides the integer table sum by r times the common
    denominator, one Python ``int / int`` per cell.
    """
    n = x.n
    if x.backend == FLOAT:
        p = np.array(x._prefix2)
        return [((p[r : r + n] - p[:n]) / r).tolist() for r in range(1, n)]
    p, den = x._prefix2, x._den
    return [[(p[i + r] - p[i]) / (r * den) for i in range(n)] for r in range(1, n)]


# ---------------------------------------------------------------------------
# The per-window forms that the verify suites and the sums replaced: one
# ``IndexInterval`` per window, ``Fraction`` terms added one by one, and
# each window's entries fed to ``math.fsum`` index by index.


def interval_scan_right_maximal(x, i: int, r_max: int):
    """Largest average of [i : i+r-1] over r = 1..r_max and the shortest r attaining it."""
    best, best_r = None, 0
    for r in range(1, r_max + 1):
        avg = interval_average(x, IndexInterval(i, i + r - 1))
        if best is None or avg > best:
            best, best_r = avg, r
    return best, best_r


def fraction_generalized_max_sum(x, system):
    """sum_i x_i / (largest subset average in the i-th collection), term by term."""
    if system.n != x.n:
        raise CycmaxError("system size must match tuple length")
    total = 0 * x.values[0]
    for i in range(1, x.n + 1):
        m = system.max_subset_average(x, i)
        if m == 0:
            raise CycmaxError(f"all subset averages at index {i} are zero")
        total += x.values[i - 1] / m
    return total


def fsum_sum_with_radii(x, r):
    """S(x, r), each float window summed by ``math.fsum`` over its entries index by index."""
    if len(r) != x.n:
        raise CycmaxError(f"expected {x.n} radii, got {len(r)}")
    n = x.n
    period = math.fsum(x.values) if x.backend == "float" else None
    total = 0 * x.values[0]
    for i in range(1, n + 1):
        length = r.radii[i - 1]
        if period is None:
            denom = interval_average(x, IndexInterval(i + 1, i + length))
        else:
            q, rest = divmod(length, n)
            denom = math.fsum([q * period, *(x.values[(i + j) % n] for j in range(rest))]) / length
        if denom == 0:
            raise CycmaxError(f"window of length {length} after index {i} sums to zero")
        total += x.values[i - 1] / denom
    return total


def crossing_defects(records, n: int) -> list[str]:
    """The pairs of classes whose representatives, shifted by -n, 0 or n, overlap without nesting."""
    defects = []
    spans = [(rec.start, rec.start + rec.kappa) for rec in records]
    for a, b in spans:
        for c0, d0 in spans:
            if a >= c0:
                continue
            for c, d in ((c0 - n, d0 - n), (c0, d0), (c0 + n, d0 + n)):
                overlap = c <= b and a <= d
                nested = (a <= c and d <= b) or (c <= a and b <= d)
                if overlap and not nested:
                    defects.append(f"{IndexInterval(a, b)} and {IndexInterval(c, d)} overlap without nesting")
    return defects


def choice_hypothesis_system(rng: np.random.Generator, n: int) -> SubsetCollectionSystem:
    """The prop5 suite's random system drawn with one ``rng.choice`` call per extra subset."""
    everything = list(range(1, n + 1))
    collections = []
    for i in range(1, n + 1):
        subsets = [everything]
        if i == 1:
            subsets.append([1])
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(1, n + 1))
            subsets.append(sorted(rng.choice(n, size=size, replace=False) + 1))
        collections.append(subsets)
    return SubsetCollectionSystem(collections)


# ---------------------------------------------------------------------------
# The finite-difference gradient one coordinate at a time, as
# ``cycmax.reduction.chain_gradient_fd`` took it before it moved all its
# points as the rows of one batched chain sum.


def loop_chain_gradient_fd(x, p):
    """Central differences of the chain sum, one coordinate per longdouble pass."""
    x = np.asarray(x, dtype=float).astype(LD)
    pld = LD(p)
    g = np.zeros(len(x), dtype=LD)
    for j in range(len(x)):
        h = LD(FD_REL_STEP) * x[j]
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        up = (xp[:-1] / xp[1:]).sum() + xp[-1] / pld
        down = (xm[:-1] / xm[1:]).sum() + xm[-1] / pld
        g[j] = (up - down) / (xp[j] - xm[j])
    return g.astype(float)


# ---------------------------------------------------------------------------
# The stationarity residual of one support vector, as
# ``cycmax.reduction`` took it winner by winner before it took the
# residuals of a chunk of winners from one flat array.


def residual_ld(x, p) -> float:
    """Norm of the chain sum's gradient at x projected tangent to the sum constraint, in the precision of x."""
    g = np.empty(len(x), dtype=x.dtype)
    g[:-1] = 1 / x[1:]
    g[-1] = 1 / p
    g[1:] -= x[:-1] / x[1:] ** 2
    g -= g.sum() / len(g)
    return float(np.sqrt((g * g).sum()))


# ---------------------------------------------------------------------------
# Grid enumeration of the simplex, by recursion on the first coordinate.


def compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for first in range(total + 1):
        rest = compositions(total - first, parts - 1)
        block = np.empty((len(rest), parts), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# Chain minimization over every branch of every support size with a root.
#
# ``cycmax.reduction`` solves only the right branch of a window of three
# sizes around ln(1/p), each root from a start interpolated in its size's
# samples.  Here every size with m_k < ln(1/p), up to N, is solved on both
# branches: the right root by one batched Newton solve started at the
# bracket top, ``two_pass_roots`` unless another is passed, and the left
# root, where p_k rises from p_k(_A_MIN) < p to its peak, by bisection in
# ln a down to adjacent floats.  The lowest value wins.  Like the solver,
# both take and give ln a.


def left_roots(lo, hi, k, p):
    """Roots in ln a of p_k(a) = p where p_k rises over [lo, hi], by bisection in ln a.

    The brackets are in ln a; gives the ln a at the lower end of the final
    bracket, whose ends are adjacent
    floats, and V_k and d ln p_k / d ln a there, as ``two_pass_roots``
    gives its roots.
    """
    while True:
        mid = (lo + hi) / 2
        inside = (lo < mid) & (mid < hi)
        if not inside.any():
            _, slope, V, _ = reduction._forward(np.exp(lo), k)
            return lo, V, slope
        below = reduction._forward(np.exp(mid), k)[0] < p
        lo = np.where(inside & below, mid, lo)
        hi = np.where(inside & ~below, mid, hi)


# Newton step in ln a below which ``two_pass_roots`` takes a root as found.
TWO_PASS_ROOT_STEP = LD(2.0**-50)


def two_pass_roots(lo, hi, x, k, p):
    """Roots in ln a of p_k(a) = p on right-branch brackets [lo, hi], as ``reduction._roots``.

    Safeguarded Newton in ln a, as rtsafe: a Newton step is taken only
    where it stays inside the bracket and is at most half the step before
    last, and the bracket is halved otherwise.  A column stops only once
    its Newton step falls to TWO_PASS_ROOT_STEP, keeping the ln a of
    that pass, so a warm root takes a second pass to confirm the first
    step.  Gives ln a, V_k and d ln p_k / d ln a at the roots, all from that
    pass.  The reference for ``reduction._roots``, which takes a short
    enough step without that pass and moves V_k to the root along -q_k.
    """
    V, slope = np.empty_like(x), np.empty_like(x)
    step = hi - lo
    step_old = step.copy()
    run = np.arange(len(x))
    while len(run):
        price, dh, V[run], _ = reduction._forward(np.exp(x[run]), k[run])
        slope[run] = dh
        xr, lor, hir = x[run], lo[run], hi[run]
        h = np.log(price / p[run])
        lor = lo[run] = np.where(h > 0, xr, lor)
        hir = hi[run] = np.where(h < 0, xr, hir)
        s = -h / np.where(dh < 0, dh, -1)
        found = (h == 0) | ((dh < 0) & (abs(s) <= TWO_PASS_ROOT_STEP))
        new = xr + s
        newton = (dh < 0) & (2 * abs(s) <= abs(step_old[run])) & (lor < new) & (new < hir)
        new = np.where(newton, new, (lor + hir) / 2)
        done = found | (new <= lor) | (new >= hir)
        step_old[run] = step[run]
        step[run] = new - xr
        run = run[~done]
        x[run] = new[~done]
    return x, V, slope


# Halvings that take ln a from [ln _A_MIN, 0], 45 wide, to within 1e-12.
PEAK_HALVINGS = 46


def bisect_peaks(k):
    """a*_k and m_k of each size k by PEAK_HALVINGS bisection steps.

    Bisects ln a over [ln _A_MIN, 0] on the sign of d ln p_k / d ln a,
    keeping the lower end, so a*_k stays _A_MIN where ln p_k only falls;
    m_k is -ln p_k there.  The reference for ``reduction._peaks``, the Newton search that replaced it.
    """
    lo = np.full(len(k), reduction._A_MIN)
    hi = np.ones(len(k), dtype=LD)
    for _ in range(PEAK_HALVINGS):
        mid = np.sqrt(lo * hi)
        rising = reduction._forward(mid, k)[1] > 0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    return lo, -np.log(reduction._forward(lo, k)[0])


def all_size_roots(problems, solve=two_pass_roots) -> dict:
    """Every root of every size with one, up to N, of each of ``problems``.

    The right roots come from ``solve``, a root solve with the arguments
    and results of ``reduction._roots``, run once on every size of every
    problem from the bracket tops.  Gives the columns of the right roots,
    then those of the left roots: ``owner`` (the problem's index), ``k``,
    ``left`` (whether the root lies left of a*_k), the root's ``log_a``,
    the value ``V`` and the slope d ln p_k / d ln a there.
    """
    price = np.array([p for _, p in problems], dtype=LD)
    log_p = np.log(price)
    # m_k rises by more than 0.98 a size from m_2 = 0, so no size past K has a root
    K = int(max(2, min(max(min(N, 10**6) for N, _ in problems), 3 - log_p.min() / 0.98)))
    sizes = np.arange(2, K + 1)
    m, samples = reduction._records(sizes)
    log_peak = samples[:, reduction._LOG_A, 0]
    floor = np.zeros(K + 1, dtype=LD)
    floor[sizes] = np.log(reduction._forward(np.full(len(sizes), reduction._A_MIN), sizes)[0])
    assert m[K] >= -log_p.min() or K >= max(N for N, _ in problems)
    owner, k = [], []
    for i, (N, p) in enumerate(problems):
        sizes = np.arange(2, min(N, K) + 1)
        sizes = sizes[m[sizes] < -log_p[i]]
        owner.append(np.full(len(sizes), i))
        k.append(sizes)
    owner, k = np.concatenate(owner), np.concatenate(k)
    top = np.log(LD(2)) - log_p[owner] / k
    x, V, slope = solve(log_peak[k], top, top.copy(), k, price[owner])
    left = floor[k] < log_p[owner]
    x_left, V_left, slope_left = left_roots(
        np.full(left.sum(), np.log(reduction._A_MIN)), log_peak[k[left]], k[left], price[owner[left]]
    )
    return {
        "owner": np.concatenate([owner, owner[left]]),
        "k": np.concatenate([k, k[left]]),
        "left": np.repeat([False, True], [len(x), len(x_left)]),
        "log_a": np.concatenate([x, x_left]),
        "V": np.concatenate([V, V_left]),
        "slope": np.concatenate([slope, slope_left]),
    }


def minimize_all_sizes(problems) -> list:
    """The lowest of ``all_size_roots`` per problem, as ``reduction._minimize_many`` gives it.

    Gives, per problem, its ReducedSolution.
    """
    roots = all_size_roots(problems)
    owner, k, x, V, slope = (roots[name] for name in ("owner", "k", "log_a", "V", "slope"))
    best = {}
    for c in np.lexsort((k, V, owner)).tolist():
        best.setdefault(int(owner[c]), c)
    cols = [best[i] for i in sorted(best)]
    certified = iter(reduction._certify([problems[i] for i in sorted(best)], np.exp(x[cols]), slope[cols], k[cols]))
    return [next(certified) if i in best else point_mass(N, p) for i, (N, p) in enumerate(problems)]


def point_mass(N: int, p: float) -> ReducedSolution:
    """The solution with all mass on the last entry, worth 1/p."""
    return ReducedSolution(N, p, 1.0 / p, np.ones(1), 0.0)


# ---------------------------------------------------------------------------
# Chain minimization one support size at a time, by backward shooting.
#
# Fixing the last entry s of the support, the first-order conditions run
# back to front: lam = s/p, q_{k-1} = s(1-s)/p, x_{j-1} = q_j x_j and
# q_{j-1} = q_j - lam x_{j-1}, and size k is stationary where q_0(s) = 0.
# Roots are bracketed on a log grid of s over [p, 1] and bisected to
# adjacent floats; the walk over k stops at the first size with no root
# or no lower value.  Close pairs of roots can fall inside one grid cell,
# so from n ~ 2.9e9 on it misses the optimal size; below that it agrees
# with ``cycmax.reduction.minimize_chain``.


# Points of the log grid over [p, 1] on which q_0 is sampled for sign
# changes.  One support size can carry close pairs of stationary points:
# 120 points missed the k = 14 root at n = 372759; 400 split every pair on
# the reference cases below n ~ 2.9e9.
BRACKET_POINTS = 400


def shoot(s, k: int, p):
    """Entries (k, len(s)), q_0 (or the early-stopped q_j) and ``reached``."""
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


def positive(s, k: int, p):
    """Whether ``shoot`` reads q_0 > 0, without keeping the entries.

    A q_j <= 0 at j >= 1 is clamped to 0, which keeps every later q_j at 0,
    so the column reads as ``shoot``'s early stop does.
    """
    lam = s / p
    q = s * (1 - s) / p
    x = s.copy()
    for j in range(k - 1, 0, -1):
        x *= q
        q -= lam * x
        if j > 1:
            np.maximum(q, 0, out=q)
    return q > 0


def bisect(lo, hi, k: int, p):
    """Shrink sign-change brackets of q_0 until their ends are adjacent."""
    lo_positive = positive(lo, k, p)
    while True:
        mid = (lo + hi) / 2
        if np.all((mid <= lo) | (mid >= hi)):
            return lo, hi
        same = positive(mid, k, p) == lo_positive
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)


def solve_support(k: int, p: float):
    """Lowest-value admissible root of support size k >= 2, or None."""
    pld = LD(p)
    t = np.linspace(0, 1, BRACKET_POINTS, dtype=LD)
    grid = pld ** (1 - t)
    positive = shoot(grid, k, pld)[1] > 0
    cross = np.nonzero(positive[:-1] != positive[1:])[0]
    if len(cross) == 0:
        return None
    lo, hi = bisect(grid[cross], grid[cross + 1], k, pld)
    lo_positive = positive[cross]
    s_pos = np.where(lo_positive, lo, hi)
    s_neg = np.where(lo_positive, hi, lo)
    genuine = shoot(s_neg, k, pld)[2]
    if not genuine.any():
        return None
    x = shoot(s_pos[genuine], k, pld)[0]
    x = x / x.sum(axis=0)
    values = (x[:-1] / x[1:]).sum(axis=0) + x[-1] / pld
    best = int(np.argmin(values))
    return x[:, best], values[best]


def minimize_by_support(N: int, p: float) -> ReducedSolution:
    """``minimize_chain`` walking k = 2, 3, ... with ``solve_support``."""
    kmax = min(N, max(1, math.ceil(1.0 / p)))
    best = point_mass(N, p)
    for k in range(2, kmax + 1):
        found = solve_support(k, p)
        if found is None or not found[1] < best.value:
            break
        x, value = found
        best = ReducedSolution(N, p, float(value), x.astype(float), residual_ld(x, LD(p)))
    return best


# ---------------------------------------------------------------------------
# The forward recurrence one support size at a time, in mpmath.
#
# ``cycmax.reduction`` runs the recurrence in longdouble for every size of
# every problem at once, takes the peak of ln p_k from a table and solves
# the right branches by one batched Newton iteration.  Here each size runs
# alone at MP_DPS digits: the peak by halvings and secant steps in ln a on
# the derivative, each monotone branch's root by bisection and Newton steps.

MP_DPS = 50

# Lower end of the search in a, below which ln p_k is flat in longdouble.
MP_A_MIN = mp.mpf(2) ** -65


def mp_of(x):
    """A longdouble (or float) as an exact mpf; compare it inside mp.workdps(MP_DPS)."""
    num, den = x.as_integer_ratio()
    with mp.workdps(MP_DPS):
        return mp.mpf(num) / den


def mp_forward(a, k: int, slope: bool = True, values: bool = True):
    """p_k(a), d ln p_k / d ln a, V_k(a) and the entries of size k, as mpf.

    Without ``slope`` the derivative is skipped and reads None; without
    ``values`` the value and the entries are, and read None.
    """
    q, u, Q, U = mp.mpf(0), mp.mpf(a), mp.mpf(0), mp.mpf(1)
    value, us = mp.mpf(0), []
    for j in range(1, k + 1):
        if values:
            us.append(u)
        if slope:
            qQ = q * Q + u * U
        q += u
        if values:
            value += q
        if slope:
            Q = qQ / q
        if j < k:
            if slope:
                U -= Q
            u /= q
    if not values:
        return u / q**2, U - 2 * Q if slope else None, None, None
    return u / q**2, U - 2 * Q if slope else None, value, [v / q for v in us]


def mp_peak(k: int):
    """(ln a*_k, ln p_k(a*_k)): where ln p_k peaks on [MP_A_MIN, oo), and its top.

    Where the slope d ln p_k / d ln a is positive at MP_A_MIN, halvings on
    its sign bracket its zero to within 1 in ln a, and secant steps, each
    kept inside the bracket, take it on until they move less than 1e-30.
    """
    with mp.workdps(MP_DPS):

        def slope(t):
            return mp_forward(mp.exp(t), k, values=False)[1]

        lo, hi = mp.log(MP_A_MIN), mp.mpf(0)
        t, s_lo = lo, slope(lo)
        if s_lo > 0:
            s_hi = slope(hi)
            while hi - lo > 1:
                mid = (lo + hi) / 2
                s = slope(mid)
                if s > 0:
                    lo, s_lo = mid, s
                else:
                    hi, s_hi = mid, s
            prev, s_prev, t, s = lo, s_lo, hi, s_hi
            while abs(t - prev) > mp.mpf(10) ** -30 and s != 0:
                new = t - s * (t - prev) / (s - s_prev)
                if not lo < new < hi:
                    new = (lo + hi) / 2
                prev, s_prev, t = t, s, new
                s = slope(t)
                if s > 0:
                    lo = t
                else:
                    hi = t
        return t, mp.log(mp_forward(mp.exp(t), k, slope=False, values=False)[0])


def mp_stationary_points(k: int, p: float) -> list:
    """(value, entries) of each stationary point of size k >= 2 at price p.

    Each monotone branch that changes sign is bracketed by halvings in
    ln a to within 1, and Newton steps from its middle, each kept inside
    the bracket, take the root on until a step is less than 1e-30; that
    last step is taken too.
    """
    with mp.workdps(MP_DPS):
        p = mp.mpf(p)
        peak, top = mp_peak(k)

        def level(t, slope=False):
            price, dlevel, _, _ = mp_forward(mp.exp(t), k, slope, values=False)
            return mp.log(price / p), dlevel

        brackets = []
        if top > mp.log(p):
            brackets.append((peak, mp.log(2) - mp.log(p) / k))
            if level(mp.log(MP_A_MIN))[0] < 0:
                brackets.append((mp.log(MP_A_MIN), peak))
        points = []
        for lo, hi in brackets:
            low_negative = level(lo)[0] < 0
            while hi - lo > 1:
                mid = (lo + hi) / 2
                if (level(mid)[0] < 0) == low_negative:
                    lo = mid
                else:
                    hi = mid
            t = (lo + hi) / 2
            while True:
                h, dh = level(t, slope=True)
                step = h / dh
                if abs(step) < mp.mpf(10) ** -30:
                    break
                if (h < 0) == low_negative:
                    lo = t
                else:
                    hi = t
                t = t - step if lo < t - step < hi else (lo + hi) / 2
            t -= step
            assert abs(level(t)[0]) < mp.mpf(10) ** (5 - MP_DPS)
            _, _, value, entries = mp_forward(mp.exp(t), k, slope=False)
            points.append((value, entries))
        return points


def mp_minimize(p: float, sizes) -> tuple:
    """(k, value, entries) of the lowest stationary point over the given sizes."""
    best = None
    for k in sizes:
        for value, entries in mp_stationary_points(k, p):
            if best is None or value < best[1]:
                best = (k, value, entries)
    return best
