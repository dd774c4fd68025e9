"""Seeded self-check suites.

Each suite draws its own randomness from a seeded generator and returns
a list of check results, so a run is reproducible byte for byte given
the seed.  The CLI ``verify`` command prints one line per check; the
acceptance tests call the same functions, so both run the same trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import CycmaxError
from .periodic import (
    IndexInterval,
    PeriodicTuple,
    interval_average,
    right_maximal,
    right_maximal_profile,
)
from .structure import (
    all_m_intervals,
    build_poset,
    distinct_short_averages,
    full_maximal_start,
    has_majorizing_prefixes,
)
from .sums import (
    RadiusTuple,
    SubsetCollectionSystem,
    generalized_max_sum,
    max_avg_sum,
    sum_with_radii,
)
from .reduction import (
    _minimize_many,
    cyclic_bruteforce,
    gradient_agreement,
    minimize_chain,
    t_chain,
    t_noncyclic,
)

# The worked 10-entry example used as a fixed regression vector.
REFERENCE_TUPLE = (1.2, 2.3, 3.5, 1.8, 1.6, 2.4, 3.0, 3.2, 1.1, 2.5)


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.suite}.{self.name}: {self.detail}"


def _slices(values: list, sizes: list):
    """Consecutive slices of ``values`` of the given sizes, one at a time."""
    start = 0
    for n in sizes:
        yield values[start : start + n]
        start += n


# Each sampler below draws a whole suite's tuples in two generator calls,
# the sizes and then every entry, and builds the tuples one at a time as
# the suite reads them; the sizes come back as an array, from which a
# suite draws its per-trial scalars in one call each.


def _float_tuples(rng: np.random.Generator, count: int, max_n: int):
    """``count`` float tuples, of sizes uniform in 2..max_n and entries uniform in [0.05, 10), and their sizes."""
    sizes = rng.integers(2, max_n + 1, size=count)
    values = rng.uniform(0.05, 10.0, size=int(sizes.sum())).tolist()
    return (PeriodicTuple(v, backend="float") for v in _slices(values, sizes.tolist())), sizes


def _rational_tuples(rng: np.random.Generator, count: int):
    """``count`` rational tuples, of sizes uniform in 3..12 and integer entries uniform in 1..10**6 - 1, and their sizes."""
    sizes = rng.integers(3, 13, size=count)
    values = rng.integers(1, 10**6, size=int(sizes.sum())).tolist()
    return (PeriodicTuple(v, backend="rational") for v in _slices(values, sizes.tolist())), sizes


def _generic_tuples(rng: np.random.Generator, count: int):
    """``count`` rational tuples whose short window averages are pairwise distinct.

    A drawn tuple with two equal averages is drawn again, alone, until it
    has none, so each tuple follows the conditional distribution.
    """
    tuples, _ = _rational_tuples(rng, count)
    return (x if distinct_short_averages(x) else next(_generic_tuples(rng, 1)) for x in tuples)


def _tied_tuples(rng: np.random.Generator, count: int):
    """``count`` rational tuples of sizes uniform in 1..16 and entries uniform in 0..3, so many window averages tie.

    An all-zero draw is drawn again, alone, until it is not.
    """
    sizes = rng.integers(1, 17, size=count).tolist()
    values = rng.integers(0, 4, size=sum(sizes)).tolist()
    return (
        PeriodicTuple(v, backend="rational") if any(v) else next(_tied_tuples(rng, 1))
        for v in _slices(values, sizes)
    )


def _simplex_points(rng: np.random.Generator, sizes: np.ndarray) -> list[np.ndarray]:
    """Uniform points of the simplices of the given sizes, Dirichlet(1, ..., 1): normalized standard exponentials."""
    ends = np.cumsum(sizes)
    e = rng.standard_exponential(int(ends[-1]))
    e /= np.repeat(np.add.reduceat(e, ends - sizes), sizes)
    return np.split(e, ends[:-1])


def _brute_right_maximal(x: PeriodicTuple, i: int, r_max: int):
    """Largest average of [i : i+r-1] over r = 1..r_max, i >= 1, and the shortest r attaining it.

    Floats divide table differences as ``interval_average`` does; rational ones cross-multiply.
    """
    t = x._prefix2[i - 1 :] + [x._table(k) for k in range(2 * x.n + 1, i + r_max)]
    if x._den is None:
        averages = [(t[r] - t[0]) / r for r in range(1, r_max + 1)]
        best = max(averages)  # the first of equal maxima
        return best, averages.index(best) + 1
    best, best_r = t[1] - t[0], 1
    for r in range(2, r_max + 1):
        if (t[r] - t[0]) * best_r > best * r:
            best, best_r = t[r] - t[0], r
    return x._ratio(best, best_r), best_r


# ---------------------------------------------------------------------------


def suite_periodic(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    trials = 200

    bad = 0
    tuples, sizes = _float_tuples(rng, trials, max_n=20)
    starts = rng.integers(1, sizes + 1).tolist()
    lengths = rng.integers(1, sizes + 1).tolist()
    shifts = rng.integers(-3, 4, size=trials).tolist()
    for x, i, r, k in zip(tuples, starts, lengths, shifts):
        iv = IndexInterval(i, i + r - 1)
        a = interval_average(x, iv)
        b = interval_average(x, iv.shifted(k * x.n))
        if abs(a - b) > 1e-12 * max(abs(a), 1.0):
            bad += 1
    results.append(
        CheckResult("periodic", "shift-equivalence-float", bad == 0, f"{trials} random intervals, {bad} mismatches")
    )

    bad = 0
    tuples, sizes = _rational_tuples(rng, trials // 4)
    starts = rng.integers(1, sizes + 1).tolist()
    lengths = rng.integers(1, sizes + 1).tolist()
    for x, i, r in zip(tuples, starts, lengths):
        iv = IndexInterval(i, i + r - 1)
        if interval_average(x, iv) != interval_average(x, iv.shifted(7 * x.n)):
            bad += 1
    results.append(
        CheckResult("periodic", "shift-equivalence-exact", bad == 0, f"{trials // 4} rational intervals, {bad} mismatches")
    )

    bad = 0
    tuples, sizes = _float_tuples(rng, trials, max_n=16)
    for x, i in zip(tuples, rng.integers(1, sizes + 1).tolist()):
        short = right_maximal(x, i)
        wide, _ = _brute_right_maximal(x, i, 3 * x.n)
        if wide > short + 1e-12 * max(abs(short), 1.0):
            bad += 1
    results.append(
        CheckResult("periodic", "window-range-sufficiency", bad == 0, f"windows to 3n never beat windows to n ({trials} trials, {bad} failures)")
    )

    bad = 0
    tuples, sizes = _float_tuples(rng, trials, max_n=20)
    for x, i in zip(tuples, rng.integers(1, sizes + 1).tolist()):
        m = right_maximal(x, i)
        lo, hi = min(x.values), max(x.values)
        if not (lo - 1e-12 <= m <= hi + 1e-12):
            bad += 1
        if abs(m - right_maximal(x, i + x.n)) > 1e-12 * max(abs(m), 1.0):
            bad += 1
    results.append(
        CheckResult("periodic", "bounds-and-periodicity", bad == 0, f"{trials} trials, {bad} failures")
    )

    bad = 0
    for x in _tied_tuples(rng, trials // 4):
        prof = right_maximal_profile(x)
        brute = [_brute_right_maximal(x, i, x.n) for i in range(1, x.n + 1)]
        if list(zip(prof.values, prof.lengths)) != brute:
            bad += 1
    results.append(
        CheckResult("periodic", "shortest-window-exact", bad == 0, f"{trials // 4} tied rational tuples, {bad} mismatches")
    )
    return results


def suite_prop4(rng: np.random.Generator) -> list[CheckResult]:
    """Minimum of the right maximal values equals the period mean."""
    results = []
    floats, rationals = 1000, 200
    worst = 0.0
    tuples, _ = _float_tuples(rng, floats, max_n=50)
    for x in tuples:
        values = right_maximal_profile(x).values
        gap = abs(min(values) - x.average) / max(abs(x.average), 1.0)
        worst = max(worst, gap)
    results.append(
        CheckResult("prop4", "min-maximal-equals-mean-float", worst <= 1e-12, f"{floats} tuples, worst relative gap {worst:.2e}")
    )

    bad = 0
    tuples, _ = _rational_tuples(rng, rationals)
    for x in tuples:
        values = right_maximal_profile(x).values
        if min(values) != x.average:
            bad += 1
    results.append(
        CheckResult("prop4", "min-maximal-equals-mean-exact", bad == 0, f"{rationals} rational tuples, {bad} failures")
    )
    return results


def _poset_checks_one(x: PeriodicTuple) -> list[str]:
    """Structural defects of the interval order for one generic tuple."""
    defects = []
    poset = build_poset(x)
    n = x.n

    # representatives in one period window must be disjoint or nested; the
    # spans are in start order, and for a < c only the shifts of [c:d] by
    # -n and 0 can cross [a:b], as c + n > b
    spans = [(rec.start, rec.start + rec.kappa) for rec in poset.nodes.values()]
    for j, (a, b) in enumerate(spans):
        for c, d in spans[j + 1 :]:
            if a <= d - n < b:
                defects.append(f"[{a}:{b}] and [{c - n}:{d - n}] overlap without nesting")
            if c <= b < d:
                defects.append(f"[{a}:{b}] and [{c}:{d}] overlap without nesting")

    if not poset.is_tree():
        defects.append("inclusion order is not a tree")
    for child, parent in poset.parent.items():
        if parent is None:
            continue
        if not poset.nodes[child].average > poset.nodes[parent].average:
            defects.append(f"average not order-reversing at {child}->{parent}")
    if poset.root is not None:
        root = poset.nodes[poset.root]
        if root.average != x.average:
            defects.append("root average differs from period mean")
    full = [r for r in poset.nodes.values() if r.kappa == n - 1]
    if len(full) != 1:
        defects.append(f"{len(full)} full-length classes")
    return defects


def suite_poset(rng: np.random.Generator) -> list[CheckResult]:
    results = []

    x0 = PeriodicTuple(list(REFERENCE_TUPLE))
    recs = {r.start: (r.kappa, round(float(r.average), 3)) for r in all_m_intervals(x0)}
    expected = {
        1: (7, 2.375), 2: (1, 2.9), 3: (0, 3.5), 4: (4, 2.4), 5: (3, 2.55),
        6: (2, 2.867), 7: (1, 3.1), 8: (0, 3.2), 9: (9, 2.26), 10: (0, 2.5),
    }
    p0 = build_poset(x0)
    ok = (
        recs == expected
        and p0.root == 9
        and p0.chain_to_root(8) == [8, 7, 6, 5, 4, 1, 9]
        and {3, 8} <= set(p0.minimal_elements())
    )
    results.append(
        CheckResult("poset", "reference-tuple-structure", ok, f"classes {recs == expected}, root {p0.root}, minimal {p0.minimal_elements()}")
    )

    trials = 200
    defect_count = 0
    for x in _generic_tuples(rng, trials):
        defects = _poset_checks_one(x)
        if defects:
            defect_count += 1
    results.append(
        CheckResult("poset", "generic-rational-structure", defect_count == 0, f"{trials} generic tuples, {defect_count} with defects")
    )
    return results


def suite_rotation(rng: np.random.Generator) -> list[CheckResult]:
    trials = 200
    bad = 0
    for x in _generic_tuples(rng, trials):
        hits = [i for i in range(1, x.n + 1) if has_majorizing_prefixes(x, i)]
        if len(hits) != 1 or hits[0] != full_maximal_start(x):
            bad += 1
    return [
        CheckResult("rotation", "unique-majorizing-rotation", bad == 0, f"{trials} generic tuples, {bad} failures")
    ]


def _random_hypothesis_system(rng: np.random.Generator, n: int) -> SubsetCollectionSystem:
    """Random system containing the full set everywhere and {1} at index 1.

    Each index also gets 0 to 3 extra subsets, each of a size uniform in
    1..n and uniform among the subsets of that size: the first entries of
    a random permutation of 1..n, drawn as the argsort of uniform keys.
    The whole system takes three generator calls.
    """
    extras = rng.integers(0, 4, size=n).tolist()
    sizes = rng.integers(1, n + 1, size=sum(extras)).tolist()
    orders = (np.argsort(rng.random((len(sizes), n)), axis=1) + 1).tolist()
    drawn = iter([sorted(order[:size]) for order, size in zip(orders, sizes)])
    everything = list(range(1, n + 1))
    collections = []
    for i, extra in enumerate(extras, start=1):
        subsets = [everything, [1]] if i == 1 else [everything]
        subsets.extend(islice(drawn, extra))
        collections.append(subsets)
    return SubsetCollectionSystem(collections)


def suite_prop5(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    trials = 100
    bad_upper = 0
    bad_lower = 0
    for n in rng.integers(4, 11, size=trials).tolist():
        system = _random_hypothesis_system(rng, n)
        for eps in (Fraction(1, 1000), Fraction(1, 10**6)):
            x = PeriodicTuple([Fraction(1)] + [eps] * (n - 1), backend="rational")
            value = generalized_max_sum(x, system)
            if value > 1 + (n - 1) * n * eps:
                bad_upper += 1
            if value < 1:
                bad_lower += 1
    results.append(
        CheckResult("prop5", "spiked-tuple-upper-bound", bad_upper == 0, f"{trials} systems x 2 epsilons, {bad_upper} bound violations")
    )
    results.append(
        CheckResult("prop5", "lower-bound-one", bad_lower == 0, f"{bad_lower} values below 1")
    )
    return results


def suite_reduced(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    exact = [
        (1, 1.0, 1.0),
        (2, 0.5, 2.0 * math.sqrt(2.0) - 1.0),
        (3, 1.0 / 3.0, 2.0 * math.sqrt(3.0) - 1.0),
    ]
    trivial = (1.0, 1.5, 4.0)
    caps = {p: math.ceil(1.0 / p) for p in (0.5, 0.2, 0.1, 0.05, 0.01)}
    samples = {p: sorted(set([1, 2, 3, max(1, cap // 2), cap, cap + 5])) for p, cap in caps.items()}
    # every distinct (N, p) the checks read, solved together once
    problems = list(dict.fromkeys(
        [(N, p) for N, p, _ in exact]
        + [(6, p) for p in trivial]
        + [(N, p) for p, sizes in samples.items() for N in sizes]
    ))
    solved = dict(zip(problems, _minimize_many(problems)))

    worst = 0.0
    for N, p, target in exact:
        sol = solved[N, p]
        worst = max(worst, abs(sol.value - target) / target)
    for p in trivial:
        sol = solved[6, p]
        worst = max(worst, abs(sol.value - 1.0 / p) * p)
        if not (sol.support == 1 and sol.entries[-1] == 1.0):
            worst = max(worst, 1.0)
    results.append(CheckResult("reduced", "closed-form-or-trivial-values", worst <= 1e-9, f"worst relative error {worst:.2e}"))

    mono_bad = 0
    stab_worst = 0.0
    struct_bad = 0
    agree_worst = 0.0
    for p, cap in caps.items():
        prev = math.inf
        for N in samples[p]:
            val = solved[N, p].value
            if val > prev + 1e-10:
                mono_bad += 1
            prev = val
        at_cap, sol = solved[cap, p], solved[cap + 5, p]
        stab_worst = max(stab_worst, abs(at_cap.value - sol.value) / max(abs(at_cap.value), 1.0))

        # uncycling: at the chain minimizer the windowed sum takes the same value
        gap = abs(t_noncyclic(sol.entries, p) - sol.value) / max(abs(sol.value), 1.0)
        agree_worst = max(agree_worst, gap)
        s = sol.entries
        if len(s) >= 2 and np.any(np.diff(s[1:]) > 1e-9 * s.max()):
            struct_bad += 1
        if s[-1] < p - 1e-9:
            struct_bad += 1
    results.append(CheckResult("reduced", "monotone-in-simplex-size", mono_bad == 0, f"{mono_bad} violations"))
    results.append(CheckResult("reduced", "stabilization-at-ceil-1-over-p", stab_worst <= 1e-9, f"worst relative change {stab_worst:.2e}"))
    results.append(CheckResult("reduced", "minimizer-structure", struct_bad == 0, f"{struct_bad} structure violations"))
    results.append(CheckResult("reduced", "windowed-equals-chain-at-minimizer", agree_worst <= 1e-9, f"worst relative gap {agree_worst:.2e}"))

    # a uniform point of the simplex with its first `lead` entries zeroed
    # and the rest renormalized is `lead` zeros and a uniform point of the
    # smaller simplex
    trials = 200
    dom_bad = 0
    sizes = rng.integers(2, 9, size=trials)
    leads = rng.integers(0, sizes - 1)
    prices = rng.uniform(0.05, 2.0, size=trials).tolist()
    for lead, tail, p in zip(leads.tolist(), _simplex_points(rng, sizes - leads), prices):
        if np.all(tail > 0):
            x = np.concatenate((np.zeros(lead), tail))
            tc, tn = t_chain(x, p), t_noncyclic(x, p)
            if tc < tn - 1e-12 * max(abs(tn), 1.0):
                dom_bad += 1
    results.append(CheckResult("reduced", "chain-dominates-windowed", dom_bad == 0, f"{trials} samples, {dom_bad} violations"))
    return results


def suite_reduction(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    gaps = []
    for n, steps in ((1, 10), (2, 2000), (3, 300)):
        grid_val = cyclic_bruteforce(n, steps)
        chain_val = minimize_chain(n, 1.0 / n).value
        gaps.append(abs(grid_val - chain_val))
        if grid_val < chain_val - 1e-9:
            gaps.append(1.0)  # grid value must stay above the true minimum
    worst = max(gaps)
    results.append(CheckResult("reduction", "cyclic-grid-matches-chain", worst <= 1e-3, f"n=1,2,3 worst gap {worst:.2e}"))
    return results


def suite_gradient(rng: np.random.Generator) -> list[CheckResult]:
    trials = 100
    worst = 0.0
    sizes = rng.integers(2, 9, size=trials)
    prices = rng.uniform(0.05, 1.5, size=trials).tolist()
    for N, x, p in zip(sizes.tolist(), _simplex_points(rng, sizes), prices):
        x = 0.7 * x + 0.3 / N
        x = x / x.sum()
        worst = max(worst, gradient_agreement(x, p))
    return [
        CheckResult("gradient", "analytic-vs-central-difference", worst <= 1e-6, f"{trials} interior points, worst normalized error {worst:.2e}")
    ]


def suite_envelope(rng: np.random.Generator) -> list[CheckResult]:
    """The maximal-average sum is the infimum of the radii sums."""
    trials = 200
    bad = 0
    tuples, sizes = _float_tuples(rng, trials, max_n=20)
    # each index's radius is uniform in 1..n of its own tuple
    drawn = rng.integers(1, np.repeat(sizes, sizes) + 1).tolist()
    for x, r in zip(tuples, _slices(drawn, sizes.tolist())):
        radii = RadiusTuple(tuple(r))
        res = max_avg_sum(x)
        if sum_with_radii(x, radii) < res.value - 1e-12:
            bad += 1
        if abs(sum_with_radii(x, res.radii) - res.value) > 1e-12 * max(res.value, 1.0):
            bad += 1
    return [
        CheckResult("envelope", "radii-sums-dominate-max-sum", bad == 0, f"{trials} random pairs, {bad} violations")
    ]


SUITES = {
    "periodic": suite_periodic,
    "prop4": suite_prop4,
    "poset": suite_poset,
    "rotation": suite_rotation,
    "prop5": suite_prop5,
    "envelope": suite_envelope,
    "reduced": suite_reduced,
    "reduction": suite_reduction,
    "gradient": suite_gradient,
}


def run_suites(names: list[str] | None, seed: int) -> list[CheckResult]:
    chosen = list(dict.fromkeys(names)) if names else list(SUITES)
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise CycmaxError(f"unknown suite(s): {', '.join(unknown)}")
    if seed < 0:
        raise CycmaxError(f"seed must be a nonnegative integer, got {seed}")
    results = []
    for name in chosen:
        rng = np.random.default_rng(seed)
        results.extend(SUITES[name](rng))
    return results
