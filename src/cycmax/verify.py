"""Seeded self-check suites.

Each suite draws its own randomness from a seeded generator and returns
a list of check results, so a run is reproducible byte for byte given
the seed.  The CLI ``verify`` command prints one line per check; the
acceptance tests call the same functions with their default trial
counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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
    cyclic_bruteforce,
    gradient_agreement,
    minimize_chain,
    minimize_noncyclic,
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


def _random_float_tuple(rng: np.random.Generator, max_n: int = 50) -> PeriodicTuple:
    n = int(rng.integers(2, max_n + 1))
    vals = rng.uniform(0.05, 10.0, size=n)
    return PeriodicTuple(vals.tolist(), backend="float")


def _random_rational_tuple(
    rng: np.random.Generator, min_n: int = 3, max_n: int = 12, generic: bool = True
) -> PeriodicTuple:
    """Random integer-valued tuple; optionally resampled until all short
    window averages are pairwise distinct."""
    while True:
        n = int(rng.integers(min_n, max_n + 1))
        vals = [Fraction(int(v)) for v in rng.integers(1, 10**6, size=n)]
        x = PeriodicTuple(vals, backend="rational")
        if not generic or distinct_short_averages(x):
            return x


def _brute_right_maximal(x: PeriodicTuple, i: int, r_max: int):
    best = None
    for r in range(1, r_max + 1):
        avg = interval_average(x, IndexInterval(i, i + r - 1))
        if best is None or avg > best:
            best = avg
    return best


# ---------------------------------------------------------------------------


def suite_periodic(rng: np.random.Generator, trials: int = 200) -> list[CheckResult]:
    results = []

    bad = 0
    for _ in range(trials):
        x = _random_float_tuple(rng, max_n=20)
        i = int(rng.integers(1, x.n + 1))
        r = int(rng.integers(1, x.n + 1))
        k = int(rng.integers(-3, 4))
        iv = IndexInterval(i, i + r - 1)
        a = interval_average(x, iv)
        b = interval_average(x, iv.shifted(k * x.n))
        if abs(a - b) > 1e-12 * max(abs(a), 1.0):
            bad += 1
    results.append(
        CheckResult("periodic", "shift-equivalence-float", bad == 0, f"{trials} random intervals, {bad} mismatches")
    )

    bad = 0
    for _ in range(trials // 4):
        x = _random_rational_tuple(rng, generic=False)
        i = int(rng.integers(1, x.n + 1))
        r = int(rng.integers(1, x.n + 1))
        iv = IndexInterval(i, i + r - 1)
        if interval_average(x, iv) != interval_average(x, iv.shifted(7 * x.n)):
            bad += 1
    results.append(
        CheckResult("periodic", "shift-equivalence-exact", bad == 0, f"{trials // 4} rational intervals, {bad} mismatches")
    )

    bad = 0
    for _ in range(trials):
        x = _random_float_tuple(rng, max_n=16)
        i = int(rng.integers(1, x.n + 1))
        short = right_maximal(x, i)
        wide = _brute_right_maximal(x, i, 3 * x.n)
        if wide > short + 1e-12 * max(abs(short), 1.0):
            bad += 1
    results.append(
        CheckResult("periodic", "window-range-sufficiency", bad == 0, f"windows to 3n never beat windows to n ({trials} trials, {bad} failures)")
    )

    bad = 0
    for _ in range(trials):
        x = _random_float_tuple(rng, max_n=20)
        i = int(rng.integers(1, x.n + 1))
        m = right_maximal(x, i)
        lo, hi = min(x.values), max(x.values)
        if not (lo - 1e-12 <= m <= hi + 1e-12):
            bad += 1
        if abs(m - right_maximal(x, i + x.n)) > 1e-12 * max(abs(m), 1.0):
            bad += 1
    results.append(
        CheckResult("periodic", "bounds-and-periodicity", bad == 0, f"{trials} trials, {bad} failures")
    )
    return results


def suite_prop4(
    rng: np.random.Generator, float_trials: int = 1000, rational_trials: int = 200
) -> list[CheckResult]:
    """Minimum of the right maximal values equals the period mean."""
    results = []
    worst = 0.0
    for _ in range(float_trials):
        x = _random_float_tuple(rng, max_n=50)
        values, _ = right_maximal_profile(x)
        gap = abs(min(values) - x.average) / max(abs(x.average), 1.0)
        worst = max(worst, gap)
    results.append(
        CheckResult("prop4", "min-maximal-equals-mean-float", worst <= 1e-12, f"{float_trials} tuples, worst relative gap {worst:.2e}")
    )

    bad = 0
    for _ in range(rational_trials):
        x = _random_rational_tuple(rng, generic=False)
        values, _ = right_maximal_profile(x)
        if min(values) != x.average:
            bad += 1
    results.append(
        CheckResult("prop4", "min-maximal-equals-mean-exact", bad == 0, f"{rational_trials} rational tuples, {bad} failures")
    )
    return results


def _poset_checks_one(x: PeriodicTuple) -> list[str]:
    """Structural defects of the interval order for one generic tuple."""
    defects = []
    records = all_m_intervals(x)
    n = x.n

    # representatives in one period window must be disjoint or nested
    for a in records:
        for b in records:
            if a.start >= b.start:
                continue
            for t in (-1, 0, 1):
                sb = b.interval.shifted(t * n)
                overlap = sb.a <= a.interval.b and a.interval.a <= sb.b
                nested = a.interval.contains(sb) or sb.contains(a.interval)
                if overlap and not nested:
                    defects.append(f"{a.interval} and {sb} overlap without nesting")

    poset = build_poset(x)
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
    full = [r for r in records if r.kappa == n - 1]
    if len(full) != 1:
        defects.append(f"{len(full)} full-length classes")
    return defects


def suite_poset(rng: np.random.Generator, trials: int = 200) -> list[CheckResult]:
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

    defect_count = 0
    for _ in range(trials):
        x = _random_rational_tuple(rng)
        defects = _poset_checks_one(x)
        if defects:
            defect_count += 1
    results.append(
        CheckResult("poset", "generic-rational-structure", defect_count == 0, f"{trials} generic tuples, {defect_count} with defects")
    )
    return results


def suite_rotation(rng: np.random.Generator, trials: int = 200) -> list[CheckResult]:
    bad = 0
    for _ in range(trials):
        x = _random_rational_tuple(rng)
        hits = [i for i in range(1, x.n + 1) if has_majorizing_prefixes(x, i, strict=True)]
        if len(hits) != 1 or hits[0] != full_maximal_start(x):
            bad += 1
    return [
        CheckResult("rotation", "unique-majorizing-rotation", bad == 0, f"{trials} generic tuples, {bad} failures")
    ]


def _random_hypothesis_system(rng: np.random.Generator, n: int) -> SubsetCollectionSystem:
    """Random system containing the full set everywhere and {1} at index 1."""
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


def suite_prop5(rng: np.random.Generator, trials: int = 100) -> list[CheckResult]:
    results = []
    bad_upper = 0
    bad_lower = 0
    for _ in range(trials):
        n = int(rng.integers(4, 11))
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


def suite_reduced(rng: np.random.Generator, p_values=(0.5, 0.2, 0.1, 0.05, 0.01)) -> list[CheckResult]:
    results = []

    exact = [
        (1, 1.0, 1.0),
        (2, 0.5, 2.0 * math.sqrt(2.0) - 1.0),
        (3, 1.0 / 3.0, 2.0 * math.sqrt(3.0) - 1.0),
    ]
    worst = 0.0
    for N, p, target in exact:
        sol = minimize_chain(N, p)
        worst = max(worst, abs(sol.value - target) / target)
    for p in (1.0, 1.5, 4.0):
        sol = minimize_chain(6, p)
        worst = max(worst, abs(sol.value - 1.0 / p) * p)
        if not (sol.support == 1 and sol.entries[-1] == 1.0):
            worst = max(worst, 1.0)
    results.append(
        CheckResult("reduced", "closed-form-or-trivial-values", worst <= 1e-9, f"worst relative error {worst:.2e}")
    )

    mono_bad = 0
    stab_worst = 0.0
    struct_bad = 0
    agree_worst = 0.0
    for p in p_values:
        cap = math.ceil(1.0 / p)
        samples = sorted(set([1, 2, 3, max(1, cap // 2), cap, cap + 5]))
        prev = math.inf
        for N in samples:
            val = minimize_chain(N, p).value
            if val > prev + 1e-10:
                mono_bad += 1
            prev = val
        v_cap = minimize_chain(cap, p).value
        v_more = minimize_chain(cap + 5, p).value
        stab_worst = max(stab_worst, abs(v_cap - v_more) / max(abs(v_cap), 1.0))

        sol = minimize_noncyclic(cap + 5, p)
        agree_worst = max(agree_worst, sol.consistency_gap)
        s = sol.entries
        if len(s) >= 2 and np.any(np.diff(s[1:]) > 1e-9 * s.max()):
            struct_bad += 1
        if s[-1] < p - 1e-9:
            struct_bad += 1
    results.append(CheckResult("reduced", "monotone-in-simplex-size", mono_bad == 0, f"{mono_bad} violations"))
    results.append(CheckResult("reduced", "stabilization-at-ceil-1-over-p", stab_worst <= 1e-9, f"worst relative change {stab_worst:.2e}"))
    results.append(CheckResult("reduced", "minimizer-structure", struct_bad == 0, f"{struct_bad} structure violations"))
    results.append(CheckResult("reduced", "windowed-equals-chain-at-minimizer", agree_worst <= 1e-9, f"worst relative gap {agree_worst:.2e}"))

    dom_bad = 0
    for _ in range(200):
        N = int(rng.integers(2, 9))
        x = rng.dirichlet(np.ones(N))
        lead = int(rng.integers(0, N - 1))
        x[:lead] = 0.0
        x = x / x.sum()
        if np.all(x[lead:] > 0):
            p = float(rng.uniform(0.05, 2.0))
            tc, tn = t_chain(x, p), t_noncyclic(x, p)
            if tc < tn - 1e-12 * max(abs(tn), 1.0):
                dom_bad += 1
    results.append(CheckResult("reduced", "chain-dominates-windowed", dom_bad == 0, f"200 samples, {dom_bad} violations"))
    return results


def suite_reduction(rng: np.random.Generator) -> list[CheckResult]:
    results = []
    gaps = []
    for n, steps, refinements in ((1, 10, 0), (2, 2000, 3), (3, 300, 3)):
        grid_val = cyclic_bruteforce(n, steps, refinements)
        chain_val = minimize_chain(n, 1.0 / n).value
        gaps.append(abs(grid_val - chain_val))
        if grid_val < chain_val - 1e-9:
            gaps.append(1.0)  # grid value must stay above the true minimum
    worst = max(gaps)
    results.append(
        CheckResult("reduction", "cyclic-grid-matches-chain", worst <= 1e-3, f"n=1,2,3 worst gap {worst:.2e}")
    )
    return results


def suite_gradient(rng: np.random.Generator, trials: int = 100) -> list[CheckResult]:
    worst = 0.0
    for _ in range(trials):
        N = int(rng.integers(2, 9))
        x = 0.7 * rng.dirichlet(np.ones(N)) + 0.3 / N
        x = x / x.sum()
        p = float(rng.uniform(0.05, 1.5))
        worst = max(worst, gradient_agreement(x, p))
    return [
        CheckResult("gradient", "analytic-vs-central-difference", worst <= 1e-6, f"{trials} interior points, worst normalized error {worst:.2e}")
    ]


def suite_envelope(rng: np.random.Generator, trials: int = 200) -> list[CheckResult]:
    """The maximal-average sum is the infimum of the radii sums."""
    bad = 0
    for _ in range(trials):
        x = _random_float_tuple(rng, max_n=20)
        radii = RadiusTuple(tuple(int(r) for r in rng.integers(1, x.n + 1, size=x.n)))
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
    chosen = list(SUITES) if not names else names
    unknown = [s for s in chosen if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    results = []
    for name in chosen:
        rng = np.random.default_rng(seed)
        results.extend(SUITES[name](rng))
    return results
