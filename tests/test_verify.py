"""The verify suites' table scans, checks and samplers against the forms they replaced."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cycmax import reduction, verify
from cycmax.periodic import PeriodicTuple
from cycmax.structure import IntervalPoset, MIntervalRecord, distinct_short_averages
from cycmax.sums import SubsetCollectionSystem
from cycmax.verify import run_suites

import oracles


def seeded_tuples(seed: int, count: int = 90):
    """Float tuples (uniform, and of mixed magnitudes), rational tuples
    with mixed denominators, and tied tuples of small integers."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, 17))
        kind = t % 4
        if kind == 0:
            values = rng.uniform(0.05, 10.0, n).tolist()
        elif kind == 1:
            values = rng.choice([1e16, 1.0, 3.0, 1e-5, 0.0], n).tolist()
        elif kind == 2:
            values = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(0, 50, n), rng.integers(1, 12, n))]
        else:
            values = [Fraction(int(a)) for a in rng.integers(0, 4, n)]
        if not any(values):
            values[0] = values[0] + 1
        yield PeriodicTuple(values)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_matches_interval_scan(seed):
    # windows up to one period and up to three, from starts in the first two periods
    for x in seeded_tuples(seed):
        n = x.n
        for i in range(1, 2 * n + 1):
            for r_max in (1, n, 3 * n):
                got = verify._brute_right_maximal(x, i, r_max)
                want = oracles.interval_scan_right_maximal(x, i, r_max)
                assert got == want and type(got[0]) is type(want[0]), (x, i, r_max)


def test_scan_of_the_tied_check_matches_the_profile_scan():
    # the shortest-window check compares the profile with this scan, start by start
    for x in verify._tied_tuples(np.random.default_rng(5), 100):
        scan = [verify._brute_right_maximal(x, i, x.n) for i in range(1, x.n + 1)]
        values, lengths = oracles.scan_profile(x)
        assert scan == list(zip(values, lengths))


def test_crossing_check_matches_the_three_shift_loop(monkeypatch):
    # records of any kappa in 0..n-1, so that classes cross, in both directions
    rng = np.random.default_rng(8)
    crossed = 0
    for _ in range(300):
        n = int(rng.integers(1, 9))
        records = [MIntervalRecord(i, int(rng.integers(0, n)), Fraction(1)) for i in range(1, n + 1)]
        poset = IntervalPoset(n, {rec.start: rec for rec in records}, dict.fromkeys(range(1, n + 1)), None)
        monkeypatch.setattr(verify, "build_poset", lambda x: poset)
        got = verify._poset_checks_one(PeriodicTuple([Fraction(1)] * n))
        assert [d for d in got if "overlap" in d] == oracles.crossing_defects(records, n)
        crossed += any("overlap" in d for d in got)
    assert crossed > 100


# the replaced implementations, under the modules and names the suites call
OLD = {
    (verify, "_brute_right_maximal"): oracles.interval_scan_right_maximal,
    (verify, "generalized_max_sum"): oracles.fraction_generalized_max_sum,
    (verify, "sum_with_radii"): oracles.fsum_sum_with_radii,
    (verify, "has_majorizing_prefixes"): oracles.fraction_has_majorizing_prefixes,
    (verify, "distinct_short_averages"): oracles.fraction_distinct_short_averages,
    (verify, "_random_hypothesis_system"): oracles.choice_hypothesis_system,
    (reduction, "_compositions"): oracles.compositions,
}


@pytest.mark.parametrize("seed", range(6))
def test_suites_print_what_the_replaced_forms_print(monkeypatch, seed):
    lines = [res.line() for res in run_suites(None, seed)]
    for (module, name), old in OLD.items():
        monkeypatch.setattr(module, name, old)
    assert [res.line() for res in run_suites(None, seed)] == lines


@pytest.mark.parametrize("max_n", [16, 20, 50])
def test_float_tuples_cover_every_size(max_n):
    tuples, sizes = verify._float_tuples(np.random.default_rng(max_n), 1000, max_n)
    tuples = list(tuples)
    assert [x.n for x in tuples] == sizes.tolist()
    assert set(sizes.tolist()) == set(range(2, max_n + 1))
    for x in tuples:
        assert x.backend == "float" and all(type(v) is float and 0.05 <= v < 10.0 for v in x.values)


def test_rational_tuples_cover_every_size():
    tuples, sizes = verify._rational_tuples(np.random.default_rng(3), 500)
    tuples = list(tuples)
    assert [x.n for x in tuples] == sizes.tolist()
    assert set(sizes.tolist()) == set(range(3, 13))
    for x in tuples:
        assert x.backend == "rational"
        assert all(type(v) is Fraction and v.denominator == 1 and 1 <= v < 10**6 for v in x.values)


def test_generic_tuples_are_generic():
    tuples = list(verify._generic_tuples(np.random.default_rng(4), 500))
    assert len(tuples) == 500 and {x.n for x in tuples} == set(range(3, 13))
    assert all(distinct_short_averages(x) for x in tuples)


def test_a_rejected_tuple_is_drawn_again_alone(monkeypatch):
    # with a test that rejects every tuple whose first entry is even, the
    # count holds and every tuple passes; about half are redrawn, some twice
    monkeypatch.setattr(verify, "distinct_short_averages", lambda x: x.values[0] % 2 == 1)
    tuples = list(verify._generic_tuples(np.random.default_rng(6), 300))
    assert len(tuples) == 300 and all(x.values[0] % 2 == 1 for x in tuples)
    assert {x.n for x in tuples} == set(range(3, 13))


def test_tied_tuples_cover_every_size_and_none_is_zero():
    tuples = list(verify._tied_tuples(np.random.default_rng(7), 2000))
    assert len(tuples) == 2000 and {x.n for x in tuples} == set(range(1, 17))
    # a tuple of size 1 is drawn zero a quarter of the time, and then drawn again
    assert {x.values for x in tuples if x.n == 1} == {(1,), (2,), (3,)}
    for x in tuples:
        assert x.backend == "rational" and any(x.values)
        assert all(type(v) is Fraction and v in (0, 1, 2, 3) for v in x.values)


def test_simplex_points_are_uniform_points_of_their_simplices():
    sizes = np.random.default_rng(8).integers(2, 9, size=4000)
    points = verify._simplex_points(np.random.default_rng(9), sizes)
    assert [len(x) for x in points] == sizes.tolist()
    for x in points:
        assert np.all(x > 0) and abs(x.sum() - 1.0) < 1e-15 * len(x)
    # the first coordinate of a point of the N-simplex has mean 1/N
    # and standard deviation below 1/N
    for N in range(2, 9):
        first = [x[0] for x in points if len(x) == N]
        assert abs(np.mean(first) - 1 / N) < 5 / N / np.sqrt(len(first))


@pytest.mark.parametrize("seed", range(6))
def test_a_seed_reproduces_every_line(seed):
    assert [r.line() for r in run_suites(None, seed)] == [r.line() for r in run_suites(None, seed)]


# the trial counts each check prints, pinned so that no check runs fewer
COUNTS = {
    "periodic.shift-equivalence-float": "200 random intervals,",
    "periodic.shift-equivalence-exact": "50 rational intervals,",
    "periodic.window-range-sufficiency": "(200 trials,",
    "periodic.bounds-and-periodicity": "200 trials,",
    "periodic.shortest-window-exact": "50 tied rational tuples,",
    "prop4.min-maximal-equals-mean-float": "1000 tuples,",
    "prop4.min-maximal-equals-mean-exact": "200 rational tuples,",
    "poset.reference-tuple-structure": "",
    "poset.generic-rational-structure": "200 generic tuples,",
    "rotation.unique-majorizing-rotation": "200 generic tuples,",
    "prop5.spiked-tuple-upper-bound": "100 systems x 2 epsilons,",
    "prop5.lower-bound-one": "",
    "envelope.radii-sums-dominate-max-sum": "200 random pairs,",
    "reduced.closed-form-or-trivial-values": "",
    "reduced.monotone-in-simplex-size": "",
    "reduced.stabilization-at-ceil-1-over-p": "",
    "reduced.minimizer-structure": "",
    "reduced.windowed-equals-chain-at-minimizer": "",
    "reduced.chain-dominates-windowed": "200 samples,",
    "reduction.cyclic-grid-matches-chain": "",
    "gradient.analytic-vs-central-difference": "100 interior points,",
}


@pytest.mark.parametrize("seed", [0, 17])
def test_every_check_prints_its_trial_count(seed):
    results = run_suites(None, seed)
    assert [f"{r.suite}.{r.name}" for r in results] == list(COUNTS)
    for r in results:
        assert r.passed and COUNTS[f"{r.suite}.{r.name}"] in r.detail, r.line()


def raw_hypothesis_systems(monkeypatch, n: int, count: int, seed: int):
    """The collections prop5's sampler draws, as lists before canonicalization."""
    monkeypatch.setattr(verify, "SubsetCollectionSystem", lambda collections: collections)
    rng = np.random.default_rng(seed)
    return [verify._random_hypothesis_system(rng, n) for _ in range(count)]


@pytest.mark.parametrize("n", [1, 2, 4, 10])
def test_hypothesis_system_invariants(monkeypatch, n):
    everything = list(range(1, n + 1))
    for collections in raw_hypothesis_systems(monkeypatch, n, 200, seed=n):
        assert len(collections) == n
        for i, subsets in enumerate(collections, start=1):
            base = [everything, [1]] if i == 1 else [everything]
            assert subsets[: len(base)] == base
            extras = subsets[len(base) :]
            assert 0 <= len(extras) <= 3
            for subset in extras:
                assert all(type(v) is int for v in subset)
                assert subset == sorted(set(subset)) and 1 <= subset[0] and subset[-1] <= n
        # the sampler's output is a valid system
        SubsetCollectionSystem(collections)


def test_hypothesis_systems_cover_every_size_and_element(monkeypatch):
    n = 6
    extra_counts, sizes, members = Counter(), Counter(), Counter()
    for collections in raw_hypothesis_systems(monkeypatch, n, 2000, seed=11):
        for i, subsets in enumerate(collections, start=1):
            extras = subsets[2:] if i == 1 else subsets[1:]
            extra_counts[len(extras)] += 1
            for subset in extras:
                sizes[len(subset)] += 1
                members.update((len(subset), v) for v in subset)
    assert set(extra_counts) == {0, 1, 2, 3}
    assert set(sizes) == set(range(1, n + 1))
    # at each size, every element occurs in some subset
    assert set(members) == {(size, v) for size in range(1, n + 1) for v in range(1, n + 1)}


def test_each_named_suite_runs_once_in_the_order_first_named():
    once = run_suites(["gradient", "rotation"], 3)
    assert [r.suite for r in once] == ["gradient", "rotation"]
    assert run_suites(["gradient", "rotation", "gradient", "rotation"], 3) == once
