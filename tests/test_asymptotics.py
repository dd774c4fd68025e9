import functools
import math
import random

import numpy as np
import pytest

from cycmax import (
    CycmaxError,
    PeriodicTuple,
    estimate_constant_a,
    max_avg_sum,
    minimize_chain,
    sweep,
)
from cycmax.asymptotics import (
    A_REFERENCE,
    CSV_HEADER,
    MAX_GRID_POINTS,
    SweepRecord,
    geometric_grid,
    records_to_csv,
)
import cycmax.reduction as reduction
import oracles

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def synthetic_records(n_values, a, c, wobble=0.0):
    out = []
    for i, n in enumerate(n_values):
        deficit = a - c / math.log(n) + (wobble if i % 2 else -wobble)
        out.append(
            SweepRecord(
                n=n, s_star=math.e * math.log(n) - deficit, deficit=deficit, support=0, residual=0.0
            )
        )
    return out


class TestInfS:
    """inf S_n, the minimum of the maximal-average cyclic sum over
    n-tuples, is the chain minimum at price 1/n."""

    def test_small_n_closed_forms(self):
        assert minimize_chain(1, 1.0).value == pytest.approx(1.0, rel=1e-12)
        assert minimize_chain(2, 1.0 / 2).value == pytest.approx(2.0 * SQRT2 - 1.0, rel=1e-9)
        assert minimize_chain(3, 1.0 / 3).value == pytest.approx(2.0 * SQRT3 - 1.0, rel=1e-9)

    def test_bracketing(self):
        for n in (1, 2, 3, 5, 10, 50):
            v = minimize_chain(n, 1.0 / n).value
            assert 1.0 - 1e-12 <= v <= n

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            minimize_chain(0, 1.0)
        with pytest.raises(ValueError):
            sweep([0])
        # unchecked, 2.5 and True are solved as sizes and "3" raises TypeError
        for n in (2.5, True, "3"):
            with pytest.raises(CycmaxError, match="n must be a positive integer"):
                sweep([1000, n])

    def test_agrees_with_windowed_route(self):
        # uncycling: the chain minimizer, read as a periodic n-tuple with
        # a zero run before its support, has the chain value as its
        # maximal-average sum
        for n in (10, 100, 1000, 5000):
            sol = minimize_chain(n, 1.0 / n)
            dense = PeriodicTuple([0.0] * (n - sol.support) + sol.entries.tolist())
            value = max_avg_sum(dense).value
            assert abs(value - sol.value) / sol.value <= 1e-13


class TestSweep:
    def test_single_point(self):
        (rec,) = sweep([1])
        assert rec.n == 1
        assert rec.s_star == pytest.approx(1.0)
        assert rec.deficit == pytest.approx(-1.0)
        assert rec.support == 1
        assert rec.residual == 0.0

    def test_two_and_three(self):
        recs = sweep([2, 3])
        assert recs[0].deficit == pytest.approx(math.e * math.log(2) - (2 * SQRT2 - 1), rel=1e-9)
        assert recs[1].deficit == pytest.approx(math.e * math.log(3) - (2 * SQRT3 - 1), rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([])
        with pytest.raises(ValueError):
            sweep([0, 2])
        with pytest.raises(ValueError, match="float range"):
            sweep([10**400])
        with pytest.raises(ValueError, match="float range"):
            sweep([10, 10**400])

    def test_any_order_gives_each_n_its_sorted_record(self):
        ns = geometric_grid(1e3, 1e6, 20)
        shuffled = list(ns)
        random.Random(0).shuffle(shuffled)
        assert shuffled != ns
        by_n = {rec.n: rec for rec in sweep(ns)}
        records = sweep(shuffled)
        assert [rec.n for rec in records] == shuffled
        for rec in records:
            assert rec == by_n[rec.n], rec.n

    def test_warm_start_keeps_results_deterministic(self):
        a = sweep([50, 100, 200])
        b = sweep([50, 100, 200])
        assert [r.s_star for r in a] == [r.s_star for r in b]


def benchmark_sweep_grids(seed):
    """The twelve n-grids of the benchmark's sweep workload for one seed.

    Each is ``geometric_grid(1e3 f, 1e6 f, 8)`` with f = 2**((u0 + j g) mod 1),
    u0 the seed's first draw and g the golden ratio minus one, as
    ``perfbench/workloads.py`` builds them.
    """
    u0 = random.Random(seed).random()
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    factors = [2.0 ** ((u0 + j * golden) % 1.0) for j in range(12)]
    return [geometric_grid(1e3 * f, 1e6 * f, 8) for f in factors]


@functools.cache
def backward_oracle(n):
    """The backward per-size oracle's solution at p = 1/n."""
    return oracles.minimize_by_support(n, 1.0 / n)


def assert_records_match_oracle(records, ns):
    """Each record agrees with the backward per-size oracle's solve at p = 1/n.

    Same support, values within 1e-13, and residual <= 1e-10 wherever the
    oracle's is.  Gives the oracle's solutions.
    """
    assert [r.n for r in records] == ns
    wants = []
    for rec in records:
        want = backward_oracle(rec.n)
        assert rec.support == want.support, rec.n
        assert abs(rec.s_star - want.value) <= 1e-13 * want.value, rec.n
        if want.stationarity_residual <= 1e-10:
            assert rec.residual <= 1e-10, rec.n
        assert rec.deficit == math.e * math.log(rec.n) - rec.s_star, rec.n
        wants.append(want)
    return wants


class TestBatchedSweep:
    """One batched solve for every n against per-n solves and a per-size oracle."""

    def test_benchmark_grids_match_the_per_n_oracle(self):
        for ns in benchmark_sweep_grids(5):
            wants = assert_records_match_oracle(sweep(ns), ns)
            # records carry no entries, so read them off the batched core
            sols = reduction._minimize_many([(n, 1.0 / n) for n in ns])
            for n, sol, want in zip(ns, sols, wants):
                assert np.allclose(sol.entries, want.entries, rtol=1e-13, atol=0), n

    def test_records_equal_per_n_minimize_chain(self):
        # n = 1 has no size with a root, 2 and 3 only size 2, and 10**10
        # reads a residual above 1e-10; each record is bit for bit its own solve
        ns = [1, 2, 3, 10, 40, 1000, 372759, 10**9, 10**10]
        records = sweep(ns)
        for rec in records:
            sol = minimize_chain(rec.n, 1.0 / rec.n)
            assert (rec.s_star, rec.support, rec.residual) == (
                sol.value,
                sol.support,
                sol.stationarity_residual,
            ), rec.n
        assert_records_match_oracle(records, ns)

    def test_far_point_keeps_its_own_best(self):
        # the last point's residual sits above 1e-10, a diagnostic only
        ns = geometric_grid(1e3, 1e10, 8)
        records = sweep(ns)
        assert ns[-1] == 10**10
        assert [r.residual <= 1e-10 for r in records] == [True] * 7 + [False]
        assert records[-1].support == 24
        assert_records_match_oracle(records, ns)
        assert_records_match_oracle(records[:-1], ns[:-1])
        # the points before it read as they do in a sweep without it
        alone = sweep(ns[:-1])
        assert [(r.s_star, r.support, r.residual) for r in alone] == [
            (r.s_star, r.support, r.residual) for r in records[:-1]
        ]

    def test_one_batched_root_solve_per_sweep(self, monkeypatch):
        calls = []
        roots, certify = reduction._roots, reduction._certify

        def counted(name, solve):
            def run(*args):
                calls.append((name, args))
                return solve(*args)

            return run

        monkeypatch.setattr(reduction, "_roots", counted("roots", roots))
        monkeypatch.setattr(reduction, "_certify", counted("certify", certify))
        ns = geometric_grid(1e3, 1e6, 8)
        sweep(ns)
        # the right branch of at most four sizes of every n in one root
        # solve, then the eight winners certified in one call, in order
        assert [name for name, _ in calls] == ["roots", "certify"]
        assert 8 <= len(calls[0][1][0]) <= 8 * 4
        problems, a, slope, k = calls[1][1]
        assert problems == [(n, 1.0 / n) for n in ns]
        assert len(a) == len(slope) == len(k) == 8


class TestGeometricGrid:
    def test_small(self):
        assert geometric_grid(1, 3, 3) == [1, 2, 3]

    def test_deduplicates(self):
        grid = geometric_grid(10, 12, 8)
        assert grid == sorted(set(grid))

    def test_twenty_points_thousand_to_million(self):
        grid = geometric_grid(1e3, 1e6, 20)
        assert len(grid) == 20
        assert grid[0] == 1000 and grid[-1] == 1000000

    def test_rejects_bad_ranges(self):
        for args in [(0, 10, 3), (10, 5, 3), (1, 10, 0), (1, math.inf, 3), (math.nan, 10, 3)]:
            with pytest.raises(ValueError):
                geometric_grid(*args)

    def test_bounds_the_points(self):
        # the bound itself is taken; past it nothing is allocated
        assert geometric_grid(1, 10, MAX_GRID_POINTS) == list(range(1, 11))
        for points in (MAX_GRID_POINTS + 1, 10**9):
            with pytest.raises(ValueError, match=f"points must lie in 1..{MAX_GRID_POINTS}"):
                geometric_grid(1e3, 1e6, points)


class TestEstimateConstant:
    def test_exact_model_recovery(self):
        # the data lie on the model, so the intercept is exact and the
        # fitted line passes through every point
        recs = synthetic_records([100, 1000, 10**4, 10**5, 10**6], A_REFERENCE, 2.7)
        a_hat = estimate_constant_a(recs)
        assert a_hat == pytest.approx(A_REFERENCE, abs=1e-12)
        for rec in recs:
            assert a_hat - 2.7 / math.log(rec.n) == pytest.approx(rec.deficit, abs=1e-12)

    def test_small_n_records_are_ignored(self):
        # records below FIT_MIN_N = 100 leave the fit; n = 100 enters it
        recs = synthetic_records([10, 50, 99, 100, 1000, 10**4, 10**5, 10**6], 1.5, 1.0)
        a_hat = estimate_constant_a(recs)
        assert a_hat == pytest.approx(1.5, abs=1e-10)
        for rec, poison in zip(recs[:3], (99.0, -99.0, 1e6)):
            rec.deficit = poison
        assert estimate_constant_a(recs) == a_hat
        recs[3].deficit = 99.0
        assert estimate_constant_a(recs) != pytest.approx(a_hat, abs=1e-3)

    def test_requires_four_points(self):
        recs = synthetic_records([1000, 10**4, 10**5], 1.7, 1.0)
        with pytest.raises(ValueError):
            estimate_constant_a(recs)

    def test_ill_conditioned_when_clustered(self):
        recs = synthetic_records([10**6, 10**6 + 1, 10**6 + 2, 10**6 + 3], 1.7, 1.0)
        with pytest.raises(CycmaxError, match="regressor spread .* below 1.000e-03"):
            estimate_constant_a(recs)

    def test_two_point_extrapolation_consistency(self):
        # With noise-free synthetic data the sparse fit recovers the full one.
        clean = synthetic_records([10**5, 10**6], A_REFERENCE, 2.7)
        (x1, y1), (x2, y2) = [(1.0 / math.log(r.n), r.deficit) for r in clean]
        c = (y1 - y2) / (x2 - x1)
        assert y1 + c * x1 == pytest.approx(A_REFERENCE, abs=1e-12)

    def test_two_point_extrapolation_on_real_solves(self):
        # The deficit carries a genuine log-periodic wobble of amplitude
        # about 0.01, and n = 1e5 / 1e6 sit at opposite phases of it, so a
        # two-point extrapolation lands a few hundredths off the constant
        # (the measured gap is 0.058).
        real = sweep([10**5, 10**6])
        (x1, y1), (x2, y2) = [(1.0 / math.log(r.n), r.deficit) for r in real]
        c = (y1 - y2) / (x2 - x1)
        a_two = y1 + c * x1
        assert abs(a_two - A_REFERENCE) <= 1e-1


class TestCsv:
    def test_header_and_precision(self):
        recs = sweep([2, 3])
        text = records_to_csv(recs)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert int(fields[0]) == 2
        assert float(fields[1]) == recs[0].s_star  # 17 significant digits round-trip
        assert "." in fields[1] and "," not in fields[1].replace(",", "")

    def test_appends_fit_line(self):
        recs = synthetic_records([1000, 10**4, 10**5, 10**6], 1.7, 2.0)
        text = records_to_csv(recs, a_hat=1.2345)
        last = text.strip().split("\n")[-1]
        assert last.startswith("# a_hat,")
        assert float(last.split(",")[1]) == 1.2345


def geometric_witness(n):
    """The n-tuple 1, 1/e, 1/e^2, ... truncated at ceil(log n), then zeros,
    normalized to sum 1: an explicit feasible tuple whose maximal-average
    sum stays within an O(1) band above e*log(n)."""
    k = min(n, math.ceil(math.log(n)))
    head = [math.exp(-j) for j in range(k)]
    total = sum(head)
    return PeriodicTuple([v / total for v in head] + [0.0] * (n - k), backend="float")


class TestWitness:
    def test_structure(self):
        w = geometric_witness(10)
        assert w.n == 10
        vals = list(w.values)
        assert sum(vals) == pytest.approx(1.0, abs=1e-12)
        positive = [v for v in vals if v > 0]
        assert len(positive) == math.ceil(math.log(10))
        for a, b in zip(positive, positive[1:]):
            assert b == pytest.approx(a / math.e, rel=1e-12)
        assert vals[len(positive):] == [0.0] * (10 - len(positive))

    @pytest.mark.parametrize("n", [10, 100, 1000, 10000])
    def test_upper_bound_band(self, n):
        w = geometric_witness(n)
        value = max_avg_sum(w).value
        assert value >= minimize_chain(n, 1.0 / n).value - 1e-9
        assert value - math.e * math.log(n) <= 2.0
