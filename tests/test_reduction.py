import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycmax import (
    ConsistencyViolation,
    InadmissiblePair,
    NonConvergence,
    brute_force_oracle,
    cyclic_bruteforce,
    minimize_chain,
    minimize_noncyclic,
    t_chain,
    t_noncyclic,
)
from cycmax.asymptotics import geometric_grid
from cycmax.reduction import (
    _compositions,
    _solve_support,
    chain_gradient,
    chain_gradient_fd,
    gradient_agreement,
    max_sum_values,
    projected_residual,
    support_entries,
)
from cycmax import PeriodicTuple, max_avg_sum

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def simplex_points(min_size=2, max_size=8):
    return st.lists(st.floats(0.01, 1.0), min_size=min_size, max_size=max_size).map(
        lambda vs: np.asarray(vs) / np.sum(vs)
    )


class TestChainObjective:
    def test_point_mass(self):
        assert t_chain([0.0, 0.0, 1.0], 1.0) == 1.0
        assert t_chain([0.0, 0.0, 1.0], 0.25) == 4.0

    def test_two_entry_closed_form_point(self):
        x = [1.0 - 1.0 / SQRT2, 1.0 / SQRT2]
        assert t_chain(x, 0.5) == pytest.approx(2.0 * SQRT2 - 1.0, rel=1e-15)

    def test_constant_vector(self):
        for N in (1, 2, 5, 9):
            x = [1.0 / N] * N
            p = 0.37
            assert t_chain(x, p) == pytest.approx((N - 1) + 1.0 / (N * p), rel=1e-12)

    def test_zero_prefix_convention(self):
        assert t_chain([0.0, 0.0, 0.5, 0.5], 0.5) == pytest.approx(1.0 + 1.0)

    def test_positive_followed_by_zero_raises(self):
        with pytest.raises(InadmissiblePair):
            t_chain([0.5, 0.0, 0.5], 1.0)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            t_chain([1.0], 0.0)

    def test_works_on_fractions(self):
        val = t_chain([Fraction(1, 3), Fraction(2, 3)], Fraction(1, 2))
        assert val == Fraction(1, 2) + Fraction(4, 3)


class TestWindowedObjective:
    def test_point_mass(self):
        assert t_noncyclic([0.0, 0.0, 1.0], 0.2) == 5.0

    def test_two_halves(self):
        assert t_noncyclic([0.5, 0.5], 0.5) == pytest.approx(2.0)

    def test_decreasing_equals_chain(self):
        x = [0.5, 0.3, 0.2]
        assert t_noncyclic(x, 0.4) == pytest.approx(t_chain(x, 0.4), rel=1e-15)

    def test_window_takes_the_best_average(self):
        # increasing tail: the window of length 2 beats the immediate successor
        x = [0.5, 0.1, 0.4]
        m0 = max(0.1, (0.1 + 0.4) / 2.0)
        expected = 0.5 / m0 + 0.1 / 0.4 + 0.4 / 1.0
        assert t_noncyclic(x, 1.0) == pytest.approx(expected, rel=1e-14)

    def test_positive_entry_with_zero_window(self):
        with pytest.raises(InadmissiblePair):
            t_noncyclic([0.5, 0.0, 0.0], 1.0)  # nonzero then zeros

    @given(simplex_points(), st.floats(0.05, 2.0))
    def test_chain_dominates(self, x, p):
        tc, tn = t_chain(x, p), t_noncyclic(x, p)
        assert tc >= tn - 1e-12 * max(abs(tn), 1.0)

    def test_tiny_trailing_window_keeps_dominance(self):
        # a prefix-sum difference loses ~1e-12 of the last entry, which the
        # ratio x_1/x_2 ~ 2000 amplifies past the dominance tolerance
        x = [0.8559882733398374, 0.1439429357901031, 6.87908700596037e-05]
        p = 0.30063992295490377
        tc, tn = t_chain(x, p), t_noncyclic(x, p)
        assert tc >= tn - 1e-12 * max(abs(tn), 1.0)
        assert tn == t_chain(x, p)

    @given(simplex_points(), st.floats(0.05, 2.0), st.floats(0.1, 10.0))
    def test_homogeneity(self, x, p, t):
        a = t_noncyclic(x, p)
        b = t_noncyclic([v * t for v in x], p * t)
        assert a == pytest.approx(b, rel=1e-12)


class TestGradient:
    def test_matches_finite_differences_on_random_interior_points(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            N = int(rng.integers(2, 9))
            x = 0.7 * rng.dirichlet(np.ones(N)) + 0.3 / N
            x /= x.sum()
            p = float(rng.uniform(0.05, 1.5))
            assert gradient_agreement(x, p) <= 1e-6

    def test_exact_small_case(self):
        # f(a, b) = a/b + b/p: df/da = 1/b, df/db = -a/b^2 + 1/p
        x = np.array([0.25, 0.75])
        p = 0.5
        g = chain_gradient(x, p)
        assert g[0] == pytest.approx(1.0 / 0.75)
        assert g[1] == pytest.approx(-0.25 / 0.75**2 + 2.0)

    def test_fd_uses_relative_steps(self):
        x = np.array([0.9, 0.0999, 1e-4])
        x = x / x.sum()
        g = chain_gradient(x, 1e-4)
        g_fd = chain_gradient_fd(x, 1e-4)
        assert np.linalg.norm(g_fd - g) / np.linalg.norm(g) <= 1e-6

    def test_requires_positive_entries(self):
        with pytest.raises(ValueError):
            chain_gradient(np.array([0.0, 1.0]), 1.0)


class TestSupportHelpers:
    def test_support_entries(self):
        s = support_entries(np.array([0.0, 0.0, 0.2, 0.8]))
        assert list(s) == [0.2, 0.8]
        with pytest.raises(ValueError):
            support_entries(np.array([0.2, 0.0, 0.8]))
        with pytest.raises(ValueError):
            support_entries(np.zeros(3))

    def test_projected_residual_zero_for_singleton(self):
        assert projected_residual(np.array([0.0, 1.0]), 0.3) == 0.0


class TestMinimizeChain:
    def test_exact_values(self):
        cases = [
            (1, 1.0, 1.0),
            (2, 0.5, 2.0 * SQRT2 - 1.0),
            (3, 1.0 / 3.0, 2.0 * SQRT3 - 1.0),
        ]
        for N, p, expected in cases:
            sol = minimize_chain(N, p)
            assert sol.value == pytest.approx(expected, rel=1e-9)
            assert sol.stationarity_residual <= 1e-10

    def test_two_entry_minimizer(self):
        sol = minimize_chain(2, 0.5)
        assert sol.minimizer == pytest.approx([1.0 - 1.0 / SQRT2, 1.0 / SQRT2], rel=1e-9)
        assert sol.support == 2

    def test_three_entry_support_two(self):
        sol = minimize_chain(3, 1.0 / 3.0)
        assert sol.support == 2
        assert sol.minimizer == pytest.approx([0.0, 1.0 - 1.0 / SQRT3, 1.0 / SQRT3], rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_price_at_least_one_collapses_to_point_mass(self, p):
        sol = minimize_chain(7, p)
        assert sol.value == pytest.approx(1.0 / p, rel=1e-12)
        assert sol.support == 1
        assert list(sol.minimizer) == [0.0] * 6 + [1.0]

    def test_value_matches_objective_at_minimizer(self):
        for N, p in [(2, 0.5), (5, 0.2), (12, 0.07)]:
            sol = minimize_chain(N, p)
            recomputed = t_chain(sol.entries, p)
            assert sol.value == pytest.approx(recomputed, rel=1e-12)
            assert sol.minimizer.sum() == pytest.approx(1.0, abs=1e-12)

    def test_minimizer_structure(self):
        for p in (0.5, 0.1, 0.01):
            N = math.ceil(1.0 / p) + 5
            sol = minimize_chain(N, p)
            s = sol.entries
            assert np.all(s > 0)
            assert np.all(sol.minimizer[: N - sol.support] == 0.0)
            if len(s) >= 2:
                assert np.all(np.diff(s[1:]) <= 1e-9 * s.max())
            assert s[-1] >= p - 1e-9

    def test_monotone_in_simplex_size(self):
        p = 0.2
        values = [minimize_chain(N, p).value for N in range(1, 9)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-10

    def test_stabilization(self):
        for p in (0.5, 0.11, 0.03):
            cap = math.ceil(1.0 / p)
            v1 = minimize_chain(cap, p).value
            v2 = minimize_chain(cap + 5, p).value
            assert v2 == pytest.approx(v1, rel=1e-9)

    def test_residual_recomputable_from_solution(self):
        for N, p in [(5, 0.2), (14, 0.08)]:
            sol = minimize_chain(N, p)
            assert projected_residual(sol.minimizer, p) <= 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            minimize_chain(0, 0.5)
        with pytest.raises(ValueError):
            minimize_chain(3, 0.0)
        with pytest.raises(ValueError):
            minimize_chain(3, math.inf)

    def test_nonconvergence_carries_best_iterate(self):
        with pytest.raises(NonConvergence) as exc_info:
            minimize_chain(10, 0.01, tol=1e-300)
        best = exc_info.value.best
        assert best is not None
        assert not best.converged
        assert best.value < 100.0  # better than the trivially convergent point mass

    def test_solution_serialization(self):
        sol = minimize_chain(3, 1.0 / 3.0)
        doc = sol.to_dict()
        assert doc["n"] == 3 and doc["support"] == 2
        assert doc["value"] == pytest.approx(2.0 * SQRT3 - 1.0)
        assert doc["entries"] == pytest.approx([1.0 - 1.0 / SQRT3, 1.0 / SQRT3], rel=1e-9)
        assert "minimizer" not in doc
        assert doc["oracle_gap"] is None


def full_scan(N, p):
    """Best stationary point over every support size up to min(N, ceil(1/p))."""
    best_value, best_k = 1.0 / p, 1
    for k in range(2, min(N, math.ceil(1.0 / p)) + 1):
        found = _solve_support(k, p)
        if found is not None and found[1] < best_value:
            best_value, best_k = float(found[1]), k
    return best_value, best_k


class TestShootingSolve:
    # values and supports pinned from the multi-start BFGS solver, which
    # the shooting solve reproduces
    FROZEN = [
        (1000, 17.087634580130477, 8),
        (2683, 19.767942584702439, 9),
        (7197, 22.449376240253116, 10),
        (19307, 25.131635886450482, 11),
        (51795, 27.814189165885107, 12),
        (138950, 30.496815342815701, 13),
        (372759, 33.179467236044857, 14),
        (1000000, 35.862145461107183, 15),
    ]

    def test_early_stop_matches_full_scan(self):
        # the scan costs ~min(N, 1/p)^2 shooting steps, so the random cases
        # keep min(N, 1/p) moderate; the fixed ones reach both ends of the range
        rng = np.random.default_rng(8)
        cases = [(200, 0.01), (60, 1e-3), (37, 0.05), (5, 0.3), (2, 1.0), (1, 0.5)]
        while len(cases) < 30:
            N, p = int(rng.integers(1, 201)), float(10 ** rng.uniform(-3, 0))
            if min(N, 1.0 / p) <= 40:
                cases.append((N, p))
        for N, p in cases:
            sol = minimize_chain(N, p)
            value, k = full_scan(N, p)
            assert sol.support == k, (N, p)
            assert sol.value == pytest.approx(value, rel=1e-12), (N, p)

    @pytest.mark.parametrize("N, steps", [(2, 1000), (3, 300), (4, 80), (5, 40)])
    def test_agrees_with_grid_oracle(self, N, steps):
        for p in (0.9, 1.0 / N, 0.05):
            opt = minimize_chain(N, p).value
            grid = brute_force_oracle(N, p, steps)
            assert grid >= opt - 1e-9
            assert grid - opt <= 1e-4 * opt

    def test_frozen_values_on_the_sweep_grid(self):
        assert [n for n, _, _ in self.FROZEN] == geometric_grid(1e3, 1e6, 8)
        for n, value, support in self.FROZEN:
            sol = minimize_chain(n, 1.0 / n)
            assert sol.support == support
            assert sol.value == pytest.approx(value, rel=1e-12)
            assert sol.stationarity_residual <= 1e-10

    def test_entries_sum_to_one_and_certify(self):
        # a dense length-N vector at N = 10**12 would need 8 TB
        for N, p in [(50, 0.02), (10**12, 1e-7)]:
            sol = minimize_chain(N, p)
            assert sol.entries.sum() == pytest.approx(1.0, abs=1e-12)
            assert sol.converged and sol.stationarity_residual <= 1e-10
            assert len(sol.to_dict()["entries"]) == sol.support


class TestMinimizeNoncyclic:
    def test_agrees_with_chain_route(self):
        for N, p in [(2, 0.5), (4, 0.25), (10, 0.07)]:
            chain = minimize_chain(N, p)
            windowed = minimize_noncyclic(N, p)
            assert windowed.value == pytest.approx(chain.value, rel=1e-9)
            assert windowed.consistency_gap <= 1e-9

    def test_price_one(self):
        sol = minimize_noncyclic(4, 1.0)
        assert sol.value == pytest.approx(1.0, rel=1e-12)

    def test_route_disagreement_raises(self, monkeypatch):
        import cycmax.reduction as reduction

        monkeypatch.setattr(reduction, "t_noncyclic", lambda x, p: 0.0)
        with pytest.raises(ConsistencyViolation):
            minimize_noncyclic(3, 0.5)


class TestBruteForceOracle:
    def test_single_coordinate(self):
        assert brute_force_oracle(1, 0.7, 100) == pytest.approx(1.0 / 0.7)

    def test_two_coordinates_match_closed_form(self):
        val = brute_force_oracle(2, 0.5, 1000, refinements=3)
        assert val == pytest.approx(2.0 * SQRT2 - 1.0, abs=1e-4)

    def test_three_coordinates_match_closed_form(self):
        val = brute_force_oracle(3, 1.0 / 3.0, 300, refinements=3)
        assert val == pytest.approx(2.0 * SQRT3 - 1.0, abs=1e-4)

    def test_upper_bounds_the_optimizer(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            N = int(rng.integers(2, 5))
            p = float(rng.uniform(0.15, 1.2))
            grid = brute_force_oracle(N, p, 60, refinements=2)
            opt = minimize_chain(N, p).value
            assert grid >= opt - 1e-9
            assert grid - opt <= 5e-3

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_oracle(7, 0.5, 10)


class TestCyclicBruteforce:
    def test_single_entry(self):
        assert cyclic_bruteforce(1, 50) == 1.0

    def test_two_entries(self):
        val = cyclic_bruteforce(2, 2000, refinements=3)
        assert val == pytest.approx(minimize_chain(2, 0.5).value, abs=1e-3)

    def test_three_entries(self):
        val = cyclic_bruteforce(3, 300, refinements=3)
        assert val == pytest.approx(minimize_chain(3, 1.0 / 3.0).value, abs=1e-2)

    def test_four_entries_loose(self):
        val = cyclic_bruteforce(4, 60, refinements=3)
        assert val == pytest.approx(minimize_chain(4, 0.25).value, abs=1e-2)

    def test_never_below_the_reduced_minimum(self):
        for n, steps in ((2, 500), (3, 120)):
            assert cyclic_bruteforce(n, steps, refinements=1) >= minimize_chain(n, 1.0 / n).value - 1e-9

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            cyclic_bruteforce(5, 10)


class TestVectorizedEvaluators:
    def test_composition_count(self):
        assert len(_compositions(10, 3)) == math.comb(12, 2)
        assert _compositions(5, 1).tolist() == [[5]]
        assert (_compositions(7, 4).sum(axis=1) == 7).all()

    def test_max_sum_values_match_scalar_evaluator(self):
        rng = np.random.default_rng(21)
        X = rng.dirichlet(np.ones(4), size=50)
        batch = max_sum_values(X)
        for row, expected in zip(X, batch):
            scalar = max_avg_sum(PeriodicTuple(row.tolist())).value
            assert expected == pytest.approx(scalar, rel=1e-12)
