import decimal
import json
import math
import random
import sys
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycmax import (
    CycmaxError,
    brute_force_oracle,
    cyclic_bruteforce,
    minimize_chain,
    t_chain,
    t_noncyclic,
)
from cycmax.asymptotics import geometric_grid
import cycmax.reduction as reduction
from cycmax.reduction import (
    LD,
    _A_MIN,
    _compositions,
    _forward,
    _grad_ld,
    _roots,
    _size_records,
    chain_gradient_fd,
    gradient_agreement,
    max_sum_values,
)
from cycmax import PeriodicTuple, max_avg_sum
import oracles

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
        with pytest.raises(CycmaxError, match="positive entry at 0 followed by zero"):
            t_chain([0.5, 0.0, 0.5], 1.0)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            t_chain([1.0], 0.0)

    @pytest.mark.parametrize("objective", [t_chain, t_noncyclic])
    @pytest.mark.parametrize(
        "x, p, message",
        [
            ([], 1.0, "nonempty"),
            ([1.0, -1.0], 1.0, "nonnegative and finite"),
            ([0.5, math.nan], 1.0, "nonnegative and finite"),
            ([math.inf, 1.0], 1.0, "nonnegative and finite"),
            (np.array([0.5, np.nan]), 1.0, "nonnegative and finite"),
            ([0.5, 0.5], math.nan, "positive and finite"),
            ([0.5, 0.5], math.inf, "positive and finite"),
            ([0.5, 0.5], -1.0, "positive and finite"),
        ],
    )
    def test_rejects_what_it_cannot_evaluate(self, objective, x, p, message):
        # unchecked, [] raises IndexError and the rest evaluate to -2.0, nan or 1.0
        with pytest.raises(CycmaxError, match=message):
            objective(x, p)

    def test_works_on_fractions(self):
        val = t_chain([Fraction(1, 3), Fraction(2, 3)], Fraction(1, 2))
        assert val == Fraction(1, 2) + Fraction(4, 3)
        # a rational entry past the float range is finite, and so are numpy scalars
        huge = Fraction(10**400)
        assert t_chain([huge, Fraction(1)], Fraction(1, 2)) == huge + 2
        assert t_noncyclic([huge, Fraction(1)], Fraction(1, 2)) == huge + 2
        assert t_chain([np.float64(0.5), np.float64(0.5)], np.float64(0.5)) == 2.0
        assert t_chain([LD("1e400"), LD(1)], LD(0.5)) == LD("1e400") + 2


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
        with pytest.raises(CycmaxError, match="positive entry at 0 with zero forward window"):
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
        for dtype in (float, LD):
            g = _grad_ld(np.array([0.25, 0.75], dtype=dtype), dtype(0.5))
            assert g.dtype == dtype
            assert float(g[0]) == pytest.approx(1.0 / 0.75)
            assert float(g[1]) == pytest.approx(-0.25 / 0.75**2 + 2.0)

    def test_fd_uses_relative_steps(self):
        x = np.array([0.9, 0.0999, 1e-4])
        x = x / x.sum()
        g = _grad_ld(x, 1e-4)
        g_fd = chain_gradient_fd(x, 1e-4)
        assert np.linalg.norm(g_fd - g) / np.linalg.norm(g) <= 1e-6

    def test_fd_rows_match_the_per_coordinate_loop(self):
        # all 2N moved points in one batched chain sum give, bit for bit,
        # what one pass per moved point gave, on entries spread over many
        # orders of magnitude as well as on interior points
        rng = np.random.default_rng(23)
        for t in range(3000):
            N = t % 40 + 1
            x = rng.dirichlet(np.ones(N)) if t % 2 else np.exp(rng.uniform(-30, 0, N))
            x = np.maximum(x, 1e-300)
            p = float(rng.uniform(0.01, 2.0))
            assert np.array_equal(chain_gradient_fd(x, p), oracles.loop_chain_gradient_fd(x, p)), (N, p)

    def test_requires_positive_entries(self):
        for x in ([0.0, 1.0], [0.5, -0.1, 0.6]):
            with pytest.raises(ValueError, match="strictly positive"):
                chain_gradient_fd(np.array(x), 1.0)
            with pytest.raises(ValueError, match="strictly positive"):
                gradient_agreement(np.array(x), 1.0)


class TestSupportHelpers:
    def test_projected_residual_zero_for_singleton(self):
        assert oracles.residual_ld(np.ones(1, dtype=LD), LD(0.3)) == 0.0
        assert minimize_chain(7, 1.5).stationarity_residual == 0.0


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
        assert sol.entries == pytest.approx([1.0 - 1.0 / SQRT2, 1.0 / SQRT2], rel=1e-9)
        assert sol.support == 2

    def test_three_entry_support_two(self):
        sol = minimize_chain(3, 1.0 / 3.0)
        assert sol.support == 2
        assert sol.entries == pytest.approx([1.0 - 1.0 / SQRT3, 1.0 / SQRT3], rel=1e-9)

    @pytest.mark.parametrize("p", [1.0, 1.5, 4.0])
    def test_price_at_least_one_collapses_to_point_mass(self, p):
        sol = minimize_chain(7, p)
        assert sol.value == pytest.approx(1.0 / p, rel=1e-12)
        assert sol.support == 1
        assert list(sol.entries) == [1.0]

    def test_value_matches_objective_at_minimizer(self):
        for N, p in [(2, 0.5), (5, 0.2), (12, 0.07)]:
            sol = minimize_chain(N, p)
            recomputed = t_chain(sol.entries, p)
            assert sol.value == pytest.approx(recomputed, rel=1e-12)
            assert sol.entries.sum() == pytest.approx(1.0, abs=1e-12)

    def test_minimizer_structure(self):
        for p in (0.5, 0.1, 0.01):
            N = math.ceil(1.0 / p) + 5
            sol = minimize_chain(N, p)
            s = sol.entries
            assert np.all(s > 0)
            assert len(s) == sol.support <= N
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
            assert oracles.residual_ld(sol.entries.astype(LD), LD(p)) <= 1e-10

    def test_input_validation(self):
        with pytest.raises(ValueError):
            minimize_chain(0, 0.5)
        with pytest.raises(ValueError):
            minimize_chain(3, 0.0)
        with pytest.raises(ValueError):
            minimize_chain(3, math.inf)
        # N is an integer, read through operator.index: unchecked, 2.5 and True
        # are solved as sizes and "3" raises TypeError
        for N in (2.5, True, "3", np.float64(3.0)):
            with pytest.raises(CycmaxError, match="N must be a positive integer"):
                minimize_chain(N, 0.3)
        assert minimize_chain(np.int64(3), 0.3).to_dict() == minimize_chain(3, 0.3).to_dict()

    @pytest.mark.parametrize("N, p", [(np.int64(5), 0.3), (5, np.float32(0.3)), (np.int64(4), np.float32(2.0))])
    def test_numpy_inputs_give_a_json_dict(self, N, p):
        # N and p reach the solution as an int and a float, solved as the
        # Python numbers of the same value, the point mass of p >= 1 too
        d = minimize_chain(N, p).to_dict()
        assert type(d["n"]) is int and type(d["p"]) is float and type(d["value"]) is float
        assert json.loads(json.dumps(d)) == d
        assert d == minimize_chain(int(N), float(p)).to_dict()

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 5e-309])
    def test_rejects_a_price_whose_inverse_overflows(self, p):
        assert math.isinf(1.0 / p)
        with pytest.raises(ValueError, match="1/p overflows"):
            minimize_chain(10, p)
        with pytest.raises(ValueError, match="1/p overflows"):
            reduction._minimize_many([(10, 1e-3), (10, p)])

    def test_an_uncertified_root_raises(self, moved_roots):
        # a root that fails its certificate is a bug, not a solution: the
        # solve raises alone and inside a batch, where the point mass of
        # p >= 1, which has no root to certify, does not hide it
        with pytest.raises(RuntimeError, match="backward error"):
            minimize_chain(10, 0.01)
        with pytest.raises(RuntimeError, match="backward error"):
            reduction._minimize_many([(7, 1.5), (10**9, 1e-9), (10, 0.01)])
        assert minimize_chain(7, 1.5).support == 1

    def test_solution_serialization(self):
        sol = minimize_chain(3, 1.0 / 3.0)
        doc = sol.to_dict()
        assert doc["n"] == 3 and doc["support"] == 2
        assert doc["value"] == pytest.approx(2.0 * SQRT3 - 1.0)
        assert doc["entries"] == pytest.approx([1.0 - 1.0 / SQRT3, 1.0 / SQRT3], rel=1e-9)
        assert "minimizer" not in doc
        assert "converged" not in doc
        assert "oracle_gap" not in doc


def full_scan(N, p):
    """Best stationary point over every support size up to min(N, ceil(1/p)).

    Each size is solved on its own by the backward per-size oracle, with no
    stop rule.
    """
    best_value, best_k = 1.0 / p, 1
    for k in range(2, min(N, math.ceil(1.0 / p)) + 1):
        found = oracles.solve_support(k, p)
        if found is not None and found[1] < best_value:
            best_value, best_k = float(found[1]), k
    return best_value, best_k


def assert_matches_backward_oracle(got, want):
    """Same support, values and entries within 1e-13, and residual <= 1e-10 wherever the oracle's is."""
    assert got.support == want.support
    assert abs(got.value - want.value) <= 1e-13 * abs(want.value)
    assert np.allclose(got.entries, want.entries, rtol=1e-13, atol=0)
    if want.stationarity_residual <= 1e-10:
        assert got.stationarity_residual <= 1e-10


def kernel_passes(problems) -> list:
    """The column count of each ``_forward`` pass of ``_minimize_many(problems)``."""
    passes = []
    forward = reduction._forward

    def counted(a, k, **kwargs):
        passes.append(len(a))
        return forward(a, k, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "_forward", counted)
        reduction._minimize_many(problems)
    return passes


def fresh_store(monkeypatch):
    """An empty size store for the rest of the test: both arrays of ``reduction``, nothing computed."""
    monkeypatch.setattr(reduction, "_m", np.full_like(reduction._m, np.nan))
    monkeypatch.setattr(reduction, "_samples", np.empty_like(reduction._samples))


def benchmark_factors(seeds: int) -> list:
    """The scale factors f of the twelve ``sweep`` grids, f 1e3 to f 1e6, of each
    benchmark seed below ``seeds`` (``perfbench/workloads.sweep_blocks``)."""
    golden = (math.sqrt(5) - 1) / 2
    u0 = [random.Random(seed).random() for seed in range(seeds)]
    return [2.0 ** ((u + j * golden) % 1.0) for u in u0 for j in range(12)]


def solver_columns(problems):
    """The inputs and outputs of one batched ``_roots`` solve of ``problems``
    over the right branch of every size with a root, from the bracket tops,
    and every root of every size (the all-sizes oracle with that solve)."""
    calls = []

    def recorded(*args):
        inputs = [np.array(arg) for arg in args]
        calls.append((inputs, _roots(*args)))
        return calls[-1][1]

    roots = oracles.all_size_roots(problems, solve=recorded)
    (inputs, outputs), = calls
    return inputs, outputs, roots


def identity_problems() -> list:
    """Seeded batches of problems, each solved as one ``_minimize_many`` call.

    The twelve benchmark ``sweep`` grids of seeds 0 and 1, a 400-point grid
    over 3..1e300, 320 (N, p) with N in [2, 689] and ln(1/p) in [N, 690],
    where N cuts the window, and the point masses of p >= 1 and of N = 1.
    """
    batches = [[(n, 1.0 / n) for n in geometric_grid(1e3 * f, 1e6 * f, 8)] for f in benchmark_factors(2)]
    batches.append([(n, 1.0 / n) for n in geometric_grid(3, 1e300, 400)])
    rng = np.random.default_rng(25)
    batches.append([(N, float(np.exp(-rng.uniform(N, 690)))) for N in rng.integers(2, 690, 320).tolist()])
    batches.append([(N, p) for N in (1, 2, 7, 10**6) for p in (1.0, 1.5, 1e300)] + [(1, 1e-3), (1, 1e-300)])
    return batches


class TestBatchedSolve:
    """The batched forward solve against per-column runs and per-size oracles."""

    def test_kernel_matches_mpmath_per_size(self):
        # one batch of sizes 40 down to 2 at a spread of a, each column
        # against its own 50-digit run
        spread = [2.0**-65, 1e-9, 0.05, 0.3, 1.0, 7.0, 1e6]
        k = np.repeat(np.arange(40, 1, -1), len(spread))
        a = np.tile(np.array(spread, dtype=LD), 39)
        price, slope, value, q = _forward(a, k)
        eps = float(np.finfo(LD).eps)
        with mp.workdps(oracles.MP_DPS):
            for i in range(len(a)):
                x = oracles.mp_of(a[i])
                want_price, want_slope, want_value, entries = oracles.mp_forward(x, int(k[i]))
                got_price, got_slope, got_value, got_q = (oracles.mp_of(c[i]) for c in (price, slope, value, q))
                assert abs(got_price / want_price - 1) <= 2 * k[i] * eps, (k[i], a[i])
                assert abs(got_value / want_value - 1) <= 2 * k[i] * eps, (k[i], a[i])
                # q_k = u_0 / x_0, the sum of the u_j
                assert abs(got_q / (x / entries[0]) - 1) <= 2 * k[i] * eps, (k[i], a[i])
                assert abs(got_slope - want_slope) <= 2 * k[i] * eps * (1 + abs(want_slope)), (k[i], a[i])

    def test_kernel_takes_columns_in_any_order(self):
        # seeded sizes 2..700 and ln a over [ln _A_MIN, 5], run sorted by
        # size, descending, and shuffled: every output of every column reads
        # the same bits, in the order the columns came in
        rng = np.random.default_rng(32)
        k = np.sort(rng.integers(2, 701, 500))[::-1]
        a = np.exp(rng.uniform(float(np.log(_A_MIN)), 5, len(k)).astype(LD))
        shuffle = rng.permutation(len(k))
        assert not np.all(np.diff(k[shuffle]) <= 0)
        for got, want in zip(_forward(a[shuffle], k[shuffle]), _forward(a, k)):
            assert np.array_equal(got, want[shuffle])

    def test_peak_curvature_quotient_matches_mpmath(self, monkeypatch):
        # the difference quotient of the slopes of ``_peaks``' paired columns
        # against central differences of the 50-digit slope (steps of 1e-15
        # in ln a), at the a of each size's last pass, where it was taken
        k = np.array([700, 300, 40, 12, 7])
        last = {}

        def recorded(a, sizes):
            last.update(zip(sizes[::2].tolist(), a[::2]))
            return _forward(a, sizes)

        monkeypatch.setattr(reduction, "_forward", recorded)
        _, curvature = reduction._peaks(k)
        assert sorted(last) == sorted(k.tolist())
        with mp.workdps(oracles.MP_DPS):
            h = mp.mpf(10) ** -15
            for size, got in zip(k.tolist(), curvature):
                x = oracles.mp_of(last[size])
                up, down = (oracles.mp_forward(x * mp.exp(t), size, values=False)[1] for t in (h, -h))
                want = (up - down) / (2 * h)
                assert abs(oracles.mp_of(got) / want - 1) <= 1e-7, size

    def test_kernel_columns_of_different_sizes_and_prices_match_separate_calls(self):
        # the columns of one sweep-like batch, run again one at a time
        problems = [(1000, 1e-3), (372759, 1.0 / 372759), (40, 0.02), (10**9, 1e-9), (3, 1.0 / 3.0)]
        (lo, hi, start, k, p), batch, roots = solver_columns(problems)
        assert len(set(k.tolist())) > 10 and len(set(p.tolist())) == 5
        for i in range(len(start)):
            cols = slice(i, i + 1)
            alone = _roots(lo[cols].copy(), hi[cols].copy(), start[cols].copy(), k[cols], p[cols])
            assert all(np.array_equal(b[cols], c) for b, c in zip(batch, alone)), i
        # the kernel at the starts and at the roots on both sides of a*_k
        left = roots["left"]
        assert left.any() and not left.all()
        a, k = np.exp(np.concatenate([start, roots["log_a"]])), np.concatenate([k, roots["k"]])
        batch = _forward(a, k)
        for i in range(len(a)):
            alone = _forward(a[i : i + 1], k[i : i + 1])
            assert all(np.array_equal(b[i : i + 1], c) for b, c in zip(batch, alone)), i
        # the left roots' bisection, one column at a time
        k = roots["k"][left]
        hi = reduction._records(k)[1][k, reduction._LOG_A, 0]
        price = np.array([p for _, p in problems], dtype=LD)[roots["owner"][left]]
        for i, want in enumerate(zip(*(roots[name][left] for name in ("log_a", "V", "slope")))):
            cols = slice(i, i + 1)
            alone = oracles.left_roots(np.full(1, np.log(_A_MIN)), hi[cols], k[cols], price[cols])
            assert tuple(c[0] for c in alone) == want, i

    def test_roots_take_the_newton_step_of_their_last_pass(self):
        # ``_certify`` takes its Newton step with the slope ``_roots`` gives:
        # that of the column's last kernel pass, at ln a, bit for bit; the
        # root is that pass's Newton step in ln a, and V_k that pass's moved
        # there by dV_k / d ln p = -q_k, in the solver's solve from the
        # samples and in the oracle's from the bracket tops (every size up to
        # 700 at 1e-300, so the solver's alone there).  Each column is solved
        # again alone, which gives what it gives in the batch (tested above),
        # with the ln a and the kernel output of each pass recorded.
        problems = [(1000, 1e-3), (372759, 1.0 / 372759), (40, 0.02), (10**12, 1e-30), (10**12, 1e-300)]
        calls = []

        def recorded(*args):
            calls.append([np.array(arg) for arg in args])
            return _roots(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_roots", recorded)
            reduction._minimize_many(problems)
        oracles.all_size_roots(problems[:-1], solve=recorded)
        assert len(calls) == 2
        passes, newton = [], reduction._newton

        def forward(a, k):
            passes[-1].append(_forward(a, k))
            return passes[-1][-1]

        def recorded_newton(x, lo, hi, evaluate):
            def recorded_evaluate(run, xr):
                passes.append([xr.copy()])
                return evaluate(run, xr)

            return newton(x, lo, hi, recorded_evaluate)

        steps = []
        for lo, hi, start, k, p in calls:
            steps.append([])
            for i in range(len(k)):
                cols = slice(i, i + 1)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(reduction, "_forward", forward)
                    patch.setattr(reduction, "_newton", recorded_newton)
                    x, V, slope = _roots(lo[cols].copy(), hi[cols].copy(), start[cols].copy(), k[cols], p[cols])
                last, (price, last_slope, last_V, q) = passes[-1]
                h = np.log(price / p[cols])
                assert slope == last_slope, (k[i], p[i])
                assert V == last_V + q * h, (k[i], p[i])
                assert x == last - h / last_slope, (k[i], p[i])
                steps[-1].append(len(passes))
                passes.clear()
        solver, oracle = steps
        # measured: 1 pass a column from the samples (2 for one of the 20),
        # 2 to 9 from the bracket tops
        assert max(solver) <= 2 and max(oracle) >= 8

    def test_roots_match_mpmath_roots(self):
        # every branch of every size of two problems, the right roots from
        # ``_roots`` and the left ones from the oracle's bisection, against
        # the roots that mpmath finds per size by bisection and Newton steps
        for p in (1.0 / 138950, 1e-6):
            roots = oracles.all_size_roots([(10**7, p)], solve=_roots)
            k, root, value = roots["k"], roots["log_a"], roots["V"]
            assert roots["left"].any()
            for size in sorted(set(k.tolist())):
                got = sorted(zip(root[k == size], value[k == size]))
                want = oracles.mp_stationary_points(size, p)
                assert len(got) == len(want), size
                with mp.workdps(oracles.MP_DPS):
                    want = sorted((e[0] / e[1], v) for v, e in want)
                    for (x, v), (want_a, want_v) in zip(got, want):
                        assert abs(mp.exp(oracles.mp_of(x)) / want_a - 1) <= 4 * 2.0**-50, size
                        assert abs(oracles.mp_of(v) / want_v - 1) <= 1e-15, size

    def test_bit_identical_to_per_size_oracle(self):
        """Against the backward per-size oracle: same support, values and
        entries within 1e-13 and residual <= 1e-10 wherever the oracle's is, on fixed
        cases, 80 random (N, p) and a seeded grid over 1e3..1e9.

        The name is historical: the backward solve, now the oracle, was
        once the solver, and bit identical to it.
        """
        rng = np.random.default_rng(31)
        cases = [(N, p) for N in range(1, 6) for p in (0.05, 0.3, 1.0 / N, 1.0, 1.7)]
        cases += [(1000, 1e-3), (372759, 1.0 / 372759), (40, 0.02), (3, 1.0 / 3.0)]
        for _ in range(80):
            N = max(1, int(10 ** rng.uniform(0, 7)))
            cases.append((N, float(10 ** rng.uniform(-7, math.log10(2)))))
        cases += [(n, 1.0 / n) for n in sorted(int(10 ** rng.uniform(3, 9)) for _ in range(12))]
        for N, p in cases:
            assert_matches_backward_oracle(minimize_chain(N, p), oracles.minimize_by_support(N, p))

    def test_far_range(self):
        # depth ~20 raises no overflow or underflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = minimize_chain(10**9, 1e-9)
        assert got.stationarity_residual <= 1e-10 and got.support == 21
        assert_matches_backward_oracle(got, oracles.minimize_by_support(10**9, 1e-9))

        # at 1e15 the absolute residual sits above 1e-10 on both sides, a
        # rounding floor of about eps/p, and the solve is certified all the same
        got = minimize_chain(10**15, 1e-15)
        assert got.support == 35
        assert_matches_backward_oracle(got, oracles.minimize_by_support(10**15, 1e-15))

    def test_every_winner_is_certified(self):
        # each batch solves without raising: a 400-point grid over the float
        # range, and prices just below the peak of every 10th size, where the
        # right root sits next to the fold, with N at that size or past it
        grid = geometric_grid(1e3, 1e300, 400)
        sols = reduction._minimize_many([(n, 1.0 / n) for n in grid])
        k = np.arange(7, 713, 10)
        m = reduction._records(k)[0][k]
        near = [
            (N, float(np.exp(-m_k) * (1 - delta)))
            for size, m_k in zip(k.tolist(), m)
            for delta in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3)
            for N in (size, 10**9)
        ]
        sols += reduction._minimize_many(near)
        assert len(sols) == len(grid) + len(near) == 1110
        assert min(sol.support for sol in sols) >= 2

    @pytest.mark.parametrize(
        "n, support",
        [(3_170_000_000, 23), (10**15, 35), (10**30, 70), (10**100, 231), (10**200, 461), (10**300, 691)],
    )
    def test_far_range_supports_against_mpmath(self, n, support):
        # the backward solve gave 22 at 3.17e9 and 224 at 1e100, missing a
        # close pair of roots; mpmath compares the sizes around the winner
        got = minimize_chain(n, 1.0 / n)
        k, value, entries = oracles.mp_minimize(1.0 / n, range(support - 1, support + 2))
        assert got.support == k == support
        with mp.workdps(oracles.MP_DPS):
            assert abs(got.value / value - 1) <= 1e-15
            assert max(abs(x / e - 1) for x, e in zip(got.entries, entries)) <= 1e-15

    def test_window_matches_all_sizes(self):
        """The window of four sizes below min(N, ceil(ln(1/p)) + 2) gives the
        support, value, residual and entries, bit for bit, that every branch
        of every size with a root gives, solved from the bracket ends.

        n = 1/p over 2..1e9 with N = n, N <= 60 with p over 1e-12..2,
        N = 10**12 with p down to 1e-300, and N over 30..689 with ln(1/p)
        over N..690, where N cuts the window at large sizes: 924 seeded
        cases, one batch each way.
        """
        rng = np.random.default_rng(12)
        cases = [(n, 1.0 / n) for n in (int(10 ** rng.uniform(math.log10(2), 9)) for _ in range(420))]
        cases += [(int(rng.integers(1, 61)), float(10 ** rng.uniform(-12, math.log10(2)))) for _ in range(420)]
        cases += [(10**12, float(10 ** -rng.uniform(0, 300))) for _ in range(60)]
        cases += [(N, float(np.exp(-rng.uniform(N, 690)))) for N in rng.integers(30, 690, 24).tolist()]
        wants = oracles.minimize_all_sizes(cases)
        for (N, p), got, want in zip(cases, reduction._minimize_many(cases), wants):
            assert (got.support, got.value, got.stationarity_residual) == (
                want.support,
                want.value,
                want.stationarity_residual,
            ), (N, p)
            assert np.array_equal(got.entries, want.entries), (N, p)

    def test_one_pass_roots_match_the_two_pass_oracle(self):
        # the root solve takes its last Newton step without the pass that
        # confirmed it; with that pass (the oracle) the solutions read the
        # same: support, value, residual and entry bytes
        count = 0
        for problems in identity_problems():
            got = reduction._minimize_many(problems)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(reduction, "_roots", oracles.two_pass_roots)
                want = reduction._minimize_many(problems)
            for (N, p), g, w in zip(problems, got, want):
                assert (g.support, g.value, g.stationarity_residual) == (
                    w.support,
                    w.value,
                    w.stationarity_residual,
                ), (N, p)
                assert g.entries.tobytes() == w.entries.tobytes(), (N, p)
                count += g.support > 1
        assert count >= 900

    def test_certificates_keep_their_margin(self):
        # the backward error |p_k / p - 1| of every winner's certified run,
        # the one ``_run`` per winner of ``_certify``, against the bound
        # _EPS of 1.08e-19; measured, the largest of the 912 reads 9.3e-23
        errors, runs = [], []
        run, certify = reduction._run, reduction._certify

        def recorded_run(a, k):
            runs.append(run(a, k))
            return runs[-1]

        def recorded_certify(problems, *args):
            runs.clear()
            solutions = certify(problems, *args)
            assert len(runs) == len(problems)
            with decimal.localcontext() as context:
                context.prec = 40
                for (N, p), (x, q, _) in zip(problems, runs):
                    errors.append(abs(x[-1] / (q * q * decimal.Decimal(p)) - 1))
            return solutions

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_run", recorded_run)
            patch.setattr(reduction, "_certify", recorded_certify)
            for problems in identity_problems():
                reduction._minimize_many(problems)
        assert len(errors) >= 900
        assert max(errors) <= decimal.Decimal("1e-21")

    def test_left_roots_never_beat_the_right_root_of_their_size(self):
        """Every left-branch root is worth at least the right-branch root of
        its size, so the solver takes the right branch alone.

        Both branches meet at the fold, and along a branch dV/dp = -x_last/p^2;
        the left root's last entry is the larger.  Checked on N <= 60 with
        p over 1e-12..0.1, n = 1/p over 10..1e9, N = 10**12 with p down to
        1e-300, and N over 30..689 with ln(1/p) over N..690.
        """
        rng = np.random.default_rng(13)
        cases = [(int(rng.integers(2, 61)), float(10 ** rng.uniform(-12, -1))) for _ in range(150)]
        cases += [(n, 1.0 / n) for n in (int(10 ** rng.uniform(1, 9)) for _ in range(150))]
        cases += [(10**12, float(10 ** -rng.uniform(0, 300))) for _ in range(30)]
        cases += [(N, float(np.exp(-rng.uniform(N, 690)))) for N in rng.integers(30, 690, 12).tolist()]
        roots = oracles.all_size_roots(cases)
        left = roots["left"]
        right = {(o, k): v for o, k, v in zip(roots["owner"][~left], roots["k"][~left], roots["V"][~left])}
        assert left.sum() > 300
        for o, k, v in zip(roots["owner"][left], roots["k"][left], roots["V"][left]):
            assert v >= right[o, k], (cases[o], k)

    def test_warm_solve_takes_few_newton_passes(self):
        # starts from the Hermite interpolant of each size's samples, whose
        # first Newton step is short enough to be taken without a pass to
        # confirm it; from the bracket top the root solve took 11 passes on
        # the benchmark grid and at 1e30, 13 at 1e300, and from linear
        # interpolation in 96 samples 3
        grids = [[(n, 1.0 / n) for n in geometric_grid(1e3, 1e6, 8)]]
        grids += [[(n, 1.0 / n) for n in geometric_grid(1e3 * f, 1e6 * f, 8)] for f in benchmark_factors(8)]
        for problems in grids + [[(10**12, 1e-30)], [(10**12, 1e-100)], [(10**12, 1e-300)]]:
            reduction._minimize_many(problems)  # the sizes' records are cached
            passes = kernel_passes(problems)
            assert len(passes) == 1, problems
            assert passes[0] <= 4 * len(problems)
        # below n = 664 and in windows cut by N some roots take a second
        # pass (measured: 324 of 3147 columns and 1508 of 3906 here); a step
        # too short to move a off a bracket end is taken all the same, since
        # bisection from there took up to 71 passes
        rng = np.random.default_rng(7)
        small = [(n, 1.0 / n) for n in (int(10 ** rng.uniform(math.log10(3), math.log10(664))) for _ in range(1000))]
        cut = [(N, float(np.exp(-rng.uniform(N, 690)))) for N in rng.integers(2, 61, 1000).tolist()]
        for problems in (small, cut):
            reduction._minimize_many(problems)
            passes = kernel_passes(problems)
            assert len(passes) <= 2

    def test_falling_sizes_near_their_top_take_few_passes(self):
        # sizes 2..6, whose ln p_k only falls, start a root in the first
        # sample interval, from _A_MIN, by the square-root law of z (the
        # Hermite start there took up to 48 passes); measured at 1e-12,
        # 1e-9, 1e-6 and 1e-3 below each top, with N at the size and past
        # it, and pinned as upper bounds.  Size 4 at 1e-12 stays slow: the
        # slope of ln p_4 there is about 1e-12, and the rounding of h puts
        # more noise in the Newton step than _NEWTON_STEP
        measured = {2: (2, 2, 2, 1), 3: (2, 2, 2, 1), 4: (39, 2, 2, 1), 5: (2, 2, 2, 1), 6: (4, 3, 3, 2)}
        cases = [([(10**9, 0.999999)], 2)]
        k = np.arange(2, 7)
        for size, m_k in zip(k.tolist(), reduction._records(k)[0][k]):
            for d, most in zip((1e-12, 1e-9, 1e-6, 1e-3), measured[size]):
                cases += [([(N, float(np.exp(-m_k) * (1 - d)))], most) for N in (size, 10**9)]
        for problems, most in cases:
            reduction._minimize_many(problems)  # the sizes' records are cached
            assert len(kernel_passes(problems)) <= most, problems

    def test_cold_solve_takes_few_passes(self, monkeypatch):
        # a first call computes its sizes' records: a Newton peak search of
        # 3 or 4 passes, one sample pass, then the root solve; the 46
        # halvings of the bisection it replaced made that 50 passes
        for n in (10**3, 10**30, 10**300):
            fresh_store(monkeypatch)
            passes = kernel_passes([(n, 1.0 / n)])
            assert len(passes) <= 6, n  # measured: 6 at 1e3, 5 at 1e30 and 1e300


def flat_supports(supports, prices):
    """The layout ``reduction._residuals`` reads: a slot 0, then each support followed by its price."""
    x = [np.zeros(1, dtype=LD)]
    for support, p in zip(supports, prices):
        x += [np.asarray(support, dtype=LD), np.full(1, p, dtype=LD)]
    k = np.array([len(support) for support in supports])
    return np.concatenate(x), np.cumsum(k + 1) - k - 1, k


class TestCertify:
    """The winners of a batch certified together, in chunks of about ``_CHUNK`` entries."""

    def test_batched_residuals_match_the_per_vector_oracle(self):
        # each support's residual from the flat array against the oracle's
        # on that support alone: bit for bit (a bound of 0 times eps |g|),
        # because each segment sum runs from a zeroed slot, 0 plus the
        # pairwise sum of the support, the order of ``g.sum()``; on the
        # near-stationary entries of 60 solutions over 3..1e300, where the
        # projection cancels to about eps |g|, and on 300 random supports
        # of 2..712 entries spread over 40 orders of magnitude
        sols = reduction._minimize_many([(n, 1.0 / n) for n in geometric_grid(3, 1e300, 60)])
        supports, prices = [sol.entries for sol in sols], [sol.p for sol in sols]
        rng = np.random.default_rng(36)
        supports += [np.exp(rng.uniform(-92, 0, rng.integers(2, 713))) for _ in range(300)]
        prices += (10.0 ** -rng.uniform(0, 300, 300)).tolist()
        for lo, hi in [(0, 60), (60, 360), (0, 360), (17, 18), (359, 360)]:
            x, start, k = flat_supports(supports[lo:hi], prices[lo:hi])
            got = reduction._residuals(x, start, k).tolist()
            want = [oracles.residual_ld(np.asarray(e, dtype=LD), LD(p)) for e, p in zip(supports[lo:hi], prices[lo:hi])]
            assert got == want, (lo, hi)

    def test_solutions_read_the_same_alone_and_in_any_chunk(self):
        # a 120-point batch over 3..1e300 spans about 20 chunks; each of its
        # solutions reads the same bits solved alone: support, value, entry
        # bytes and residual
        problems = [(n, 1.0 / n) for n in geometric_grid(3, 1e300, 120)]
        chunks = []

        def recorded(solved, strings):
            chunks.append(len(solved))
            return solutions(solved, strings)

        solutions = reduction._solutions
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_solutions", recorded)
            batch = reduction._minimize_many(problems)
        assert len(chunks) >= 10 and sum(chunks) == len(problems)
        for (N, p), got in zip(problems, batch):
            alone = minimize_chain(N, p)
            assert (got.support, got.value, got.stationarity_residual) == (
                alone.support,
                alone.value,
                alone.stationarity_residual,
            ), N
            assert got.entries.tobytes() == alone.entries.tobytes(), N

    def test_chunks_hold_a_bounded_number_of_entries(self):
        # a chunk is rounded once its strings pass _CHUNK, and a support has
        # at most 712 entries and one slot after it
        held = []

        def recorded(solved, strings):
            held.append(len(strings))
            return solutions(solved, strings)

        solutions = reduction._solutions
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_solutions", recorded)
            reduction._minimize_many([(n, 1.0 / n) for n in geometric_grid(1e3, 1e300, 400)])
        assert len(held) > 50
        assert max(held) <= reduction._CHUNK + 713
        assert min(held[:-1]) > reduction._CHUNK

    def test_one_uncertified_winner_fails_its_batch(self):
        # the winning column of the fifth of eight problems moved by 1e-6
        # relative, its ln a by ln(1 + 1e-6): the batch raises, naming that
        # size and price, where the other seven solve as they do alone
        problems = [(n, 1.0 / n) for n in geometric_grid(1e3, 1e6, 8)]
        N, p = problems[4]
        size = minimize_chain(N, p).support
        rest = problems[:4] + problems[5:]
        want = [minimize_chain(*problem).to_dict() for problem in rest]
        moved = []

        def move(lo, hi, x, k, price):
            x, V, slope = _roots(lo, hi, x, k, price)
            col = (k == size) & (price == LD(p))
            moved.append(int(col.sum()))
            return np.where(col, x + np.log1p(LD(1e-6)), x), V, slope

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reduction, "_roots", move)
            with pytest.raises(RuntimeError, match=f"uncertified root of size {size} at p = {p!r}: backward error"):
                reduction._minimize_many(problems)
            assert [sol.to_dict() for sol in reduction._minimize_many(rest)] == want
        assert moved == [1, 0]


class TestSizeTable:
    """The shape of ln p_k in ln a that the size rule and the brackets rest on."""

    def test_peak_depth_rises_strictly(self):
        m = reduction._records(np.arange(2, 257))[0][2:257]
        steps = np.diff(m).astype(float)
        assert m[0] == 0 and np.all(steps > 0)  # m_2 = 0: p_2(a) = (1 + a)^-2
        assert 0.98 < steps.min() and steps.max() < 1.39  # measured: 0.9836 to 1.3863

    def test_every_size_peaks_more_than_one_below_its_size(self):
        # the window takes the four largest sizes with a root among the six
        # up to min(N, ceil(ln(1/p)) + 2); that they hold the four largest
        # below it needs k - m_k >= 1, so that size ceil(ln(1/p)) has a root
        top = math.ceil(math.log(sys.float_info.max)) + 2
        assert top == 712  # the largest bound a float price with a finite 1/p reaches
        k = np.arange(2, top + 1)
        gap = (k - reduction._records(k)[0][k]).astype(float)
        assert gap.min() > 1.2899 and k[gap.argmin()] == 10  # measured: 1.28996 at k = 10

    def test_samples_start_at_the_peak_and_then_rise(self):
        # every size a float price reaches: the sampled ln a start at ln a*_k
        # and never fall, and every sample after the first lies below the
        # peak, so none is a copy of it; d ln a / dz is positive past the
        # peak, and at the peak 0 exactly where ln p_k only falls
        k = np.arange(2, 713)
        m, samples = reduction._records(k)
        z, log_a, dxdz = (samples[k, field] for field in (reduction._Z, reduction._LOG_A, reduction._DXDZ))
        assert m.shape == (713,) and samples.shape == (713, 3, reduction._SAMPLES)
        assert m.nbytes + samples.nbytes <= 8e6  # measured: 7.2 MB
        rising = k >= reduction._RISING_FROM
        assert np.array_equal(log_a[rising, 0], reduction._peaks(k[rising])[0]) and np.all(z[:, 0] == 0)
        assert np.all(log_a[~rising, 0] == np.log(_A_MIN))
        assert np.all(np.diff(log_a, axis=1) >= 0)
        assert np.all(z[:, 1:] > 0)
        assert np.all(np.isfinite(dxdz)) and np.all(dxdz[:, 1:] > 0)
        assert np.array_equal(dxdz[:, 0] == 0, k < reduction._RISING_FROM)

    def test_z_samples_never_fall(self):
        # ``_start`` halves the sample indices down to the last sample below a
        # root's z, which finds the first sample at or above it only while a
        # size's samples never fall: every size a float price reaches
        k = np.arange(2, 713)
        m, samples = reduction._records(k)
        Z, LOG_A, DXDZ = reduction._Z, reduction._LOG_A, reduction._DXDZ
        assert np.all(np.diff(samples[k, Z], axis=1) >= 0)
        # so the starts equal the cubic Hermite interpolant in z between the
        # samples around the count of samples below z, on seeded sizes and
        # prices from just past the peak out to the smallest float price;
        # in the first interval of a size whose ln p_k only falls, the
        # square-root law through the sample at its end
        rng = np.random.default_rng(15)
        k = rng.integers(2, 701, 2000)
        log_p = -np.minimum(m[k] + LD(10) ** rng.uniform(-12, 3, len(k)), reduction._LOG_MAX)
        z = np.sqrt(-m[k] - log_p)
        j = (samples[k, Z] < z[:, None]).sum(axis=1)
        z0, z1, x0, x1, d0, d1 = (samples[k, field, i] for field in (Z, LOG_A, DXDZ) for i in (j - 1, j))
        h = z1 - z0
        t = (z - z0) / h
        want = x0 + t * t * (3 - 2 * t) * (x1 - x0) + h * t * (1 - t) * ((1 - t) * d0 - t * d1)
        falls = (j == 1) & (k < reduction._RISING_FROM)
        assert 0 < falls.sum() < (k < reduction._RISING_FROM).sum()
        want[falls] = x1[falls] + 2 * np.log(z[falls] / z1[falls])
        assert np.array_equal(reduction._start(m, samples, k, log_p), want)

    def test_peaks_match_bisection(self):
        # the Newton search against the 46 halvings it replaced, on every size
        # a float price reaches: ln a*_k within 1e-12 (the halvings leave
        # 6.4e-13), m_k within the kernel's rounding at both points (2 k eps
        # each, see the kernel test) and of both logs, and sizes whose ln p_k
        # only falls keep a*_k = _A_MIN and m_k bit for bit
        k = np.arange(2, 713)
        got_m, samples = reduction._records(k)
        got_m, log_peak = got_m[k], samples[k, reduction._LOG_A, 0]
        a_star, m = oracles.bisect_peaks(k)
        falls = k < reduction._RISING_FROM
        assert np.array_equal(k[falls], [2, 3, 4, 5, 6])
        assert np.all(log_peak[falls] == np.log(_A_MIN)) and np.all(a_star[falls] == _A_MIN)
        assert np.array_equal(got_m[falls], m[falls])
        assert np.all(abs(log_peak - np.log(a_star)) <= 1e-12)  # measured: 6.4e-13
        assert np.all(abs(got_m - m) <= 5 * k * np.finfo(LD).eps)  # measured: 4.4 k eps

    def test_derivative_changes_sign_at_most_once(self):
        # on a fine ln a grid from the bracket floor to a = 1e4, sizes up to 64
        grid = np.exp(np.linspace(np.log(_A_MIN), np.log(LD(1e4)), 2000, dtype=LD))
        ks = np.arange(64, 1, -1)
        rising = _forward(np.tile(grid, len(ks)), np.repeat(ks, len(grid)))[1].reshape(len(ks), -1) > 0
        changes = (rising[:, 1:] != rising[:, :-1]).sum(axis=1)
        assert changes.max() <= 1
        # where it changes, it rises first: an interior maximum, not a minimum
        assert not np.any(rising[:, -1])
        monotone = sorted(int(k) for k, row in zip(ks, rising) if not row.any())
        assert monotone == [2, 3, 4, 5, 6]  # measured; k = 7 peaks at a ~ 0.052

    def test_every_peak_lies_below_one(self):
        # the table searches for a*_k on [_A_MIN, 1]
        ks = np.arange(512, 1, -1)
        assert np.all(_forward(np.ones(len(ks), dtype=LD), ks)[1] < 0)

    def test_table_matches_mpmath(self):
        m_k, samples = reduction._records(np.arange(2, 65))
        for k in (2, 6, 7, 12, 40):
            got_peak, m = samples[k, reduction._LOG_A, 0], m_k[k]
            log_peak, top = oracles.mp_peak(k)
            with mp.workdps(oracles.MP_DPS):
                assert abs(oracles.mp_of(m) + top) <= 1e-17 * max(1.0, float(m)), k
                if k <= 6:
                    floor = np.log(_forward(np.array([_A_MIN]), np.array([k]))[0][0])
                    assert got_peak == np.log(_A_MIN) and floor == -m, k
                else:
                    assert abs(oracles.mp_of(got_peak) - log_peak) <= 1e-8, k

    def test_size_reads_the_same_in_every_table(self, monkeypatch):
        # a size reads the same whether stored alone or with others, and the
        # store computes only the sizes asked for
        batch_m, batch = _size_records(np.arange(2, 65))
        for k in (2, 7, 40, 64):
            m, samples = _size_records(np.array([k]))
            assert m[0] == batch_m[k - 2] and np.array_equal(samples[0], batch[k - 2]), k
        fresh_store(monkeypatch)
        assert minimize_chain(7, 4.0).support == 1  # ceil(ln(1/p)) + 2 < 2: no size to compute
        m, samples = reduction._records(np.array([40]))
        assert np.flatnonzero(~np.isnan(m)).tolist() == [40]
        assert m[40] == batch_m[38] and np.array_equal(samples[40], batch[38])
        reduction._records(np.arange(64, 1, -1))
        assert np.flatnonzero(~np.isnan(m)).tolist() == list(range(2, 65))
        assert np.array_equal(m[2:65], batch_m) and np.array_equal(samples[2:65], batch)

    def test_a_size_has_a_root_iff_it_peaks_above_the_price(self):
        m = reduction._records(np.arange(2, 17))[0]
        for k in (5, 12):
            top = math.exp(-float(m[k]))
            assert oracles.mp_stationary_points(k, top * (1 - 1e-9))
            assert not oracles.mp_stationary_points(k, top * (1 + 1e-9))


class TestShootingSolve:
    # values and supports pinned from the multi-start BFGS solver, which
    # the forward solve reproduces
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
        """The solve of all sizes at once finds the support and value that
        the per-size oracle finds over every size up to min(N, ceil(1/p)).

        The name is historical: the solver once walked the sizes and
        stopped early, and this checked the stop rule.
        """
        # the per-size oracle costs ~64 min(N, 1/p)^2 shooting steps, so the
        # random cases keep min(N, 1/p) moderate; the fixed ones reach both
        # ends of the range
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
            assert abs(sol.value - value) <= 1e-13 * value, (N, p)

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
            assert sol.stationarity_residual <= 1e-10
            assert len(sol.to_dict()["entries"]) == sol.support


class TestMinimizeNoncyclic:
    """At the chain minimizer the windowed (non-cyclic) sum takes the chain value."""

    def test_agrees_with_chain_route(self):
        for N, p in [(2, 0.5), (4, 0.25), (10, 0.07)]:
            sol = minimize_chain(N, p)
            windowed = t_noncyclic(sol.entries, p)
            assert windowed == pytest.approx(sol.value, rel=1e-9)
            assert abs(windowed - sol.value) / max(abs(sol.value), 1.0) <= 1e-9

    def test_price_one(self):
        # at p >= 1 the minimizer is the point mass, worth 1/p
        sol = minimize_chain(4, 1.0)
        assert sol.value == pytest.approx(1.0, rel=1e-12)
        assert t_noncyclic(sol.entries, 1.0) == pytest.approx(1.0, rel=1e-12)


class TestUncycling:
    """A windowed route that leaves the chain value fails the verify check."""

    def test_route_disagreement_fails_the_verify_check(self, monkeypatch):
        from cycmax import verify

        monkeypatch.setattr(verify, "t_noncyclic", lambda x, p: 0.0)
        results = {r.name: r for r in verify.suite_reduced(np.random.default_rng(0))}
        assert not results["windowed-equals-chain-at-minimizer"].passed


def test_reduced_suite_solves_each_problem_once(monkeypatch):
    from cycmax import verify

    calls = []

    def spied(problems):
        calls.append(list(problems))
        return reduction._minimize_many(problems)

    monkeypatch.setattr(verify, "_minimize_many", spied)
    verify.suite_reduced(np.random.default_rng(1))
    # the closed forms, the point-mass prices at N = 6, and for each price
    # the sizes of the monotonicity walk, ceil(1/p) and ceil(1/p) + 5
    read = {(1, 1.0), (2, 0.5), (3, 1.0 / 3.0)} | {(6, p) for p in (1.0, 1.5, 4.0)}
    for p in (0.5, 0.2, 0.1, 0.05, 0.01):
        cap = math.ceil(1.0 / p)
        read |= {(N, p) for N in (1, 2, 3, max(1, cap // 2), cap, cap + 5)}
    assert len(calls) == 1
    (problems,) = calls
    assert len(problems) == len(set(problems))
    assert read <= set(problems)


class TestBruteForceOracle:
    def test_single_coordinate(self):
        assert brute_force_oracle(1, 0.7, 100) == pytest.approx(1.0 / 0.7)

    def test_two_coordinates_match_closed_form(self):
        val = brute_force_oracle(2, 0.5, 1000)
        assert val == pytest.approx(2.0 * SQRT2 - 1.0, abs=1e-4)

    def test_three_coordinates_match_closed_form(self):
        val = brute_force_oracle(3, 1.0 / 3.0, 300)
        assert val == pytest.approx(2.0 * SQRT3 - 1.0, abs=1e-4)

    def test_upper_bounds_the_optimizer(self):
        rng = np.random.default_rng(4)
        for _ in range(6):
            N = int(rng.integers(2, 5))
            p = float(rng.uniform(0.15, 1.2))
            grid = brute_force_oracle(N, p, 60)
            opt = minimize_chain(N, p).value
            assert grid >= opt - 1e-9
            assert grid - opt <= 5e-3

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_oracle(7, 0.5, 10)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2, -1.0, 10), "p must be positive and finite"),
            ((2, math.nan, 10), "p must be positive and finite"),
            ((2, 0.5, 0), "grid_steps must be a positive integer"),
            ((2, 0.5, 2.5), "grid_steps must be a positive integer"),
            ((2.5, 0.5, 10), "N must be a positive integer"),
            ((True, 0.5, 10), "N must be a positive integer"),
        ],
    )
    def test_rejects_what_it_cannot_search(self, args, message):
        # unchecked, the bad prices give -1.0 and nan, grid_steps = 2.5 gives 1.6,
        # N = True gives 2.0, and the rest raise ZeroDivisionError or TypeError
        with pytest.raises(CycmaxError, match=message):
            brute_force_oracle(*args)


class TestCyclicBruteforce:
    def test_single_entry(self):
        assert cyclic_bruteforce(1, 50) == 1.0

    def test_two_entries(self):
        val = cyclic_bruteforce(2, 2000)
        assert val == pytest.approx(minimize_chain(2, 0.5).value, abs=1e-3)

    def test_three_entries(self):
        val = cyclic_bruteforce(3, 300)
        assert val == pytest.approx(minimize_chain(3, 1.0 / 3.0).value, abs=1e-2)

    def test_four_entries_loose(self):
        val = cyclic_bruteforce(4, 60)
        assert val == pytest.approx(minimize_chain(4, 0.25).value, abs=1e-2)

    def test_never_below_the_reduced_minimum(self):
        for n, steps in ((2, 500), (3, 120)):
            assert cyclic_bruteforce(n, steps) >= minimize_chain(n, 1.0 / n).value - 1e-9

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            cyclic_bruteforce(5, 10)

    @pytest.mark.parametrize("n, steps", [(2, 0), (2, -3), (2.5, 10), (True, 10), (np.float64(2.0), 10)])
    def test_rejects_a_non_integer_size_or_grid(self, n, steps):
        with pytest.raises(CycmaxError, match="must be a positive integer"):
            cyclic_bruteforce(n, steps)


class TestVectorizedEvaluators:
    def test_composition_count(self):
        assert len(_compositions(10, 3)) == math.comb(12, 2)
        assert _compositions(5, 1).tolist() == [[5]]
        assert (_compositions(7, 4).sum(axis=1) == 7).all()

    @pytest.mark.parametrize(
        "total, parts", [(5, 1), (0, 3), (3, 3), (10, 4), (300, 3), (2000, 2), (12, 6), (40, 5), (1, 6)]
    )
    def test_compositions_match_recursion_row_for_row(self, total, parts):
        got, want = _compositions(total, parts), oracles.compositions(total, parts)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    def test_grid_oracles_frozen(self):
        # The row order decides the argmin, hence the refinement centre.
        assert cyclic_bruteforce(2, 2000) == 1.8284271247461936
        assert cyclic_bruteforce(3, 300) == 2.464101615137865
        assert brute_force_oracle(5, 0.3, 12) == 2.6514841849148416

    def test_max_sum_values_match_scalar_evaluator(self):
        rng = np.random.default_rng(21)
        X = rng.dirichlet(np.ones(4), size=50)
        batch = max_sum_values(X)
        for row, expected in zip(X, batch):
            scalar = max_avg_sum(PeriodicTuple(row.tolist())).value
            assert expected == pytest.approx(scalar, rel=1e-12)
