from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycmax import (
    IndexInterval,
    PeriodicTuple,
    forward_max_average,
    interval_average,
    right_maximal,
    tuple_from_json,
)
from cycmax.periodic import (
    right_maximal_length,
    right_maximal_profile,
    tuple_to_json,
)

fractions_st = st.fractions(min_value=0, max_value=1000, max_denominator=50)


def positive_fraction_lists(min_size=1, max_size=12):
    return st.lists(fractions_st, min_size=min_size, max_size=max_size).filter(
        lambda vs: any(v > 0 for v in vs)
    )


def brute_average(values, a, b):
    n = len(values)
    return sum(values[(j - 1) % n] for j in range(a, b + 1)) / Fraction(b - a + 1)


class TestPeriodicTuple:
    def test_rejects_empty_negative_and_zero(self):
        with pytest.raises(ValueError):
            PeriodicTuple([])
        with pytest.raises(ValueError):
            PeriodicTuple([1.0, -0.5])
        with pytest.raises(ValueError):
            PeriodicTuple([0, 0, 0])

    def test_periodic_indexing(self, ref_float):
        assert ref_float.value(1) == 1.2
        assert ref_float.value(11) == 1.2
        assert ref_float.value(0) == 2.5
        assert ref_float.value(-9) == 1.2

    def test_prefix_matches_direct_sum_everywhere(self, ref_rational):
        x = ref_rational
        for k in range(-25, 45):
            if k >= 1:
                expected = sum(x.value(j) for j in range(1, k + 1))
            elif k == 0:
                expected = Fraction(0)
            else:
                expected = -sum(x.value(j) for j in range(k + 1, 1))
            assert x.prefix(k) == expected

    def test_backend_inference_and_casting(self):
        assert PeriodicTuple([Fraction(1, 2), 1]).backend == "rational"
        assert PeriodicTuple([0.5, 1]).backend == "float"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("backend", [None, "float", "rational"])
    def test_rejects_non_finite_entries(self, bad, backend):
        with pytest.raises(ValueError, match="finite"):
            PeriodicTuple([1.0, bad], backend=backend)


class TestIntervalAverage:
    def test_full_period_average(self, ref_float, ref_rational):
        assert interval_average(ref_float, IndexInterval(1, 10)) == pytest.approx(2.26, abs=1e-12)
        assert interval_average(ref_rational, IndexInterval(1, 10)) == Fraction(113, 50)

    def test_short_window(self, ref_float, ref_rational):
        assert interval_average(ref_float, IndexInterval(2, 3)) == pytest.approx(2.9, abs=1e-12)
        assert interval_average(ref_rational, IndexInterval(2, 3)) == Fraction(29, 10)

    def test_constant_tuple(self):
        x = PeriodicTuple([3.5] * 7)
        for a, b in [(1, 1), (2, 9), (-3, 15)]:
            assert interval_average(x, IndexInterval(a, b)) == pytest.approx(3.5, abs=1e-12)

    @given(positive_fraction_lists(), st.integers(-4, 4), st.integers(1, 10), st.integers(1, 20))
    def test_shift_equivalence_exact(self, values, k, i, r):
        x = PeriodicTuple(values, backend="rational")
        iv = IndexInterval(i, i + r - 1)
        assert interval_average(x, iv) == interval_average(x, iv.shifted(k * x.n))

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=2, max_size=15),
        st.integers(-3, 3),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    def test_shift_equivalence_float(self, values, k, i, r):
        x = PeriodicTuple(values)
        iv = IndexInterval(i, i + r - 1)
        a = interval_average(x, iv)
        b = interval_average(x, iv.shifted(k * x.n))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    @given(positive_fraction_lists(max_size=8), st.integers(1, 8), st.integers(1, 24))
    def test_matches_brute_force(self, values, a, r):
        x = PeriodicTuple(values, backend="rational")
        assert interval_average(x, IndexInterval(a, a + r - 1)) == brute_average(values, a, a + r - 1)


class TestRightMaximal:
    def test_reference_values(self, ref_float, ref_rational):
        assert right_maximal(ref_float, 3) == pytest.approx(3.5, abs=1e-12)
        assert right_maximal(ref_float, 9) == pytest.approx(2.26, abs=1e-12)
        assert right_maximal(ref_rational, 9) == Fraction(113, 50)

    def test_constant(self):
        x = PeriodicTuple([2.0] * 5)
        for i in range(1, 6):
            assert right_maximal(x, i) == 2.0
            # smallest maximizing window under strict comparison
            assert right_maximal_length(x, i)[1] == 1

    def test_smallest_maximizer_reported(self):
        # both windows [1:1] and [1:3] average to 2; the shorter one wins
        x = PeriodicTuple([Fraction(2), Fraction(1), Fraction(3), Fraction(100)], backend="rational")
        value, r = right_maximal_length(x, 1)
        assert r == 4  # [1:4] avg 106/4 = 26.5 beats everything
        x2 = PeriodicTuple([Fraction(2), Fraction(1), Fraction(3), Fraction(0)], backend="rational")
        value2, r2 = right_maximal_length(x2, 1)
        assert value2 == Fraction(2) and r2 == 1

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=14), st.integers(1, 14))
    def test_bounds_and_periodicity(self, values, i):
        x = PeriodicTuple(values)
        m = right_maximal(x, i)
        assert min(values) - 1e-12 <= m <= max(values) + 1e-12
        assert right_maximal(x, i + x.n) == pytest.approx(m, rel=1e-12)

    @given(positive_fraction_lists(max_size=9), st.integers(1, 9))
    def test_windows_past_one_period_never_win(self, values, i):
        x = PeriodicTuple(values, backend="rational")
        m = right_maximal(x, i)
        wide = max(
            interval_average(x, IndexInterval(i, i + r - 1)) for r in range(1, 3 * x.n + 1)
        )
        assert wide == m

    def test_profile_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(1, 40))
            x = PeriodicTuple(rng.uniform(0.001, 50.0, n).tolist())
            values, lengths = right_maximal_profile(x)
            for i in range(1, n + 1):
                v, r = right_maximal_length(x, i)
                assert values[i - 1] == v
                assert lengths[i - 1] == r


class TestForwardMaxAverage:
    def test_reference_values(self, ref_float):
        assert forward_max_average(ref_float, 2) == pytest.approx(3.5, abs=1e-12)
        assert forward_max_average(ref_float, 8) == pytest.approx(2.26, abs=1e-12)

    def test_constant(self):
        x = PeriodicTuple([4.0] * 6)
        assert forward_max_average(x, 3) == 4.0

    @given(st.lists(st.floats(0.01, 50.0), min_size=2, max_size=12), st.integers(1, 12))
    def test_between_mean_and_max(self, values, i):
        x = PeriodicTuple(values)
        m = forward_max_average(x, i)
        mean = interval_average(x, IndexInterval(1, x.n))
        assert mean - 1e-12 * max(mean, 1.0) <= m <= max(values) + 1e-12


class TestJson:
    def test_parse_float_backend(self):
        x = tuple_from_json('{"values": [1.2, 3, "7/2"]}', "float")
        assert x.backend == "float"
        assert x.values == (1.2, 3.0, 3.5)

    def test_parse_rational_reads_decimals_exactly(self):
        x = tuple_from_json('{"values": [1.2, 3, "7/2"]}', "rational")
        assert x.values == (Fraction(6, 5), Fraction(3), Fraction(7, 2))

    def test_roundtrip(self, ref_rational):
        text = tuple_to_json(ref_rational)
        again = tuple_from_json(text, "rational")
        assert again.values == ref_rational.values

    @pytest.mark.parametrize(
        "text",
        ['{"values": []}', '{"nope": [1]}', "[1, 2]", '{"values": [0, 0]}', '{"values": [-1, 2]}'],
    )
    def test_rejects_malformed(self, text):
        from cycmax.errors import CycmaxError

        with pytest.raises((CycmaxError, ValueError)):
            tuple_from_json(text, "float")

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("backend", ["float", "rational"])
    def test_rejects_non_finite_entries(self, token, backend):
        from cycmax.errors import CycmaxError

        with pytest.raises(CycmaxError, match="finite"):
            tuple_from_json('{"values": [1, %s]}' % token, backend)
