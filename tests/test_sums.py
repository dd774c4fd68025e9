import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycmax import (
    PeriodicTuple,
    RadiusTuple,
    SubsetCollectionSystem,
    diananda_sum,
    generalized_max_sum,
    max_avg_sum,
    sum_with_radii,
)
from cycmax.sums import radii_from_json
from cycmax.errors import CycmaxError

import oracles

# Largest forward-window averages of the reference tuple, index 1..10,
# derived by hand from its irreducible maximal intervals.
REFERENCE_MAXIMA = [
    Fraction(19, 8),   # [1:8]
    Fraction(29, 10),  # [2:3]
    Fraction(7, 2),    # [3:3]
    Fraction(12, 5),   # [4:8]
    Fraction(51, 20),  # [5:8]
    Fraction(43, 15),  # [6:8]
    Fraction(31, 10),  # [7:8]
    Fraction(16, 5),   # [8:8]
    Fraction(113, 50), # [9:18]
    Fraction(5, 2),    # [10:10]
]


def reference_max_sum_expected(values):
    """Independent evaluation: x_i divided by the window maximum at i+1."""
    n = len(values)
    return sum(values[i] / REFERENCE_MAXIMA[(i + 1) % n] for i in range(n))


def spiked_tuple(n, eps):
    return PeriodicTuple([Fraction(1)] + [eps] * (n - 1), backend="rational")


def spiked_max_sum_expected(n, eps):
    """Closed-form maximal-average sum of (1, eps, ..., eps).

    The window maximum after the spike is the full-period mean; after
    position i in 2..n-1 it is the shortest window reaching the spike;
    after position n it is the spike itself.
    """
    total = 1 / ((1 + (n - 1) * eps) / n)
    for i in range(2, n):
        m = (1 + (n - i) * eps) / Fraction(n + 1 - i)
        total += eps / m
    total += eps / 1
    return total


class TestSumWithRadii:
    def test_two_entry_example(self):
        x = PeriodicTuple([Fraction(1), Fraction(2)], backend="rational")
        assert sum_with_radii(x, RadiusTuple((1, 1))) == Fraction(5, 2)

    def test_constant_tuple_gives_n(self):
        x = PeriodicTuple([3.0] * 7)
        for k in (1, 2, 5, 7):
            assert sum_with_radii(x, RadiusTuple.constant(7, k)) == pytest.approx(7.0, rel=1e-12)

    def test_full_window_radii(self, ref_float):
        value = sum_with_radii(ref_float, RadiusTuple.constant(10, 10))
        assert value == pytest.approx(10.0, rel=1e-12)

    def test_zero_denominator_raises(self):
        x = PeriodicTuple([1.0, 0.0, 1.0, 0.0])
        with pytest.raises(CycmaxError, match="window of length 1 after index 1 sums to zero"):
            sum_with_radii(x, RadiusTuple((1, 1, 1, 1)))
        # wider windows avoid the zero
        assert sum_with_radii(x, RadiusTuple((2, 2, 2, 2))) == pytest.approx(4.0)

    @pytest.mark.parametrize("values", [[1e16, 3.0, 1.0], [1e20, 1e-5, 1.0]])
    def test_float_matches_rational_after_a_large_entry(self, values):
        # as a difference of prefix sums, the window after the large entry cancelled
        x = PeriodicTuple(values)
        exact = PeriodicTuple([Fraction(v) for v in values], backend="rational")
        for k in (1, 2, 4, 7):
            radii = RadiusTuple.constant(3, k)
            expected = float(sum_with_radii(exact, radii))
            assert sum_with_radii(x, radii) == pytest.approx(expected, rel=1e-14)

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            RadiusTuple((0, 1))
        with pytest.raises(ValueError):
            RadiusTuple(())
        with pytest.raises(ValueError):
            RadiusTuple((True, 2))
        x = PeriodicTuple([1.0, 2.0])
        with pytest.raises(ValueError):
            sum_with_radii(x, RadiusTuple((1, 1, 1)))

    @given(
        st.lists(st.floats(0.5, 50.0), min_size=2, max_size=10),
        st.floats(0.1, 20.0),
        st.data(),
    )
    def test_scale_invariance(self, values, t, data):
        # entries within a 100:1 band: prefix-difference averages stay
        # accurate to ~1e-13 relative, well inside the asserted slack
        x = PeriodicTuple(values)
        radii = RadiusTuple(tuple(data.draw(st.integers(1, x.n)) for _ in range(x.n)))
        a = sum_with_radii(x, radii)
        b = sum_with_radii(PeriodicTuple([v * t for v in x.values], backend=x.backend), radii)
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    @given(
        st.lists(st.floats(0.5, 50.0), min_size=2, max_size=10),
        st.integers(1, 10),
        st.data(),
    )
    def test_rotation_invariance(self, values, start, data):
        x = PeriodicTuple(values)
        radii = RadiusTuple(tuple(data.draw(st.integers(1, x.n)) for _ in range(x.n)))
        a = sum_with_radii(x, radii)
        s = (start - 1) % x.n
        b = sum_with_radii(PeriodicTuple(values[s:] + values[:s]), RadiusTuple(radii.radii[s:] + radii.radii[:s]))
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


class TestDiananda:
    def test_two_entry_example(self):
        x = PeriodicTuple([Fraction(1), Fraction(2)], backend="rational")
        assert diananda_sum(x, 1) == Fraction(5, 2)

    def test_constant(self):
        x = PeriodicTuple([2.0] * 6)
        for k in (1, 2, 3, 6):
            assert diananda_sum(x, k) == pytest.approx(6.0 / k, rel=1e-12)

    def test_full_period_radius_gives_one(self):
        x = PeriodicTuple([Fraction(3), Fraction(1), Fraction(4), Fraction(1)], backend="rational")
        assert diananda_sum(x, 4) == 1

    def test_rejects_bad_k(self, ref_float):
        with pytest.raises(ValueError):
            diananda_sum(ref_float, 0)


class TestMaxAvgSum:
    def test_constant_tuple(self):
        res = max_avg_sum(PeriodicTuple([2.5] * 8))
        assert res.value == pytest.approx(8.0, rel=1e-12)
        assert res.radii.radii == (1,) * 8

    def test_reference_hand_evaluation(self, ref_rational):
        res = max_avg_sum(ref_rational)
        assert res.value == reference_max_sum_expected(ref_rational.values)
        assert res.radii.radii == (2, 1, 5, 4, 3, 2, 1, 10, 1, 8)

    def test_spiked_tuple_exact(self):
        for eps in (Fraction(1, 10**6), Fraction(1, 1000)):
            x = spiked_tuple(10, eps)
            res = max_avg_sum(x)
            assert res.value == spiked_max_sum_expected(10, eps)
        # the forward shift matters: the value is near n, not near 1
        assert float(max_avg_sum(spiked_tuple(10, Fraction(1, 10**6))).value) == pytest.approx(
            10.0, abs=1e-3
        )

    def test_argmax_radii_reproduce_value(self, ref_rational):
        res = max_avg_sum(ref_rational)
        assert sum_with_radii(ref_rational, res.radii) == res.value

    def test_envelope_over_random_radii(self, ref_float):
        rng = np.random.default_rng(3)
        res = max_avg_sum(ref_float)
        for _ in range(200):
            radii = RadiusTuple(tuple(int(r) for r in rng.integers(1, 11, 10)))
            assert sum_with_radii(ref_float, radii) >= res.value - 1e-12

    @given(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=12))
    def test_bounds(self, values):
        res = max_avg_sum(PeriodicTuple(values))
        n = len(values)
        assert 1.0 - 1e-12 <= res.value <= n + 1e-9 * n

    @given(st.lists(st.floats(0.5, 50.0), min_size=2, max_size=10), st.integers(1, 10))
    def test_rotation_invariance(self, values, start):
        a = max_avg_sum(PeriodicTuple(values)).value
        s = (start - 1) % len(values)
        b = max_avg_sum(PeriodicTuple(values[s:] + values[:s])).value
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)


class TestGeneralizedMaxSum:
    def test_full_set_system_gives_n(self, ref_rational):
        n = ref_rational.n
        system = SubsetCollectionSystem([[list(range(1, n + 1))]] * n)
        assert generalized_max_sum(ref_rational, system) == n

    def test_constant_tuple_any_system(self):
        rng = np.random.default_rng(9)
        n = 6
        x = PeriodicTuple([Fraction(3)] * n, backend="rational")
        for _ in range(20):
            collections = []
            for _i in range(n):
                subsets = []
                for _j in range(int(rng.integers(1, 4))):
                    size = int(rng.integers(1, n + 1))
                    subsets.append((rng.choice(n, size=size, replace=False) + 1).tolist())
                collections.append(subsets)
            assert generalized_max_sum(x, SubsetCollectionSystem(collections)) == n

    def test_spike_bound_under_hypotheses(self):
        # full set everywhere plus the singleton {1}: the classic collapse to 1
        n = 10
        full = list(range(1, n + 1))
        collections = [[full, [1]]] + [[full]] * (n - 1)
        system = SubsetCollectionSystem(collections)
        for eps in (Fraction(1, 1000), Fraction(1, 10**6)):
            x = spiked_tuple(n, eps)
            value = generalized_max_sum(x, system)
            assert 1 <= value <= 1 + (n - 1) * n * eps

    def test_right_window_system_matches_unshifted_maxima(self, ref_rational):
        from cycmax.periodic import right_maximal

        system = oracles.right_window_system(ref_rational.n)
        expected = sum(
            ref_rational.values[i - 1] / right_maximal(ref_rational, i)
            for i in range(1, ref_rational.n + 1)
        )
        assert generalized_max_sum(ref_rational, system) == expected

    def test_right_window_system_spike_bound(self):
        n = 10
        system = oracles.right_window_system(n)
        for eps in (Fraction(1, 1000), Fraction(1, 10**6)):
            value = generalized_max_sum(spiked_tuple(n, eps), system)
            assert 1 <= value <= 1 + (n - 1) * n * eps

    def test_float_tuple_builds_one_rational_twin(self, monkeypatch):
        rng = np.random.default_rng(4)
        n = 40
        x = PeriodicTuple(rng.uniform(0.05, 10.0, size=n).tolist())
        system = SubsetCollectionSystem(
            [[(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) + 1).tolist() for _ in range(2)] for _ in range(n)]
        )
        # the exact sum, each index's term read off a twin of its own, rounded once
        expected = float(sum(
            Fraction(x.values[i - 1]) / system.max_subset_average(PeriodicTuple(x.values), i) for i in range(1, n + 1)
        ))
        twins = []
        build = PeriodicTuple.__init__

        def counted(self, values, backend=None):
            if backend == "rational":
                twins.append(self)
            build(self, values, backend)

        monkeypatch.setattr(PeriodicTuple, "__init__", counted)
        value = generalized_max_sum(x, system)
        assert len(twins) == 1
        assert type(value) is float and value == expected
        # the twin stays with the tuple
        assert generalized_max_sum(x, system) == value and len(twins) == 1

    def test_inadmissible_when_all_averages_zero(self):
        x = PeriodicTuple([Fraction(0), Fraction(1)], backend="rational")
        system = SubsetCollectionSystem([[[1]], [[2]]])
        with pytest.raises(CycmaxError, match="all subset averages at index 1 are zero"):
            generalized_max_sum(x, system)

    def test_validation(self):
        with pytest.raises(ValueError):
            SubsetCollectionSystem([])
        with pytest.raises(ValueError):
            SubsetCollectionSystem([[]])
        with pytest.raises(ValueError):
            SubsetCollectionSystem([[[0]]])
        with pytest.raises(ValueError):
            SubsetCollectionSystem([[[3]]])  # index beyond n=1

    @pytest.mark.parametrize("entry", [1.7, 1.0, np.float64(1.0), True, np.bool_(True), "1"])
    def test_rejects_an_index_that_is_not_an_integer(self, entry):
        # int() once turned 1.7 into 1 and read True and "1" as index 1
        with pytest.raises(CycmaxError, match="at index 1 must hold integer indices"):
            SubsetCollectionSystem([[[entry]]])
        with pytest.raises(CycmaxError, match="at index 2 must hold integer indices"):
            SubsetCollectionSystem([[[1]], [[1], [2, entry]]])

    def test_numpy_integer_indices_are_ints(self):
        system = SubsetCollectionSystem([[np.array([2, 1])], [[np.int32(2)]]])
        assert system.collections == (((1, 2),), ((2,),))
        assert all(type(v) is int for subsets in system.collections for s in subsets for v in s)

    def test_duplicate_subsets_removed(self):
        system = SubsetCollectionSystem([[[1, 2], [2, 1], [1]], [[1, 2]]])
        assert system.collections[0] == ((1, 2), (1,))
        # past 64 indices too, with repeated and reordered entries
        n = 70
        first = [[70, 1, 65], [2], [1, 65, 70], [65, 65, 1, 70], [2, 2], [69, 70]]
        system = SubsetCollectionSystem([first] + [[[i]] for i in range(2, n + 1)])
        assert system.collections[0] == ((1, 65, 70), (2,), (69, 70))
        assert system.collections[1:] == tuple(((i,),) for i in range(2, n + 1))


def seeded_tuples(seed: int, count: int = 80):
    """Float tuples (uniform, and of mixed magnitudes), rational tuples
    with mixed denominators, and tied tuples of small integers with zeros."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        n = int(rng.integers(1, 16))
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
        yield rng, PeriodicTuple(values)


def outcome(f, *args):
    """The value with its type, or the message of the ``CycmaxError`` raised."""
    try:
        value = f(*args)
    except CycmaxError as exc:
        return str(exc)
    return value, type(value)


class TestReplacedForms:
    """The table and slice forms against the per-window forms they replaced."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sum_with_radii_matches_index_by_index_fsum(self, seed):
        for rng, x in seeded_tuples(seed):
            n = x.n
            # radii up to one period, and past it, beyond 3n
            for top in (n, 3 * n + 2):
                radii = RadiusTuple(tuple(int(r) for r in rng.integers(1, top + 1, n)))
                assert outcome(sum_with_radii, x, radii) == outcome(oracles.fsum_sum_with_radii, x, radii)
            for k in (1, 2, n, n + 1, 2 * n + 3):
                radii = RadiusTuple.constant(n, k)
                assert outcome(sum_with_radii, x, radii) == outcome(oracles.fsum_sum_with_radii, x, radii)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generalized_max_sum_matches_fraction_terms(self, seed):
        for rng, x in seeded_tuples(seed):
            n = x.n
            pool = [(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False) + 1).tolist() for _ in range(3)]
            # subsets repeated within a collection and shared between collections
            collections = [
                [pool[int(rng.integers(0, 3))] for _ in range(int(rng.integers(1, 5)))] + [list(range(1, n + 1))]
                for _ in range(n)
            ]
            for system in (SubsetCollectionSystem(collections), oracles.right_window_system(n)):
                # the exact sum over the rational twin, rounded once on a float tuple
                want = outcome(oracles.fraction_generalized_max_sum, x._exact(), system)
                if x.backend == "float" and type(want) is tuple:
                    want = float(want[0]), float
                assert outcome(generalized_max_sum, x, system) == want

    def test_zero_subset_average_named_by_both(self):
        x = PeriodicTuple([Fraction(1), Fraction(0), Fraction(0)], backend="rational")
        system = SubsetCollectionSystem([[[1, 2]], [[2, 3], [3]], [[1]]])
        want = "all subset averages at index 2 are zero"
        for y in (x, PeriodicTuple([1.0, 0.0, 0.0])):
            assert outcome(generalized_max_sum, y, system) == want
            assert outcome(oracles.fraction_generalized_max_sum, y, system) == want


class TestUnderflow:
    """A float average of a tiny positive sum can fall below the normal
    range, where it keeps fewer than 53 bits or rounds to 0.0."""

    SUBNORMAL = "is below the normal float range (the rational backend reads it exactly)"

    def test_max_avg_sum(self):
        # 5e-324 / 3 rounds to 0.0, and 1e-322 / 7 keeps 5 bits: 6.67 for 7
        for values in ([5e-324, 0.0, 0.0], [1e-320, 0.0, 0.0], [1e-322] + [0.0] * 6):
            with pytest.raises(CycmaxError, match=re.escape("a right maximal value " + self.SUBNORMAL)):
                max_avg_sum(PeriodicTuple(values))
            exact = PeriodicTuple([Fraction(v) for v in values], backend="rational")
            assert max_avg_sum(exact).value == len(values)

    def test_generalized_max_sum(self):
        # summed exactly over the rational twin on both backends
        system = SubsetCollectionSystem([[[1, 2, 3]]] * 3)
        assert generalized_max_sum(PeriodicTuple([5e-324, 0.0, 0.0]), system) == 3.0
        exact = PeriodicTuple([Fraction(5e-324), Fraction(0), Fraction(0)], backend="rational")
        assert generalized_max_sum(exact, system) == 3

    def test_sum_with_radii_tells_underflow_from_zero_sum(self):
        for values in ([5e-324, 0.0, 0.0], [1e-320, 0.0, 0.0]):
            x = PeriodicTuple(values)
            with pytest.raises(CycmaxError, match=re.escape(
                "the average of the window of length 3 after index 1 " + self.SUBNORMAL
            )):
                sum_with_radii(x, RadiusTuple.constant(3, 3))
            with pytest.raises(CycmaxError, match="^window of length 1 after index 1 sums to zero$"):
                sum_with_radii(x, RadiusTuple.constant(3, 1))
        # the smallest normal average is kept
        x = PeriodicTuple([3 * sys.float_info.min, 0.0, 0.0])
        assert sum_with_radii(x, RadiusTuple.constant(3, 3)) == 3.0


class TestOverflow:
    """A float sum past the float range is an error, not inf."""

    OVERFLOW = "the sum exceeds the float range (the rational backend sums it exactly)"

    def test_sum_with_radii(self):
        # 1e300 / 1e-300 is inf in floats
        x = PeriodicTuple([1e300, 1e-300])
        with pytest.raises(CycmaxError, match=re.escape(self.OVERFLOW)):
            sum_with_radii(x, RadiusTuple.constant(2, 1))
        with pytest.raises(CycmaxError, match=re.escape(self.OVERFLOW)):
            diananda_sum(x, 1)
        exact = PeriodicTuple([Fraction(1e300), Fraction(1e-300)], backend="rational")
        a, b = exact.values
        assert sum_with_radii(exact, RadiusTuple.constant(2, 1)) == a / b + b / a

    def test_generalized_max_sum(self):
        system = SubsetCollectionSystem([[[2]], [[1]]])
        with pytest.raises(CycmaxError, match=re.escape(self.OVERFLOW)):
            generalized_max_sum(PeriodicTuple([1e300, 1e-300]), system)
        exact = PeriodicTuple([Fraction(1e300), Fraction(1e-300)], backend="rational")
        a, b = exact.values
        assert generalized_max_sum(exact, system) == a / b + b / a


class TestJsonInterfaces:
    def test_radii_roundtrip(self):
        radii = radii_from_json('{"radii": [1, 2, 3]}')
        assert radii.radii == (1, 2, 3)

    def test_radii_malformed(self):
        for text in (
            '{"radii": []}', '{"radii": [0]}', '{"x": 1}', "oops",
            '{"radii": "12"}', '{"radii": [1.7, 2.2]}', '{"radii": [true, 2]}', '{"radii": ["1", "2"]}',
        ):
            with pytest.raises(CycmaxError):
                radii_from_json(text)
