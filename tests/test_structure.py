import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cycmax import (
    IndexInterval,
    PeriodicTuple,
    build_poset,
    full_maximal_start,
    interval_average,
    m_interval,
)
from cycmax import verify
from cycmax.periodic import right_maximal_profile
from cycmax.structure import (
    IntervalPoset,
    MIntervalRecord,
    all_m_intervals,
    average_table,
    distinct_short_averages,
    has_majorizing_prefixes,
)
from cycmax.sums import SubsetCollectionSystem, generalized_max_sum

import oracles

# start -> (kappa, exact average) for the 10-entry reference tuple
REFERENCE_CLASSES = {
    1: (7, Fraction(19, 8)),
    2: (1, Fraction(29, 10)),
    3: (0, Fraction(7, 2)),
    4: (4, Fraction(12, 5)),
    5: (3, Fraction(51, 20)),
    6: (2, Fraction(43, 15)),
    7: (1, Fraction(31, 10)),
    8: (0, Fraction(16, 5)),
    9: (9, Fraction(113, 50)),
    10: (0, Fraction(5, 2)),
}

REFERENCE_PARENTS = {1: 9, 2: 1, 3: 2, 4: 1, 5: 4, 6: 5, 7: 6, 8: 7, 9: None, 10: 9}


def random_generic_rational(rng, min_n=3, max_n=12):
    while True:
        n = int(rng.integers(min_n, max_n + 1))
        x = PeriodicTuple([Fraction(int(v)) for v in rng.integers(1, 10**6, n)], backend="rational")
        if distinct_short_averages(x):
            return x


def brute_majorizing_starts(x):
    """All rotation starts whose proper prefix sums stay strictly below the mean line."""
    return [i for i in range(1, x.n + 1) if has_majorizing_prefixes(x, i)]


class TestMInterval:
    def test_reference_examples(self, ref_rational):
        rec = m_interval(ref_rational, 1)
        assert (rec.start, rec.kappa, rec.average) == (1, 7, Fraction(19, 8))
        rec9 = m_interval(ref_rational, 9)
        assert (rec9.start, rec9.kappa, rec9.average) == (9, 9, Fraction(113, 50))

    def test_all_reference_classes(self, ref_rational):
        got = {r.start: (r.kappa, r.average) for r in all_m_intervals(ref_rational)}
        assert got == REFERENCE_CLASSES

    def test_float_backend_agrees(self, ref_float):
        got = {r.start: (r.kappa, round(float(r.average), 9)) for r in all_m_intervals(ref_float)}
        expected = {s: (k, round(float(a), 9)) for s, (k, a) in REFERENCE_CLASSES.items()}
        assert got == expected

    def test_constant_tuple_is_singletons(self):
        x = PeriodicTuple([5.0] * 6)
        for i in range(1, 7):
            rec = m_interval(x, i)
            assert rec.kappa == 0 and rec.average == 5.0

    def test_index_reduced_mod_n(self, ref_float):
        assert m_interval(ref_float, 11).start == 1
        assert m_interval(ref_float, 0).start == 10


class TestFullMaximalStart:
    def test_reference(self, ref_float, ref_rational):
        assert full_maximal_start(ref_float) == 9
        assert full_maximal_start(ref_rational) == 9

    def test_constant_returns_first_index(self):
        assert full_maximal_start(PeriodicTuple([1.0] * 8)) == 1

    def test_matches_rotation_oracle_on_generic_tuples(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = random_generic_rational(rng)
            starts = brute_majorizing_starts(x)
            assert len(starts) == 1
            assert full_maximal_start(x) == starts[0]
            assert m_interval(x, starts[0]).kappa == x.n - 1


class TestMajorizingRotation:
    def test_reference_partial_sums(self, ref_rational):
        i_star = full_maximal_start(ref_rational)
        assert i_star == 9
        mean = ref_rational.average
        rotation = [ref_rational.values[(8 + j) % 10] for j in range(10)]
        assert rotation == [
            Fraction(11, 10), Fraction(5, 2), Fraction(6, 5), Fraction(23, 10),
            Fraction(7, 2), Fraction(9, 5), Fraction(8, 5), Fraction(12, 5),
            Fraction(3), Fraction(16, 5),
        ]
        partial = Fraction(0)
        for k, v in enumerate(rotation[:-1], start=1):
            partial += v
            assert partial < k * mean
        assert sum(rotation) == 10 * mean

    def test_constant_boundary_case(self):
        x = PeriodicTuple([2.0] * 5)
        assert full_maximal_start(x) == 1
        # every proper prefix sum meets the mean line, so no start qualifies
        assert not any(has_majorizing_prefixes(x, i) for i in range(1, 6))

    def test_exactly_one_strict_rotation(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            x = random_generic_rational(rng)
            assert len(brute_majorizing_starts(x)) == 1


class TestPoset:
    def test_reference_tree(self, ref_rational):
        poset = build_poset(ref_rational)
        assert poset.root == 9
        assert poset.parent == REFERENCE_PARENTS
        assert poset.minimal_elements() == [3, 8, 10]
        assert poset.chain_to_root(8) == [8, 7, 6, 5, 4, 1, 9]
        assert poset.chain_to_root(3) == [3, 2, 1, 9]
        assert poset.is_tree()
        assert poset.nodes[9].average == ref_rational.average

    def test_constant_tuple_forest(self):
        poset = build_poset(PeriodicTuple([1.0] * 4))
        assert poset.root is None
        assert all(p is None for p in poset.parent.values())
        assert poset.minimal_elements() == [1, 2, 3, 4]
        assert not poset.is_tree()

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=14).filter(any),
        st.sampled_from(["float", "rational"]),
    )
    def test_tied_classes_nest(self, values, backend):
        # Shortest maximal windows never cross, even when averages tie, and
        # each Hasse parent strictly contains its child up to a shift by n.
        x = PeriodicTuple([Fraction(v) for v in values], backend=backend)
        records = all_m_intervals(x)
        for a in records:
            for b in records:
                for t in (-1, 0, 1):
                    sb = b.interval.shifted(t * x.n)
                    overlap = sb.a <= a.interval.b and a.interval.a <= sb.b
                    assert not overlap or a.interval.contains(sb) or sb.contains(a.interval)
        poset = build_poset(x)
        for child, parent in poset.parent.items():
            if parent is None:
                continue
            inner, outer = poset.nodes[child], poset.nodes[parent]
            assert outer.cardinality > inner.cardinality
            assert any(
                outer.interval.contains(inner.interval.shifted(t * x.n)) for t in (-1, 0, 1)
            )

    def test_generic_structure_properties(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            x = random_generic_rational(rng)
            records = all_m_intervals(x)
            poset = build_poset(x)
            assert poset.is_tree()
            full = [r for r in records if r.kappa == x.n - 1]
            assert len(full) == 1 and full[0].start == poset.root
            assert poset.nodes[poset.root].average == x.average
            for child, parent in poset.parent.items():
                if parent is not None:
                    assert poset.nodes[child].average > poset.nodes[parent].average

    def test_verify_check_reports_crossing_classes(self, monkeypatch):
        # The check compares integer (start, end) pairs; fed two crossing
        # classes it must name both crossings, one of them across the period.
        x = PeriodicTuple([Fraction(v) for v in (5, 1, 7, 2)], backend="rational")
        crossing = [MIntervalRecord(1, 2, Fraction(13, 3)), MIntervalRecord(3, 2, Fraction(14, 3))]
        poset = IntervalPoset(4, {rec.start: rec for rec in crossing}, {1: None, 3: None}, None)
        monkeypatch.setattr(verify, "build_poset", lambda x: poset)
        assert verify._poset_checks_one(x) == [
            "[1:3] and [-1:1] overlap without nesting",
            "[1:3] and [3:5] overlap without nesting",
            "inclusion order is not a tree",
            "0 full-length classes",
        ]

    def test_nonoverlap_on_generic_tuples(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            x = random_generic_rational(rng)
            records = all_m_intervals(x)
            for a in records:
                for b in records:
                    if a.start >= b.start:
                        continue
                    for t in (-1, 0, 1):
                        sb = b.interval.shifted(t * x.n)
                        overlap = sb.a <= a.interval.b and a.interval.a <= sb.b
                        nested = a.interval.contains(sb) or sb.contains(a.interval)
                        assert not overlap or nested


class TestSerialization:
    def test_poset_json_shape(self, ref_rational):
        doc = json.loads(json.dumps(build_poset(ref_rational).to_dict()))
        assert doc["root"] == 9
        assert len(doc["nodes"]) == 10
        assert sorted(doc["edges"]) == sorted(
            [[c, p] for c, p in REFERENCE_PARENTS.items() if p is not None]
        )
        node9 = next(n for n in doc["nodes"] if n["start"] == 9)
        assert node9["kappa"] == 9 and node9["average"] == pytest.approx(2.26)

    def test_dot_output(self, ref_float):
        dot = build_poset(ref_float).to_dot()
        assert dot.startswith("digraph")
        assert '[label="[9:18] a=2.26"' in dot
        assert dot.count("->") == 9


class TestDistinctShortAverages:
    def test_small_cases(self):
        assert distinct_short_averages(PeriodicTuple([Fraction(1), Fraction(2)], backend="rational"))
        assert not distinct_short_averages(PeriodicTuple([Fraction(1), Fraction(1)], backend="rational"))

    def test_reference_tuple_has_ties(self, ref_rational):
        # window [5:6] and window [10:12] both average 2, among others
        assert not distinct_short_averages(ref_rational)

    # lcm(1..n), the key's scale, passes 2**64 from n = 47 on
    @pytest.mark.parametrize("n", [4, 12, 30, 46, 47, 53, 60])
    def test_verdicts_match_the_fraction_oracle_up_to_n_60(self, n):
        rng = np.random.default_rng(n)
        generic = [int(v) for v in rng.integers(1, 10**12, n)]
        # (x_3 + x_4) / 2 equals the entry x_1: a tie across window lengths
        planted = generic.copy()
        planted[2], planted[3] = planted[0] - 7, planted[0] + 7
        # x_1 equals the average of the next q entries, q the largest prime below
        # n - 1 (at q = n - 1, x_1 would be the mean too): a tie between lengths 1 and q
        q = max(k for k in range(2, n - 1) if all(k % d for d in range(2, k)))
        prime_tie = generic.copy()
        prime_tie[q] += -sum(prime_tie[1 : q + 1]) % q
        prime_tie[0] = sum(prime_tie[1 : q + 1]) // q
        tied = [int(v) for v in rng.integers(0, 4, n)]
        tied[0] += 1
        cases = [
            (PeriodicTuple([Fraction(v) for v in generic], backend="rational"), True),
            (PeriodicTuple([Fraction(v) for v in planted], backend="rational"), False),
            (PeriodicTuple([Fraction(v) for v in prime_tie], backend="rational"), False),
            (PeriodicTuple([Fraction(v) for v in tied], backend="rational"), None),
            (PeriodicTuple(rng.uniform(0.05, 10.0, n).tolist()), True),
            (PeriodicTuple([float(v) for v in planted]), False),
        ]
        assert math.lcm(*range(1, n + 1)) >= 2**64 or n < 47
        for x, distinct in cases:
            verdict = distinct_short_averages(x)
            assert verdict == oracles.fraction_distinct_short_averages(x)
            if distinct is not None:
                assert verdict is distinct


def float_bits(rows):
    """A table of floats with each cell as its exact hex spelling."""
    return [[v.hex() for v in row] for row in rows]


class TestAverageTable:
    """One C-contiguous float64 array, cell for cell the list form it replaced."""

    CASES = {
        "n-1": [3],
        "seeded-2": np.random.default_rng(2).uniform(0.05, 10.0, 2).tolist(),
        "seeded-79": np.random.default_rng(79).uniform(0.05, 10.0, 79).tolist(),
        "wide": [1e16, 3, 1],
        "near-1e300": [1e300, 2.5e300, 7e299, 1.3e300],
        "subnormal": [0, 0, 1e-310],
    }

    @staticmethod
    def assert_array_form(table, n):
        assert type(table) is np.ndarray and table.dtype == np.float64
        assert table.shape == (n - 1, n) and table.flags.c_contiguous

    def test_shape_and_first_row(self, ref_float):
        table = average_table(ref_float)
        assert len(table) == 9 and all(len(row) == 10 for row in table)
        assert table[0] == pytest.approx(list(ref_float.values), rel=1e-14)

    def test_reference_spot_values(self, ref_rational):
        table = average_table(ref_rational)
        self.assert_array_form(table, 10)
        assert table[1, 1] == float(Fraction(29, 10))     # r=2, i=2
        assert table[7, 0] == float(Fraction(19, 8))      # r=8, i=1
        assert table[8, 3] == float(Fraction(191, 90))    # r=9, i=4 = 2.1222...

    def test_cells_equal_interval_averages_exactly(self):
        # the table is the output of analyze json and csv, so it must stay
        # bit for bit the per-cell definition on both backends: float of
        # the exact average on the rational one
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(1, 60))
            floats = PeriodicTuple(rng.uniform(0.05, 10.0, n).tolist())
            ints = [int(v) for v in rng.integers(0, 4, n)]
            ints[0] += 1
            for x in (floats, PeriodicTuple(ints, backend="rational")):
                want = [
                    [float(interval_average(x, IndexInterval(i, i + r - 1))) for i in range(1, n + 1)]
                    for r in range(1, n)
                ]
                table = average_table(x)
                self.assert_array_form(table, n)
                assert float_bits(table.tolist()) == float_bits(want)

    @pytest.mark.parametrize("backend", ["float", "rational"])
    @pytest.mark.parametrize("case", CASES)
    def test_same_cells_as_the_list_form(self, backend, case):
        x = PeriodicTuple(self.CASES[case], backend=backend)
        table = average_table(x)
        self.assert_array_form(table, x.n)
        assert float_bits(table.tolist()) == float_bits(oracles.list_average_table(x))

    def test_rational_cells_round_to_subnormals(self):
        table = average_table(PeriodicTuple([0, 0, 1e-310], backend="rational"))
        half = float(Fraction(1e-310) / 2)
        assert 0 < half < 2.2250738585072014e-308
        assert table.tolist() == [[0.0, 0.0, 1e-310], [0.0, half, half]]

    def test_rational_overflow_raises(self):
        with pytest.raises(OverflowError):
            average_table(PeriodicTuple([10**400, 1, 2], backend="rational"))


def mixed_denominator_fractions():
    """Entries over denominators up to 10**6; zeros and small fractions tie often."""
    small = st.builds(Fraction, st.integers(0, 3), st.sampled_from([1, 2, 3]))
    wide = st.builds(Fraction, st.integers(0, 10**7), st.integers(1, 10**6))
    return st.one_of(small, small, small, wide, st.just(Fraction(0)))


@st.composite
def mixed_denominator_tuples(draw, max_size=9):
    values = draw(st.lists(mixed_denominator_fractions(), min_size=1, max_size=max_size))
    if draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = Fraction(10**400)
    if not any(values):
        values[0] = Fraction(1, 7)
    return PeriodicTuple(values, backend="rational")


def mixed_magnitude_floats():
    """Decimal literals such as 0.3 or 2.5e-4, huge and tiny entries side by side, and zeros."""
    decimal = st.builds(lambda m, e: float(f"{m}e{e}"), st.integers(0, 999), st.integers(-6, 2))
    extreme = st.sampled_from([1e20, 1e-5, 1.0, 0.0])
    return st.one_of(decimal, decimal, extreme, st.floats(0.0, 1e20))


@st.composite
def mixed_magnitude_float_tuples(draw, max_size=9):
    values = draw(st.lists(mixed_magnitude_floats(), min_size=1, max_size=max_size))
    if not any(values):
        values[0] = 0.1
    return PeriodicTuple(values, backend="float")


@st.composite
def subset_systems(draw, n):
    collections = []
    for _ in range(n):
        subsets = draw(
            st.lists(
                st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True),
                min_size=1,
                max_size=4,
            )
        )
        collections.append(subsets)
    return SubsetCollectionSystem(collections)


class TestExactKernel:
    """The integer-table kernels against ``Fraction`` oracles that sum ``x.values``.

    The genericity, rotation and subset-maximum predicates read a float
    tuple exactly, so on float tuples they must equal the same oracles.
    """

    @given(mixed_denominator_tuples(), mixed_magnitude_float_tuples(), st.data())
    def test_matches_fraction_oracles(self, x, floats, data):
        prof = right_maximal_profile(x)
        want = oracles.fraction_rising_sun(x)
        assert prof.values == want.values
        assert all(type(v) is Fraction for v in prof.values)
        assert prof.lengths == want.lengths
        assert prof.parents == want.parents

        # a cell is float of the exact average, bit for bit, and overflows where that does
        try:
            want = [[float(v) for v in row] for row in oracles.fraction_average_table(x)]
        except OverflowError:
            with pytest.raises(OverflowError):
                average_table(x)
        else:
            table = average_table(x)
            assert table.dtype == np.float64
            assert table.tolist() == want

        for y in (x, floats):
            n = y.n
            assert distinct_short_averages(y) == oracles.fraction_distinct_short_averages(y)
            for start in range(1 - 3 * n, 4 * n + 1):
                assert has_majorizing_prefixes(y, start) == (
                    oracles.fraction_has_majorizing_prefixes(y, start)
                )

            for system in (oracles.right_window_system(n), data.draw(subset_systems(n))):
                for i in range(1, n + 1):
                    got = system.max_subset_average(y, i)
                    assert type(got) is Fraction
                    assert got == oracles.fraction_max_subset_average(system, y, i)

    # The float sum of [0.1, 0.2, 0.3, 0.6] over 4 is 0.30000000000000004.
    @pytest.mark.parametrize("values, first_max", [([1e20, 1e-5, 1.0], 1e20), ([0.1, 0.2, 0.3, 0.6], 0.3)])
    def test_float_regressions(self, values, first_max):
        # rounded float averages collide; the binary values themselves do not
        x = PeriodicTuple(values)
        assert distinct_short_averages(x) is True
        system = oracles.right_window_system(x.n)
        got = system.max_subset_average(x, 1)
        assert got == oracles.fraction_max_subset_average(system, x, 1)
        assert float(got) == first_max
        assert type(generalized_max_sum(x, system)) is float

    def test_genericity_verdicts_on_tied_tuples(self):
        rng = np.random.default_rng(31)
        verdicts = set()
        for _ in range(300):
            n = int(rng.integers(1, 8))
            values = [Fraction(int(a), int(b)) for a, b in zip(rng.integers(0, 4, n), rng.integers(1, 3, n))]
            values[0] += 1
            x = PeriodicTuple(values, backend="rational")
            verdict = distinct_short_averages(x)
            assert verdict == oracles.fraction_distinct_short_averages(x)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "values, distinct",
        [
            ([1, 3, 2], False),  # (1 + 3) / 2 equals the entry 2: the key tells averages, not pairs, apart
            ([2, 1, 3], False),  # the entry 2 equals the mean
            ([1, 2, 8, 6], False),  # (2 + 8) / 2 equals (8 + 6 + 1) / 3 and nothing else
            ([1, 2, 5], True),
            ([Fraction(1, 3), Fraction(2, 9), 1], True),
        ],
    )
    def test_genericity_key_is_the_reduced_pair(self, values, distinct):
        for x in (PeriodicTuple(values, backend="rational"), PeriodicTuple([v * 7 for v in values], backend="rational")):
            assert distinct_short_averages(x) is distinct
            assert oracles.fraction_distinct_short_averages(x) is distinct

    def test_common_denominator_table(self):
        x = PeriodicTuple([Fraction(1, 6), Fraction(3, 4), Fraction(0), Fraction(2)], backend="rational")
        assert x._den == 12
        assert x._prefix3[:5] == [0, 2, 11, 11, 35]
        assert all(type(v) is int for v in x._prefix3)
        assert x.average * x.n == Fraction(35, 12) and x.average == Fraction(35, 48)
        # window sums across the period start, into the second period and past the third
        assert [interval_average(x, IndexInterval(a, b)) * (b - a + 1) for a, b in ((0, 0), (1, 5), (1, 13))] == [
            Fraction(2), Fraction(35, 12) + Fraction(1, 6), Fraction(35, 4) + Fraction(1, 6)
        ]
